"""Seeded inputs for the benchmark workloads, and the correctness gate.

An op is a short list of CLI invocations: argv lists for
``heleshaw.cli.main``, each run with ``--json``.  Every invocation names the
checks its report must contain.  The op passes only if each invocation
exits 0, every check in its report has status ``pass``, every named check
is present, and every artifact it lists exists and is not empty.  The
thresholds are the CLI's own.

Inputs come from ``random.Random("<workload>/<seed>")``, whose stream does
not depend on the numpy version.  Each op draws fresh inputs from that stream, so one seed
gives one fixed sequence of ops.  Inputs that fail are never re-drawn,
dropped or shrunk.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("evolve-series", "evolve-poly", "verify-sweep")

# Check names the CLI reports per command (see heleshaw.cli._cmd_*).
EVOLVE_CHECKS = ("completed", "moment_conservation", "string_residual")
MOMENTS_CHECKS = ("richardson_vs_residue", "richardson_vs_area")
JACOBIAN_CHECKS = (
    "jacobian_identity",
    "det_v_closed_form",
    "det_u_resultant_form",
    "det_u_sylvester_form",
    "jacobian_finite_difference",
)
BRACKET_CHECKS = ("string_residual",)
SCENARIO_CHECKS = {
    "subcase2": (
        "fprime_nonzero_on_circle",
        "f_vanishes_at_origin",
        "one_point_weight_is_M0",
        "higher_moments_vanish",
        "one_point_quadrature",
        "derivative_zero_structure",
    ),
    "example_abc": (
        "fprime_nonzero_on_circle",
        "f_vanishes_at_origin",
        "M0_equals_A_plus_B",
        "M1_equals_B_node",
        "geometric_progression",
        "two_point_quadrature",
    ),
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the checks its --json report must contain."""

    argv: tuple
    required: tuple


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one workload; ``tiny`` versions serve the smoke test."""

    taylor_order: int = 256
    grid_n: int = 4096
    poly_n: int = 16
    dt: float = 0.001
    horizon: float = 0.05
    output_times: tuple = (0.01, 0.02, 0.03, 0.04, 0.05)
    sweep_ns: tuple = (4, 8, 16, 24)


FULL = {
    "evolve-series": Sizes(),
    "evolve-poly": Sizes(horizon=0.3, output_times=(0.1, 0.2)),
    "verify-sweep": Sizes(),
}
TINY = {
    "evolve-series": Sizes(taylor_order=64, grid_n=512, horizon=0.002,
                           output_times=(0.001,)),
    "evolve-poly": Sizes(poly_n=4, horizon=0.002, output_times=(0.001,)),
    "verify-sweep": Sizes(sweep_ns=(3, 4)),
}


def _phase(rng: random.Random) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


def _num(z: complex) -> str:
    """Full-precision text the CLI's ``complex()`` parsing reads back exactly."""
    return repr(complex(z))


def poly_coeffs(rng: random.Random, n: int, power: int, scale: float = 0.3) -> list:
    """a_0 = 1 and |a_j| uniform in [0, scale / (j+1)**power], uniform phase.

    a_j multiplies z**(j+1), so f'(z) has coefficients (j+1) a_j: flat for
    power 1, decaying like 1/(j+1) for power 2.
    """
    return [1.0 + 0j] + [
        scale * rng.random() / (j + 1) ** power * _phase(rng) for j in range(1, n + 1)
    ]


def evolve_call(config: dict, outdir: str) -> Call:
    """``evolve`` on inline config text, writing csv/svg/json into ``outdir``."""
    config = dict(config)
    for ext in ("csv", "svg", "json"):
        config[ext] = os.path.join(outdir, f"run.{ext}")
    text = "\n".join(f"{k} = {v}" for k, v in config.items())
    required = EVOLVE_CHECKS
    if config["family"] != "polynomial":
        required += ("branch_fixed",)
    return Call(("--json", "evolve", "--config", text), required)


def _timing_keys(s: Sizes) -> dict:
    return {
        "dt": repr(s.dt),
        "horizon": repr(s.horizon),
        "output_times": ", ".join(repr(t) for t in s.output_times),
    }


def evolve_series_op(rng: random.Random, s: Sizes, outdir: str) -> tuple:
    """subcase2 with M0 = 1 and |B1| uniform in [0.2, 0.4], uniform phase."""
    b1 = (0.2 + 0.2 * rng.random()) * _phase(rng)
    cfg = {"family": "subcase2", "M0": "1.0", "B1": _num(b1), **_timing_keys(s),
           "grid_n": s.grid_n, "taylor_order": s.taylor_order}
    return (evolve_call(cfg, outdir),)


def evolve_poly_op(rng: random.Random, s: Sizes, outdir: str) -> tuple:
    """Degree-n polynomial map with |a_j| <= 0.3 / (j+1)**2.

    Coefficients decaying only like 1/(j+1) put f' near the Res(f', f'*) = 0
    shell, and the run stops at its first step.
    """
    coeffs = ", ".join(_num(c) for c in poly_coeffs(rng, s.poly_n, 2))
    cfg = {"family": "polynomial", "coeffs": coeffs, **_timing_keys(s)}
    return (evolve_call(cfg, outdir),)


def verify_sweep_op(rng: random.Random, s: Sizes, outdir: str) -> tuple:
    """moments, jacobian and bracket-check over polynomial maps at each n in
    the sweep and both decays, then one subcase2 and one example_abc scenario."""
    calls = []
    for n in s.sweep_ns:
        for power in (1, 2):
            coeffs = "--coeffs=" + ",".join(_num(c) for c in poly_coeffs(rng, n, power))
            calls.append(Call(("--json", "moments", coeffs), MOMENTS_CHECKS))
            calls.append(Call(("--json", "jacobian", coeffs, f"--degree={n}"),
                              JACOBIAN_CHECKS))
            calls.append(Call(("--json", "bracket-check", coeffs, "--threshold=1e-8"),
                              BRACKET_CHECKS))
    m0 = 0.5 + 1.5 * rng.random()
    b1 = math.sqrt(m0) * (0.2 + 0.4 * rng.random()) * _phase(rng)
    calls.append(Call(("--json", "scenario", "subcase2", f"--M0={m0!r}",
                       f"--B1={_num(b1)}"), SCENARIO_CHECKS["subcase2"]))
    a = (0.1 + 0.2 * rng.random()) * _phase(rng)
    b = (1.5 + 0.5 * rng.random()) * _phase(rng)
    c = 0.5 + 2.0 * rng.random()
    calls.append(Call(("--json", "scenario", "example_abc", f"--a={_num(a)}",
                       f"--b={_num(b)}", f"--c-magnitude={c!r}"),
                      SCENARIO_CHECKS["example_abc"]))
    return tuple(calls)


OPS = {
    "evolve-series": evolve_series_op,
    "evolve-poly": evolve_poly_op,
    "verify-sweep": verify_sweep_op,
}


def op_stream(workload: str, seed: int, outdir: str, tiny: bool = False):
    """Endless, reproducible sequence of ops for ``workload`` and ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    sizes = (TINY if tiny else FULL)[workload]
    make = OPS[workload]
    while True:
        yield make(rng, sizes, outdir)


def gate(call: Call, code: int, stdout: str) -> str | None:
    """Why the invocation failed the correctness gate, or None if it passed."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit code {code}, no --json report"
    bad = [c for c in report["checks"] if c["status"] != "pass"]
    if bad:
        return f"exit code {code}, checks not passed: {bad}"
    if code != 0:
        return f"exit code {code}"
    missing = sorted(set(call.required) - {c["name"] for c in report["checks"]})
    if missing:
        return f"checks missing from the report: {missing}"
    for path in report["artifacts"]:
        if not (os.path.isfile(path) and os.path.getsize(path) > 0):
            return f"artifact {path} missing or empty"
    return None

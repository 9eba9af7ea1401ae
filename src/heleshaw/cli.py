"""Command-line interface.

Subcommands: moments, bracket-check, jacobian, quadrature-check, scenario,
evolve.  Exit codes: 0 all checks passed, 1 at least one check failed,
2 usage or configuration error.  ``--json`` switches stdout to the
machine-readable run report (schema {spec, checks[], artifacts[], timing}).

Scenario configs are flat ``key = value`` text::

    family = subcase2
    M0 = 1.0
    B1 = 0.28111
    horizon = 0.05
    dt = 0.001
    output_times = 0.01, 0.03, 0.05
    csv = run.csv

Keys: family, horizon, dt, output_times, grid_n, taylor_order,
diagnostic_moments, csv, svg, json, plus the family parameters
(a, b, c_magnitude | M0, B1 | coeffs | a0).  Blank lines and ``#`` comments
are ignored; unknown keys are rejected by name.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
import time

import numpy as np

from .bracket import (
    jacobian_identity_report,
    log_rel_error,
    solve_string_system,
    string_residual,
    velocities_positive,
)
from .errors import ConfigError, HeleShawError
from .maps import CircleGrid, PolynomialMap
from .moments import (
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    quadrature_check,
)
from .reports import RunReport, export_trajectory, fmt, render_boundary_svg
from .scenarios import FAMILIES, ScenarioSpec, quadrature_data, verify_scenario
from .evolution import run_evolution

__all__ = ["parse_config", "build_parser", "main"]


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

_GLOBAL_KEYS = {
    "family": str,
    "horizon": float,
    "dt": float,
    "grid_n": int,
    "taylor_order": int,
    "diagnostic_moments": int,
    "csv": str,
    "svg": str,
    "json": str,
}
_LIST_KEYS = {"output_times": float, "coeffs": complex}
# config keys that name a ScenarioSpec field differently
_SPEC_FIELDS = {"csv": "csv_path", "svg": "svg_path", "json": "json_path"}
_PARAM_KEYS = {
    "a": complex,
    "b": complex,
    "B1": complex,
    "M0": float,
    "c_magnitude": float,
    "a0": float,
    "coeffs": None,
}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _LIST_KEYS:
            cast = _LIST_KEYS[key]
            return tuple(cast(tok.strip().replace(" ", ""))
                         for tok in raw.split(",") if tok.strip())
        if key in _GLOBAL_KEYS:
            return _GLOBAL_KEYS[key](raw)
        return _PARAM_KEYS[key](raw.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {raw!r} ({exc})") from None


def parse_config(source) -> ScenarioSpec:
    """Build a validated :class:`ScenarioSpec` from a file path or inline text.

    A string containing '=' or a newline is treated as inline config,
    anything else as a path.  Unknown keys and family-precondition
    violations raise :class:`ConfigError` naming the offending key.
    """
    text = str(source)
    if "=" not in text and "\n" not in text:
        if not os.path.exists(text):
            raise ConfigError(f"config file not found: {text}")
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    fields: dict = {}
    params: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in _GLOBAL_KEYS or key == "output_times":
            fields[key] = _parse_value(key, raw)
        elif key in _PARAM_KEYS:
            params[key] = _parse_value(key, raw)
        else:
            known = sorted(set(_GLOBAL_KEYS) | {"output_times"} | set(_PARAM_KEYS))
            raise ConfigError(f"unknown key '{key}' (line {lineno}); known keys: {known}")
    if "family" not in fields:
        raise ConfigError("config must set 'family'")
    return ScenarioSpec(
        params=params, **{_SPEC_FIELDS.get(k, k): v for k, v in fields.items()}
    )


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------

def _coeffs_arg(raw: str) -> tuple:
    try:
        return tuple(complex(tok.strip().replace(" ", ""))
                     for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {raw!r}: {exc}")


def _grid_arg(raw: str) -> int:
    try:
        return CircleGrid(int(raw)).size
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heleshaw",
        description="String-equation checks and Hele-Shaw evolution for disk maps.",
    )
    ap.add_argument("--json", action="store_true",
                    help="emit the machine-readable run report on stdout")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("moments", help="harmonic moments by three methods")
    p.add_argument("--coeffs", type=_coeffs_arg, required=True,
                   help="polynomial coefficients a_0,a_1,... (a_j multiplies z^{j+1})")
    p.add_argument("--K", type=_nonnegative_int, default=None,
                   help="highest moment index")

    p = sub.add_parser("bracket-check", help="solve the string system, check {f,f*}=1")
    p.add_argument("--coeffs", type=_coeffs_arg, required=True)
    p.add_argument("--grid", type=_grid_arg, default=1024)
    p.add_argument("--threshold", type=float, default=1e-8)

    p = sub.add_parser("jacobian", help="both sides of the Jacobian determinant identity")
    p.add_argument("--coeffs", type=_coeffs_arg, required=True)
    p.add_argument("--degree", type=int, default=None,
                   help="expected n (validates len(coeffs) == n+1)")
    p.add_argument("--fd-step", type=_positive_float, default=1e-5)
    p.add_argument("--no-fd", action="store_true",
                   help="skip the finite-difference cross-check")

    family_params = argparse.ArgumentParser(add_help=False)
    family_params.add_argument("--coeffs", type=_coeffs_arg, default=None,
                               help="polynomial coefficients a_0,a_1,...")
    family_params.add_argument("--a", type=complex, default=None)
    family_params.add_argument("--b", type=complex, default=None)
    family_params.add_argument("--c-magnitude", type=float, default=None)
    family_params.add_argument("--M0", type=float, default=None)
    family_params.add_argument("--B1", type=complex, default=None)

    p = sub.add_parser("quadrature-check", parents=[family_params],
                       help="quadrature identity residuals")
    p.add_argument("--family", choices=("example_abc", "subcase1", "subcase2"),
                   default=None, help="without it, --coeffs is a polynomial map")
    p.add_argument("--max-power", type=_nonnegative_int, default=2,
                   help="test functions z^0..z^max_power")

    p = sub.add_parser("scenario", parents=[family_params],
                       help="construct a scenario map and verify it")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--a0", type=float, default=None)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--svg", type=str, default=None,
                   help="write the image boundary as SVG")

    p = sub.add_parser("evolve", parents=[family_params], help="run a Hele-Shaw evolution")
    p.add_argument("--config", type=str, default=None, help="config file path")
    p.add_argument("--family", choices=FAMILIES, default=None)
    p.add_argument("--a0", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--output-times", type=str, default=None,
                   help="comma-separated times")
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--svg", type=str, default=None)
    p.add_argument("--json-path", type=str, default=None,
                   help="write the run report to this file")
    return ap


def _collect_params(args) -> dict:
    """The family parameters given as flags, under their config key names."""
    out = {}
    for k in _PARAM_KEYS:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    return out


# ----------------------------------------------------------------------
# subcommand pipelines
# ----------------------------------------------------------------------

def _polynomial_map(coeffs) -> PolynomialMap:
    try:
        return PolynomialMap(coeffs)
    except ValueError as exc:
        raise ConfigError(f"bad --coeffs: {exc}") from None


def _fmt_log(log_d: complex) -> str:
    """A number given by its complex log, as ``mantissa e exponent``; the
    mantissa is complex with modulus in [1, 10), so nothing overflows."""
    e = math.floor(log_d.real / math.log(10.0))
    mant = cmath.exp(log_d - e * math.log(10.0))
    return f"({mant.real:.16g}{mant.imag:+.16g}j)e{e:+d}"


def _cmd_moments(args, report: RunReport, say):
    m = _polynomial_map(args.coeffs)
    rich = moments_richardson(m, args.K)
    K = rich.K
    res = moments_residue(m, K)
    area, err_est = moments_area_oracle(m, K)
    say(f"harmonic moments of f, degree n = {m.degree_plus}, K = {K}")
    say(f"{'k':>3} {'Richardson':>28} {'residues':>28} {'area quadrature':>28}")
    for k in range(K + 1):
        say(f"{k:>3} {rich[k]:>28.16g} {res[k]:>28.16g} {area[k]:>28.16g}")
    d_rr = float(np.max(np.abs(rich.as_array() - res.as_array())))
    d_ra = float(np.max(np.abs(rich.as_array() - area.as_array())))
    report.add("richardson_vs_residue", d_rr < 1e-10, d_rr)
    report.add("richardson_vs_area", d_ra < 1e-6, d_ra,
               quadrature_error_estimate=err_est)
    say(f"max |Richardson - residues| = {fmt(d_rr)}")
    say(f"max |Richardson - area|     = {fmt(d_ra)}")


def _cmd_bracket_check(args, report: RunReport, say):
    m = _polynomial_map(args.coeffs)
    v = solve_string_system(m)
    grid = CircleGrid(args.grid)
    res = string_residual(m, velocities_positive(v), grid)
    say("coefficient velocities da_j/dM_0 (j = -n..n):")
    n = m.degree_plus
    for j, vj in zip(range(-n, n + 1), v):
        say(f"  adot_{j:+d} = {vj:.16g}")
    say(f"max |{{f,f*}}_t - 1| on {args.grid} nodes = {fmt(res)}")
    report.add("string_residual", res < args.threshold, res,
               threshold=args.threshold)


def _cmd_jacobian(args, report: RunReport, say):
    if args.degree is not None and len(args.coeffs) != args.degree + 1:
        raise ConfigError(
            f"--degree {args.degree} expects {args.degree + 1} coefficients, "
            f"got {len(args.coeffs)}"
        )
    m = _polynomial_map(args.coeffs)
    rep = jacobian_identity_report(m, fd_step=None if args.no_fd else args.fd_step)
    say(f"n = {rep.n}")
    say(f"det(V U)                      = {_fmt_log(rep.log_det_vu)}")
    say(f"2 a0^(n^2+3n+1) Res(f',f'*)   = {_fmt_log(rep.log_rhs)}")
    say(f"relative error                = {fmt(rep.rel_error)}")
    say(f"det V = {_fmt_log(rep.log_det_v)}   closed form {_fmt_log(rep.log_det_v_closed)}")
    say(f"det U = {_fmt_log(rep.log_det_u)}   closed form {_fmt_log(rep.log_det_u_closed)}")
    report.add("jacobian_identity", rep.rel_error < 1e-10, rep.rel_error)
    dv = log_rel_error(rep.log_det_v, rep.log_det_v_closed)
    du = log_rel_error(rep.log_det_u, rep.log_det_u_closed)
    report.add("det_v_closed_form", dv < 1e-10, dv)
    report.add("det_u_resultant_form", du < 1e-10, du)
    if rep.log_det_sylvester is not None:
        ds = log_rel_error(np.log(2.0 * m.a0) + rep.log_det_sylvester, rep.log_det_u)
        report.add("det_u_sylvester_form", ds < 1e-10, ds)
    if rep.fd_max_abs_err is not None:
        # relative to the entries of V U, which grow like a0^|k| with n
        bound = 1e-6 * rep.fd_scale
        say(f"max |V U - finite differences| = {fmt(rep.fd_max_abs_err)}")
        report.add("jacobian_finite_difference", rep.fd_max_abs_err < bound,
                   rep.fd_max_abs_err, step=rep.fd_step, threshold=bound)


def _cmd_quadrature_check(args, report: RunReport, say):
    testfns = [[0.0] * p + [1.0] for p in range(args.max_power + 1)]
    spec = ScenarioSpec(family=args.family or "polynomial", params=_collect_params(args))
    m, _ = spec.initial
    data = quadrature_data(m)
    if data.is_two_point:
        say(f"two-point identity: A = {data.weight_a:.16g}, B = {data.weight_b:.16g}, "
            f"node 1/conj(b) = {data.node_b:.16g}")
    else:
        say("one-point identity coefficients c_j: "
            + ", ".join(f"{c:.16g}" for c in data.c))
    residuals = quadrature_check(m, data, testfns)
    for p, r in enumerate(residuals):
        say(f"g = z^{p}: residual {fmt(r)}")
        report.add(f"quadrature_g_power_{p}", r < 1e-6, r)


def _cmd_scenario(args, report: RunReport, say):
    spec = ScenarioSpec(family=args.family, params=_collect_params(args),
                        grid_n=args.grid)
    m, mode = spec.initial
    rep = verify_scenario(m, args.family, grid_n=args.grid)
    say(f"scenario '{args.family}' ({mode} mode), {len(rep.checks)} checks:")
    for c in rep:
        say(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: residual {fmt(c.residual)}")
        report.add(c.name, c.passed, c.residual)
    if args.svg:
        render_boundary_svg(m, args.svg)
        report.artifacts.append(args.svg)
        say(f"wrote {args.svg}")


def _cmd_evolve(args, report: RunReport, say):
    if args.config:
        spec = parse_config(args.config)
    else:
        if args.family is None:
            raise ConfigError("evolve needs --config or --family plus parameters")
        opts = {"horizon": args.horizon, "dt": args.dt, "csv_path": args.csv,
                "svg_path": args.svg, "json_path": args.json_path}
        if args.output_times:
            try:
                opts["output_times"] = tuple(
                    float(tok) for tok in args.output_times.split(",") if tok.strip())
            except ValueError as exc:
                raise ConfigError(
                    f"bad --output-times {args.output_times!r}: {exc}") from None
        spec = ScenarioSpec(
            family=args.family, params=_collect_params(args),
            **{k: v for k, v in opts.items() if v is not None},
        )
    result = run_evolution(spec)
    report.spec["scenario"] = _spec_dict(spec)
    say(f"evolution '{spec.family}': {len(result.states)} snapshots, "
        f"stop reason: {result.stop_reason}")
    last = result.states[-1]
    say(f"final t = {fmt(last.t)}")
    d = last.diagnostics
    say(f"max moment drift   = {fmt(d.max_moment_drift)}")
    say(f"max branch drift   = {fmt(d.max_branch_drift)}")
    say(f"string residual    = {fmt(d.string_residual)}")
    report.add("completed", result.completed, None, stop_reason=result.stop_reason)
    report.add("moment_conservation", d.max_moment_drift < 1e-7, d.max_moment_drift)
    if len(result.base_branch_values):
        report.add("branch_fixed", d.max_branch_drift < 1e-7, d.max_branch_drift)
    report.add("string_residual", d.string_residual < 1e-8, d.string_residual)
    if spec.csv_path:
        export_trajectory(result, spec.csv_path)
        report.artifacts.append(spec.csv_path)
        say(f"wrote {spec.csv_path}")
    if spec.svg_path:
        render_boundary_svg(result, spec.svg_path)
        report.artifacts.append(spec.svg_path)
        say(f"wrote {spec.svg_path}")
    if spec.json_path:
        with open(spec.json_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(report.to_json() + "\n")
        report.artifacts.append(spec.json_path)
        say(f"wrote {spec.json_path}")


def _spec_dict(spec: ScenarioSpec) -> dict:
    def enc(v):
        if isinstance(v, complex):
            return [v.real, v.imag]
        if isinstance(v, (tuple, list)):
            return [enc(x) for x in v]
        return v

    return {
        "family": spec.family,
        "params": {k: enc(v) for k, v in sorted(spec.params.items())},
        "horizon": spec.horizon,
        "dt": spec.dt,
        "output_times": list(spec.output_times),
        "grid_n": spec.grid_n,
        "taylor_order": spec.taylor_order,
    }


_COMMANDS = {
    "moments": _cmd_moments,
    "bracket-check": _cmd_bracket_check,
    "jacobian": _cmd_jacobian,
    "quadrature-check": _cmd_quadrature_check,
    "scenario": _cmd_scenario,
    "evolve": _cmd_evolve,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    report = RunReport(spec={"command": args.command})
    lines: list = []
    say = lines.append
    t0 = time.perf_counter()
    try:
        _COMMANDS[args.command](args, report, say)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HeleShawError as exc:
        report.add("run", False, None, error=f"{type(exc).__name__}: {exc}")
        lines.append(f"error: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if args.json:
        print(report.to_json())
    else:
        for ln in lines:
            print(ln)
        print(f"[{'ok' if report.all_passed else 'FAIL'}] "
              f"{sum(c['status'] == 'pass' for c in report.checks)}/"
              f"{len(report.checks)} checks passed in {elapsed:.3f}s")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: moments, bracket-check, jacobian, quadrature-check, scenario,
evolve.  Exit codes: 0 all checks passed, 1 at least one check failed,
2 usage or configuration error (an unreadable config file or unwritable
artifact path too); a float overflow or division by zero fails the run
(exit 1).  ``--json`` switches stdout to the machine-readable run report
(schema {spec, checks[], artifacts[], timing}).

Scenario configs are flat ``key = value`` text::

    family = subcase2
    M0 = 1.0
    B1 = 0.28111
    horizon = 0.05
    dt = 0.001
    output_times = 0.01, 0.03, 0.05
    csv = run.csv

Keys, with the defaults of :class:`ScenarioSpec`: family, horizon (0),
dt (1e-3), output_times (none), grid_n (1024), taylor_order (64),
diagnostic_moments (4), csv, svg, json (artifact paths, none written by
default), plus the family parameters (a0 | coeffs | a, b, c_magnitude |
M0, B1).  Blank lines and ``#`` comments are ignored; unknown keys are
rejected by name.  A key is also a flag, ``--key-name`` for ``key_name``
and ``--json-path`` for ``json`` (``scenario`` and ``bracket-check``
have ``--grid`` for grid_n).  Config lines and flags go through one
table, :data:`_KEYS`, of value parsers, and one function, :func:`_spec`,
builds the spec.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
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
# scenario inputs: config lines and flags
# ----------------------------------------------------------------------

def _number(cast):
    return lambda raw: cast(raw.replace(" ", ""))


def _numbers(cast):
    return lambda raw: tuple(cast(tok.replace(" ", "")) for tok in raw.split(",") if tok.strip())


#: every config key and the parser of its text; spaces inside numbers are
#: ignored, lists are comma-separated
_KEYS = {
    "family": str,
    "horizon": _number(float),
    "dt": _number(float),
    "output_times": _numbers(float),
    "grid_n": _number(int),
    "taylor_order": _number(int),
    "diagnostic_moments": _number(int),
    "csv": str,
    "svg": str,
    "json": str,
    # the family parameters of scenarios.FAMILY_PARAMS
    "a0": _number(float),
    "coeffs": _numbers(complex),
    "a": _number(complex),
    "b": _number(complex),
    "c_magnitude": _number(float),
    "M0": _number(float),
    "B1": _number(complex),
}
#: config keys that name a ScenarioSpec field differently
_SPEC_FIELDS = {"csv": "csv_path", "svg": "svg_path", "json": "json_path"}
#: the ScenarioSpec fields a key sets; any other key is a family parameter
_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioSpec) if f.init)
_HELP = {
    "coeffs": "polynomial coefficients a_0,a_1,... (a_j multiplies z^{j+1})",
    "output_times": "comma-separated times",
    "svg": "write the image boundary as SVG",
    "json": "write the run report to this file",
}


def _spec(args=None, **text) -> ScenarioSpec:
    """The :class:`ScenarioSpec` of config keys given as text.

    ``text`` maps keys to their text; with ``args``, every key flag that was
    set adds its text under the key.  Each value goes through its key's
    parser in :data:`_KEYS`; a key that names no spec field is a family
    parameter.
    """
    if args is not None:
        text = {k: getattr(args, _SPEC_FIELDS.get(k, k), None) for k in _KEYS} | text
    fields: dict = {}
    params: dict = {}
    for key, raw in text.items():
        if raw is None:
            continue
        raw = raw.strip()
        try:
            value = _KEYS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {raw!r} ({exc})") from None
        name = _SPEC_FIELDS.get(key, key)
        (fields if name in _FIELDS else params)[name] = value
    return ScenarioSpec(params=params, **fields)


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
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}' (line {lineno}); known keys: {sorted(_KEYS)}")
        values[key] = raw
    if "family" not in values:
        raise ConfigError("config must set 'family'")
    return _spec(**values)


def _flag(key: str) -> str:
    """The command-line flag of a config key."""
    return "--json-path" if key == "json" else "--" + key.replace("_", "-")


def _key_flags(parser, *keys, **kw):
    """One flag per config key, read as text for :func:`_spec`."""
    for key in keys:
        parser.add_argument(_flag(key), dest=_SPEC_FIELDS.get(key, key),
                            help=_HELP.get(key), **kw)


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------

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
    _key_flags(p, "coeffs", required=True)
    p.add_argument("--K", type=_nonnegative_int, default=None,
                   help="highest moment index")

    p = sub.add_parser("bracket-check", help="solve the string system, check {f,f*}=1")
    _key_flags(p, "coeffs", required=True)
    p.add_argument("--grid", dest="grid_n")
    p.add_argument("--threshold", type=_positive_float, default=1e-8)

    p = sub.add_parser("jacobian", help="both sides of the Jacobian determinant identity")
    _key_flags(p, "coeffs", required=True)
    p.add_argument("--degree", type=int, default=None,
                   help="expected n (validates len(coeffs) == n+1)")
    p.add_argument("--fd-step", type=_positive_float, default=1e-5)
    p.add_argument("--no-fd", action="store_true",
                   help="skip the finite-difference cross-check")

    # family parameters; a0 is the disk's alone
    params = argparse.ArgumentParser(add_help=False)
    _key_flags(params, "coeffs", "a", "b", "c_magnitude", "M0", "B1")
    shapes = argparse.ArgumentParser(add_help=False, parents=[params])
    _key_flags(shapes, "a0", "svg")

    p = sub.add_parser("quadrature-check", parents=[params],
                       help="quadrature identity residuals")
    p.add_argument("--family", choices=("example_abc", "subcase1", "subcase2"),
                   help="without it, --coeffs is a polynomial map")
    p.add_argument("--max-power", type=_nonnegative_int, default=2,
                   help="test functions z^0..z^max_power")

    p = sub.add_parser("scenario", parents=[shapes],
                       help="construct a scenario map and verify it")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--grid", dest="grid_n")

    p = sub.add_parser("evolve", parents=[shapes], help="run a Hele-Shaw evolution")
    p.add_argument("--config", help="config file path")
    p.add_argument("--family", choices=FAMILIES)
    _key_flags(p, "horizon", "dt", "output_times", "csv", "json")
    return ap


# ----------------------------------------------------------------------
# subcommand pipelines
# ----------------------------------------------------------------------

def _fmt_log(log_d: complex) -> str:
    """A number given by its complex log, as ``mantissa e exponent``; the
    mantissa is complex with modulus in [1, 10), so nothing overflows."""
    e = math.floor(log_d.real / math.log(10.0))
    mant = cmath.exp(log_d - e * math.log(10.0))
    return f"({mant.real:.16g}{mant.imag:+.16g}j)e{e:+d}"


def _cmd_moments(args, report: RunReport, say):
    m = _spec(args, family="polynomial").initial
    rich = moments_richardson(m, args.K)
    K = len(rich) - 1
    res = moments_residue(m, K)
    area, err_est = moments_area_oracle(m, K)
    say(f"harmonic moments of f, degree n = {m.degree_plus}, K = {K}")
    say(f"{'k':>3} {'Richardson':>28} {'residues':>28} {'area quadrature':>28}")
    for k in range(K + 1):
        say(f"{k:>3} {rich[k]:>28.16g} {res[k]:>28.16g} {area[k]:>28.16g}")
    d_rr = float(np.max(np.abs(rich - res)))
    d_ra = float(np.max(np.abs(rich - area)))
    report.check("richardson_vs_residue", d_rr, 1e-10)
    report.check("richardson_vs_area", d_ra, 1e-6, quadrature_error_estimate=err_est)
    say(f"max |Richardson - residues| = {fmt(d_rr)}")
    say(f"max |Richardson - area|     = {fmt(d_ra)}")


def _cmd_bracket_check(args, report: RunReport, say):
    spec = _spec(args, family="polynomial")
    m = spec.initial
    v = solve_string_system(m)
    n = m.degree_plus
    res = string_residual(m, v[n:], CircleGrid(spec.grid_n))
    say("coefficient velocities da_j/dM_0 (j = -n..n):")
    for j, vj in zip(range(-n, n + 1), v):
        say(f"  adot_{j:+d} = {vj:.16g}")
    say(f"max |{{f,f*}}_t - 1| on {spec.grid_n} nodes = {fmt(res)}")
    report.check("string_residual", res, args.threshold, threshold=args.threshold)


def _cmd_jacobian(args, report: RunReport, say):
    spec = _spec(args, family="polynomial")
    n_coeffs = len(spec.params["coeffs"])
    if args.degree is not None and n_coeffs != args.degree + 1:
        raise ConfigError(
            f"--degree {args.degree} expects {args.degree + 1} coefficients, "
            f"got {n_coeffs}"
        )
    m = spec.initial
    rep = jacobian_identity_report(m, fd_step=None if args.no_fd else args.fd_step)
    say(f"n = {rep.n}")
    say(f"det(V U)                      = {_fmt_log(rep.log_det_vu)}")
    say(f"2 a0^(n^2+3n+1) Res(f',f'*)   = {_fmt_log(rep.log_rhs)}")
    say(f"relative error                = {fmt(rep.rel_error)}")
    say(f"det V = {_fmt_log(rep.log_det_v)}   closed form {_fmt_log(rep.log_det_v_closed)}")
    say(f"det U = {_fmt_log(rep.log_det_u)}   closed form {_fmt_log(rep.log_det_u_closed)}")
    checks = [
        ("jacobian_identity", rep.log_det_vu, rep.log_rhs),
        ("det_v_closed_form", rep.log_det_v, rep.log_det_v_closed),
        # det U against Res read from det W, then against 2 b0 det S (n >= 1)
        ("det_u_resultant_form", rep.log_det_u, rep.log_det_u_closed),
        ("det_u_sylvester_form", rep.log_det_u_sylvester, rep.log_det_u),
    ]
    for name, got, want in checks if rep.n else checks[:3]:
        report.check(name, log_rel_error(got, want), 1e-10)
    if rep.fd_max_abs_err is not None:
        # relative to the entries of V U, which grow like a0^|k| with n
        bound = 1e-6 * rep.fd_scale
        say(f"max |V U - finite differences| = {fmt(rep.fd_max_abs_err)}")
        report.check("jacobian_finite_difference", rep.fd_max_abs_err, bound,
                     step=rep.fd_step, threshold=bound)


def _cmd_quadrature_check(args, report: RunReport, say):
    testfns = [[0.0] * p + [1.0] for p in range(args.max_power + 1)]
    m = _spec(args, family=args.family or "polynomial").initial
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
        report.check(f"quadrature_g_power_{p}", r, 1e-6)


def _cmd_scenario(args, report: RunReport, say):
    spec = _spec(args)
    m = spec.initial
    mode = "polynomial" if isinstance(m, PolynomialMap) else "taylor"
    checks = verify_scenario(m, spec.family, grid_n=spec.grid_n).checks
    say(f"scenario '{spec.family}' ({mode} mode), {len(checks)} checks:")
    for c in checks:
        status = "pass" if c["status"] == "pass" else "FAIL"
        say(f"  [{status}] {c['name']}: residual {fmt(c['residual'])}")
    report.checks.extend(checks)
    if spec.svg_path:
        render_boundary_svg(m, spec.svg_path)
        report.artifacts.append(spec.svg_path)
        say(f"wrote {spec.svg_path}")


def _cmd_evolve(args, report: RunReport, say):
    if args.config:
        given = [_flag(k) for k in _KEYS
                 if getattr(args, _SPEC_FIELDS.get(k, k), None) is not None]
        if given:
            raise ConfigError(f"--config takes no other scenario flags, got {', '.join(given)}")
        spec = parse_config(args.config)
    elif args.family is None:
        raise ConfigError("evolve needs --config or --family plus parameters")
    else:
        spec = _spec(args)
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
    report.check("moment_conservation", d.max_moment_drift, 1e-7)
    if len(result.base_branch_values):
        report.check("branch_fixed", d.max_branch_drift, 1e-7)
    report.check("string_residual", d.string_residual, 1e-8)
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
    """The spec's init fields for the run report, less the artifact paths."""
    def enc(v):
        if isinstance(v, complex):
            return [v.real, v.imag]
        if isinstance(v, (tuple, list)):
            return [enc(x) for x in v]
        if isinstance(v, dict):
            return {k: enc(x) for k, x in sorted(v.items())}
        return v

    return {name: enc(getattr(spec, name)) for name in _FIELDS
            if name not in _SPEC_FIELDS.values()}


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
        # an overflow or x/0 fails the run, not a check fed inf or nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _COMMANDS[args.command](args, report, say)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HeleShawError, ArithmeticError) as exc:
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

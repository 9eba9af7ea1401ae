import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

import heleshaw
from heleshaw import bracket, cli, reports
from heleshaw.cli import main, parse_config
from heleshaw.errors import ConfigError
from heleshaw.evolution import EvolutionResult, EvolutionState, StepDiagnostics, run_evolution
from heleshaw.maps import TaylorMap
from heleshaw.reports import REPORT_SCHEMA, RunReport, export_trajectory, fmt, render_boundary_svg
from heleshaw.scenarios import FAMILY_PARAMS, ScenarioSpec


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def test_parse_minimal_disk_config():
    spec = parse_config("family = disk")
    assert spec.family == "disk"
    assert spec.dt == 1e-3
    assert spec.grid_n == 1024
    assert spec.taylor_order == 64


def test_parse_full_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        """
        # a comment
        family = subcase2
        M0 = 1.0
        B1 = 0.28111
        horizon = 0.05
        dt = 0.001
        output_times = 0.01, 0.05
        grid_n = 512
        taylor_order = 32
        csv = out.csv
        """
    )
    spec = parse_config(str(cfg))
    assert spec.family == "subcase2"
    assert spec.params["M0"] == 1.0
    assert spec.output_times == (0.01, 0.05)
    assert spec.grid_n == 512
    assert spec.csv_path == "out.csv"


def test_parse_unknown_key_names_it():
    with pytest.raises(ConfigError) as err:
        parse_config("family = disk\nfoo = 1")
    assert "foo" in str(err.value)


def test_parse_violated_precondition_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("family = subcase2\nM0 = 1.0\nB1 = 1.5")
    assert "sqrt(M0)" in str(err.value)


def test_parse_missing_family():
    with pytest.raises(ConfigError):
        parse_config("dt = 0.001")


def test_parse_complex_coeffs():
    spec = parse_config("family = polynomial\ncoeffs = 1.0, 0.2+0.1j")
    assert spec.params["coeffs"] == (1.0 + 0j, 0.2 + 0.1j)


# ----------------------------------------------------------------------
# trajectory CSV
# ----------------------------------------------------------------------

def _disk_result():
    spec = ScenarioSpec(family="disk", horizon=0.01, dt=1e-3,
                        output_times=(0.005, 0.01))
    return run_evolution(spec)


def test_export_trajectory_columns(tmp_path):
    res = _disk_result()
    path = tmp_path / "run.csv"
    export_trajectory(res, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "re_a0" in header and "im_a0" in header
    assert "re_M0" in header
    assert header[-2:] == ["string_residual", "branch_drift"]
    assert len(lines) == 4  # t=0 plus two outputs plus the horizon snapshot
    row = lines[-1].split(",")
    # M0 column tracks 1 + t
    i = header.index("re_M0")
    assert abs(float(row[i]) - 1.01) < 1e-9


def test_export_cardioid_constant_m1_column(tmp_path):
    spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.3)},
                        horizon=0.02, dt=1e-3, output_times=(0.01, 0.02))
    path = tmp_path / "cardioid.csv"
    export_trajectory(run_evolution(spec), path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    i_re, i_im = header.index("re_M1"), header.index("im_M1")
    for row in lines[1:]:
        cells = row.split(",")
        assert abs(float(cells[i_re]) - 0.3) < 1e-10
        assert abs(float(cells[i_im])) < 1e-10


def test_export_empty_trajectory_rejected(tmp_path):
    res = _disk_result()
    empty = type(res)(states=(), stop_reason="completed",
                      base_moments=res.base_moments,
                      base_branch_values=res.base_branch_values)
    with pytest.raises(ValueError):
        export_trajectory(empty, tmp_path / "x.csv")


def test_fmt_17_digits():
    assert fmt(np.sqrt(2.0)) == "1.4142135623730951"
    assert fmt(1.0) == "1"


#: cells that formatting can get wrong: infinities, nan, a signed zero, the
#: smallest subnormal and numbers near the float range's ends
_AWKWARD = (np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0)


def test_csv_rows_render_each_cell_as_fmt(tmp_path):
    # one %-format per row writes what fmt writes cell by cell
    cells = np.array(_AWKWARD)
    moments = np.empty(8, dtype=complex)
    moments.real, moments.imag = cells[:8], cells[1:9]
    states = []
    for t, a0, residual in ((0.0, 1e308, np.nan), (-0.0, 5e-324, -0.0)):
        coeffs = np.concatenate([[a0], moments[1:]])
        d = StepDiagnostics(moments, np.abs(moments), cells[3:5], residual)
        states.append(EvolutionState(t, TaylorMap(coeffs), diagnostics=d))
    res = EvolutionResult(tuple(states), "completed", moments, np.zeros(0))
    path = tmp_path / "awkward.csv"
    export_trajectory(res, path)
    rows = path.read_text().splitlines()[1:]
    for s, line in zip(states, rows):
        d = s.diagnostics
        row = [s.t, *np.asarray(s.map.coeffs).view(float), *d.moments.view(float),
               d.string_residual, d.max_branch_drift]
        assert line == ",".join(fmt(x) for x in row)
    assert len(rows) == 2


def test_svg_points_render_each_coordinate_at_six_decimals():
    x, y = np.array(_AWKWARD), np.array(_AWKWARD[::-1])
    assert reports._points(x, y) == " ".join("%.6f,%.6f" % p for p in zip(x, y))


def test_report_json_equals_the_dataclass_dump():
    # to_json dumps its four fields as they are; dataclasses.asdict, which
    # copies them first, writes the same bytes
    rep = RunReport(spec={"command": "x", "scenario": {"coeffs": [(1.0, -0.0)]}})
    for i, r in enumerate(_AWKWARD):
        rep.add(f"c{i}", i % 2 == 0, r, extra=[r, {"nested": r}], note=None)
    rep.artifacts.append("out.csv")
    assert rep.to_json() == json.dumps(dataclasses.asdict(rep), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# SVG
# ----------------------------------------------------------------------

def test_svg_unit_circle(tmp_path):
    from heleshaw.maps import PolynomialMap

    path = tmp_path / "disk.svg"
    render_boundary_svg(PolynomialMap((1.0,)), path)
    text = path.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "polyline" in text
    assert 'version="1.1"' in text


def test_svg_evolution_layers(tmp_path):
    res = _disk_result()
    path = tmp_path / "run.svg"
    render_boundary_svg(res, path)
    text = path.read_text()
    assert text.count("<polyline") == len(res.states)
    assert "t=0" in text


def test_svg_subcase1_polyline_self_overlaps(tmp_path):
    # the doubly covered disk traces its image circle twice: the first and
    # second halves of the sampled polyline coincide as point sets
    from heleshaw.maps import CircleGrid
    from heleshaw.scenarios import make_subcase1

    m = make_subcase1(2.0, 7.0 - 4.0 * np.sqrt(3.0))
    path = tmp_path / "sub1.svg"
    render_boundary_svg(m, path)
    assert path.exists()
    w = m.boundary_values(CircleGrid(512))
    # both halves lie exactly on the circle of radius sqrt(M0/2) = 1 ...
    assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-10
    # ... and coincide as point sets up to the sampling gap 2 pi / 256
    first, second = w[:256], w[256:]
    d = np.abs(first[:, None] - second[None, :])
    assert np.max(np.min(d, axis=1)) < 2.0 * np.pi / 256.0 * 1.2


# ----------------------------------------------------------------------
# JSON report
# ----------------------------------------------------------------------

def test_report_schema_valid():
    rep = RunReport(spec={"command": "x"})
    rep.add("a_check", True, 1e-12)
    rep.artifacts.append("out.csv")
    jsonschema.validate(json.loads(rep.to_json()), REPORT_SCHEMA)


def test_report_fail_status():
    rep = RunReport(spec={})
    rep.add("bad", False, 1.0)
    assert not rep.all_passed


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------

def test_cli_no_arguments_usage_error(capsys):
    assert main([]) == 2


def test_cli_moments_pass():
    assert main(["moments", "--coeffs", "1,0.3"]) == 0


def _moments_checks(coeffs, capsys):
    code = main(["--json", "moments", "--coeffs=" + ",".join(repr(complex(c)) for c in coeffs)])
    return code, {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}


def test_cli_moments_area_estimate_is_rounding_level(capsys):
    # K = 24 on a_j = 0.3/(j+1) e^(ij): one exact grid, so the estimate is
    # rounding (1.7e-10 against a 1.1e-11 residual), where the change from
    # a coarse grid used to report 1.80
    coeffs = [1.0] + [0.3 / (j + 1) * np.exp(1j * j) for j in range(1, 25)]
    code, checks = _moments_checks(coeffs, capsys)
    area = checks["richardson_vs_area"]
    assert code == 0 and area["status"] == "pass"
    assert area["residual"] <= area["quadrature_error_estimate"] < 1e-9


def test_cli_moments_beyond_the_angular_cap_is_a_failed_run(capsys):
    # n = 100, K = 100 needs 101 x 16384 nodes; from n = 90 on, K = n is
    # over the cap of 8192 angles
    coeffs = [1.0] + [0.3 / (j + 1) ** 2 for j in range(1, 101)]
    code, checks = _moments_checks(coeffs, capsys)
    assert code == 1
    assert checks["run"]["status"] == "fail"
    assert checks["run"]["error"].startswith("QuadratureError")
    assert "101 x 16384 nodes" in checks["run"]["error"]


def test_cli_jacobian_degree_mismatch():
    assert main(["jacobian", "--coeffs", "1,0.3", "--degree", "2"]) == 2


def test_cli_jacobian_n2(capsys):
    code = main(["jacobian", "--coeffs", "1,0.2,0.1", "--degree", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "det(V U)" in out
    assert "relative error" in out


def test_cli_scenario_subcase2():
    assert main(["scenario", "subcase2", "--M0", "1", "--B1", "0.28111"]) == 0


@pytest.mark.parametrize("ratio", [0.95, 0.98])
def test_cli_scenario_subcase2_edge_of_range(ratio, capsys):
    b1 = repr(complex(ratio * np.exp(0.7j)))
    code = main(["--json", "scenario", "subcase2", "--M0", "1", f"--B1={b1}"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_cli_scenario_unresolvable_pole_exits_1(capsys):
    # |B1| = 0.995 sqrt(M0) puts the pole 1.7e-3 from the circle
    code = main(["--json", "scenario", "subcase2", "--M0", "1", "--B1", "0.995"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["checks"][-1]["error"].startswith("QuadratureError")


def test_cli_scenario_json_schema(capsys):
    code = main(["--json", "scenario", "subcase2", "--M0", "1", "--B1", "0.28111"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_cli_bracket_check_degenerate_map_fails(capsys):
    code = main(["bracket-check", "--coeffs", "1,0.5"])
    assert code == 1


def test_cli_quadrature_check_polynomial():
    assert main(["quadrature-check", "--coeffs", "1,0.3"]) == 0


def test_cli_quadrature_check_high_powers_do_not_alias(capsys):
    # z^p |f'|^2 needs p + 2 angles; a fixed 256 aliased p = 255..257 onto
    # the mean (residuals up to 1.1e-2)
    assert main(["--json", "quadrature-check", "--coeffs", "1,0.3", "--max-power", "500"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [f"quadrature_g_power_{p}" for p in range(501)]
    assert all(c["status"] == "pass" for c in checks)


@pytest.mark.parametrize("argv", [
    ["--family", "subcase1", "--M0", "1", "--B1", "0.3"],
    ["--family", "subcase2", "--M0", "1", "--B1", "0.28111"],
    ["--family", "example_abc", "--a", "0.2", "--b", "1.7+0.2j", "--c-magnitude", "1.3"],
])
def test_cli_quadrature_check_families(argv, capsys):
    code = main(["--json", "quadrature-check", *argv])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 0
    assert [c["name"] for c in checks] == [f"quadrature_g_power_{p}" for p in range(3)]
    assert all(c["status"] == "pass" for c in checks)


_COEFFS_N200 = ",".join(["1"] + [f"{0.3 / (j + 1) ** 2:.6g}" for j in range(1, 201)])


def test_cli_quadrature_check_polynomial_n200(capsys):
    # 171! overflows a float: c_j = pp_j / j! underflows to 0 beyond j = 170,
    # and the test functions z^0..z^2 read c_0..c_2 only
    assert main(["--json", "quadrature-check", f"--coeffs={_COEFFS_N200}"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [f"quadrature_g_power_{p}" for p in range(3)]
    assert all(c["status"] == "pass" for c in checks)


def test_cli_quadrature_check_beyond_float_factorials_is_a_failed_run(capsys):
    argv = ["--json", "quadrature-check", f"--coeffs={_COEFFS_N200}", "--max-power", "171"]
    assert main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("run", "fail")]
    assert checks[0]["error"].startswith("QuadratureError: the identity's terms")


def test_cli_quadrature_check_underflowing_c0_is_a_failed_run(capsys):
    # a0^2 underflows, so c_0 = 0: a typed error and a failed "run" check,
    # where a bare ValueError used to escape with a traceback
    assert main(["--json", "quadrature-check", "--coeffs=1e-300,1e-300"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("run", "fail")]
    assert checks[0]["error"].startswith("QuadratureError: c_0 must be real positive")


@pytest.mark.parametrize("argv", [
    ["--family", "subcase2", "--M0", "1"],  # missing --B1
    ["--family", "example_abc", "--a", "0.2", "--b", "1.7"],  # missing --c-magnitude
    ["--family", "subcase2", "--M0", "1", "--B1", "0.28111", "--a", "0.2"],
    ["--family", "subcase1", "--M0", "1", "--B1", "0.3", "--coeffs", "1,0.3"],
    ["--coeffs", "1,0.3", "--M0", "1"],
    [],
])
def test_cli_quadrature_check_bad_parameters_exit_2(argv):
    assert main(["quadrature-check", *argv]) == 2


@pytest.mark.parametrize("argv", [
    ["scenario", "subcase2", "--M0", "1", "--B1", "0.28111", "--a", "0.2"],
    ["evolve", "--family", "subcase2", "--M0", "1", "--B1", "0.28111", "--coeffs", "1"],
])
def test_cli_family_rejects_foreign_parameter(argv):
    assert main(argv) == 2


_FAMILY_OPTIONS = {"--coeffs", "--a", "--b", "--c-magnitude", "--M0", "--B1"}


@pytest.mark.parametrize("command, options", [
    ("quadrature-check", _FAMILY_OPTIONS | {"--family", "--max-power"}),
    ("scenario", _FAMILY_OPTIONS | {"--a0", "--grid", "--svg"}),
    ("evolve", _FAMILY_OPTIONS | {
        "--config", "--family", "--a0", "--horizon", "--dt", "--output-times",
        "--csv", "--svg", "--json-path"}),
    # the finite-difference step is read off the map, so there is none to set
    ("jacobian", {"--coeffs", "--degree"}),
])
def test_cli_help_option_set(command, options, capsys):
    assert main([command, "--help"]) == 0
    shown = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert shown == options | {"--help"}


@pytest.mark.parametrize("argv", [
    ["scenario", "polynomial", "--coeffs=-1,0.3"],
    ["evolve", "--family", "disk", "--output-times", "x"],
    ["moments", "--coeffs=-1,0.3"],
    ["bracket-check", "--coeffs=-1,0.3"],
    ["jacobian", "--coeffs=-1,0.3"],
    ["scenario", "subcase2", "--M0", "x", "--B1", "0.3"],
    ["moments", "--coeffs", "x"],
])
def test_cli_rejected_value_exits_2(argv, capsys):
    # a ValueError from a map constructor or from --output-times is a
    # configuration error, not a traceback
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["scenario", "subcase2", "--M0", "x", "--B1", "0.3"], "M0"),
    (["quadrature-check", "--family", "example_abc", "--a", "0.2", "--b", "y",
      "--c-magnitude", "1"], "b"),
    (["moments", "--coeffs", "x"], "coeffs"),
    (["jacobian", "--coeffs", "1,,x"], "coeffs"),
    (["evolve", "--family", "disk", "--output-times", "x"], "output_times"),
    (["evolve", "--family", "disk", "--dt", "1e-3x"], "dt"),
    (["evolve", "--config", "family = disk\ndiagnostic_moments = 4.5"],
     "diagnostic_moments"),
])
def test_cli_bad_value_names_its_key(argv, key, capsys):
    # config lines and flags share one parser per key, and one message
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: bad value for '{key}': ")


# (key, text) pairs given once as flags and once as config lines
_SPEC_INPUTS = [
    [("family", "subcase2"), ("M0", "1.0"), ("B1", "0.28111 + 0.1j"),
     ("horizon", "0.05"), ("dt", "0.001"), ("output_times", "0.01, 0.05"),
     ("csv", "r.csv"), ("svg", "r.svg"), ("json", "r.json")],
    [("family", "polynomial"), ("coeffs", "1, 0.2-0.1j, 0.05"), ("horizon", "0.002")],
    [("family", "disk"), ("a0", "1.5"), ("output_times", "0")],
]


@pytest.mark.parametrize("pairs", _SPEC_INPUTS)
def test_cli_evolve_flags_and_config_build_equal_specs(pairs, monkeypatch):
    specs = []

    def capture(spec):
        specs.append(spec)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "run_evolution", capture)
    # the flag of key_name is --key-name, of json --json-path
    flags = [arg for key, text in pairs for arg in (
        "--json-path" if key == "json" else "--" + key.replace("_", "-"), text)]
    config = "\n".join(f"{key} = {text}" for key, text in pairs)
    assert main(["evolve", *flags]) == 2
    assert main(["evolve", "--config", config]) == 2
    assert specs[0] == specs[1] == parse_config(config)
    assert specs[0].family == pairs[0][1]


@pytest.mark.parametrize("flags", [
    ["--horizon", "0.01", "--dt", "0.001"],
    ["--family", "disk"],
    ["--a0", "2", "--svg", "r.svg"],
    ["--output-times", "0.002", "--json-path", "r.json"],
])
def test_cli_evolve_config_rejects_other_scenario_flags(flags, capsys):
    # the flags used to be dropped without a word: the run took the config's
    # horizon 0 and exited 0
    assert main(["evolve", "--config", "family = disk", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --config takes no other scenario flags, got ")
    assert all(flag in err for flag in flags[::2])


def test_cli_evolve_report_names_diagnostic_moments(tmp_path):
    rp = tmp_path / "run.json"
    cfg = f"family = disk\nhorizon = 0.002\ndiagnostic_moments = 6\njson = {rp}"
    assert main(["evolve", "--config", cfg]) == 0
    assert json.loads(rp.read_text())["spec"]["scenario"]["diagnostic_moments"] == 6


_GRID_RULE = "grid size must be a power of two >= 4, got 100"


@pytest.mark.parametrize("argv, message", [
    (["bracket-check", "--coeffs", "1,0.3", "--grid", "100"],
     f"config error: grid_n: {_GRID_RULE}"),
    (["scenario", "disk", "--grid", "100"], f"config error: grid_n: {_GRID_RULE}"),
    (["moments", "--coeffs", "1,0.3", "--K", "-1"],
     "argument --K: must be nonnegative, got -1"),
    # without the check, z^0..z^-1 is no test at all: "0/0 checks passed"
    (["quadrature-check", "--coeffs", "1,0.3", "--max-power", "-1"],
     "argument --max-power: must be nonnegative, got -1"),
    # a power of two, but below the FFT grid's floor of 4
    (["bracket-check", "--coeffs", "1,0.3", "--grid", "2"],
     "config error: grid_n: grid size must be a power of two >= 4, got 2"),
    # --threshold inf passed string_residual whatever the residual
    *([["bracket-check", "--coeffs", "1,0.4999999", "--threshold", bad],
       f"argument --threshold: must be positive and finite, got {bad}"]
      for bad in ("inf", "nan", "0", "-0.5")),
    # round(t / dt) used to raise a bare OverflowError (inf) or ValueError (nan)
    *([["evolve", "--family", "disk", "--horizon", "0.01", "--output-times", bad],
       f"config error: output times must be finite, got {bad}"]
      for bad in ("inf", "nan")),
    (["evolve", "--family", "disk", "--horizon", "0.01", "--output-times", "0.005,-inf"],
     "config error: output times must be finite, got -inf"),
    # t / dt overflows to inf, and round() of it failed the run (exit 1)
    (["evolve", "--family", "disk", "--horizon", "1e300", "--dt", "1e-10"],
     "config error: horizon = 1e+300 over dt = 1e-10 is not a finite step count"),
    (["evolve", "--family", "disk", "--horizon", "0.01", "--dt", "1e-10",
      "--output-times", "1e300"],
     "config error: output time = 1e+300 over dt = 1e-10 is not a finite step count"),
    # the initial series of this map fails its tail-energy gate (exit 1),
    # which used to be reported before the config error
    (["evolve", "--family", "subcase1", "--M0", "2", "--B1", "0.5", "--horizon", "0.0015"],
     "config error: horizon = 0.0015 is not a multiple of dt = 0.001"),
    # used to be reported as a count mismatch: "--degree -5 expects -4 coefficients"
    (["jacobian", "--coeffs", "1,0.3", "--degree", "-5"],
     "argument --degree: must be nonnegative, got -5"),
])
def test_cli_out_of_range_option_exits_2(argv, message, capsys):
    # a usage or config error naming the rule, not a traceback or a run
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("horizon, dt, steps", [
    ("0.01", "1e-310", "1e+308"),
    ("0.002", "1e-12", "2e+09"),
])
def test_cli_evolve_step_cap_exits_2_within_seconds(horizon, dt, steps):
    # both used to start an RK4 loop of that many steps that never returned;
    # a child process, so a regression fails on the timeout instead of hanging
    src = os.path.dirname(os.path.dirname(heleshaw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "heleshaw.cli", "evolve", "--family", "disk",
         "--horizon", horizon, "--dt", dt],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr == (f"config error: horizon = {horizon} over dt = {dt} is "
                           f"{steps} steps, above the cap 10000000\n")


@pytest.mark.parametrize("line, message", [
    ("grid_n = 100", "grid_n: grid size must be a power of two >= 4, got 100"),
    ("taylor_order = 0", "taylor_order must be positive, got 0"),
    ("dt = nan", "dt must be positive and finite, got nan"),
    ("horizon = inf", "horizon must be finite and >= 0, got inf"),
    # a snapshot time before t = 0 would never be written
    ("output_times = -0.001", "output time outside [0, horizon]"),
    ("output_times = inf", "output times must be finite, got inf"),
    ("output_times = 0.01, nan", "output times must be finite, got nan"),
    # used to run silently with one diagnostic moment
    ("diagnostic_moments = -3", "diagnostic_moments must be positive, got -3"),
    ("diagnostic_moments = 0", "diagnostic_moments must be positive, got 0"),
    ("dt = 1e-10\nhorizon = 1e300",
     "horizon = 1e+300 over dt = 1e-10 is not a finite step count"),
    ("dt = 1e-10\nhorizon = 0.01\noutput_times = 0, 1e300",
     "output time = 1e+300 over dt = 1e-10 is not a finite step count"),
])
def test_cli_out_of_range_config_exits_2(tmp_path, line, message, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"family = subcase2\nM0 = 1.0\nB1 = 0.28111\n{line}\n")
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_jacobian_n32_far_from_unit_a0(capsys):
    # det(V U) ~ 2^1153 is outside the double range; the identity is still
    # checked and printed in mantissa-exponent form
    coeffs = ",".join(["2"] + ["0.001"] * 32)
    code = main(["--json", "jacobian", "--coeffs", coeffs])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 0
    assert {c["name"]: c["status"] for c in checks} == {
        "jacobian_identity": "pass", "det_v_closed_form": "pass",
        "det_u_resultant_form": "pass", "det_u_sylvester_form": "pass",
        "jacobian_finite_difference": "pass"}
    main(["jacobian", "--coeffs", coeffs])
    assert re.search(r"det\(V U\) += \([^)]+\)e\+3\d\d\n", capsys.readouterr().out)


def test_cli_jacobian_finite_difference_bound_is_relative(capsys):
    # seeded n = 32 map with a0 = 2: max |V U| ~ 8.6e9 and the finite
    # differences miss by 0.06, a relative error of about 7e-12
    rng = np.random.default_rng(3)
    j = np.arange(1, 33)
    mag = 0.6 / (j + 1) ** 2 * rng.uniform(0.0, 1.0, 32)
    a = np.concatenate([[2.0], mag * np.exp(2j * np.pi * rng.uniform(size=32))])
    coeffs = ",".join(str(complex(c)).strip("()") for c in a)
    code = main(["--json", "jacobian", "--coeffs", coeffs])
    fd = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    fd = fd["jacobian_finite_difference"]
    assert code == 0
    assert fd["status"] == "pass"
    assert 1e-2 < fd["residual"] < fd["threshold"]
    assert 1e3 < fd["threshold"] < 1e4  # 1e-6 max |V U|


def test_cli_jacobian_finite_difference_bound_is_relative_below_unit_scale(capsys):
    # the threshold is 1e-6 max |V U| = 1e-6 * 2 a0 = 1e-6 at a0 = 0.5
    main(["--json", "jacobian", "--coeffs", "0.5,0.05"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    fd = next(c for c in checks if c["name"] == "jacobian_finite_difference")
    assert fd["threshold"] == 1e-6


@pytest.mark.parametrize("e", [-332, -200, -100, -20, 20, 100, 200])
def test_cli_jacobian_passes_at_every_scale(e, capsys):
    # f -> 2^e f scales every coefficient, V U entry and finite-difference
    # step exactly; a fixed step of 1e-5 failed the finite differences for
    # |e| >= 100, too large for the map below and lost to rounding above.
    # The probe step is the coordinate step over sqrt(2n+1), n = 3
    coeffs = ",".join(repr(math.ldexp(c, e)) for c in (1.0, 0.3, 0.1, 0.02))
    code = main(["--json", "jacobian", "--coeffs", coeffs])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 5
    assert code == 0
    fd = checks[-1]
    assert fd["name"] == "jacobian_finite_difference"
    assert fd["step"] == math.ldexp(1e-5, e) / math.sqrt(7)
    assert fd["probes"] == 3


def test_cli_jacobian_finite_difference_fails_when_off_at_small_scale(monkeypatch, capsys):
    # a0 = 1e-100: the bound is relative to V U (below 1e-104), so finite
    # differences off by a relative 1e-4 fail, where an absolute floor
    # would pass them
    real = bracket.finite_difference_jacobian
    monkeypatch.setattr(bracket, "finite_difference_jacobian",
                        lambda m, step, directions=None:
                        real(m, step, directions) * (1.0 + 1e-4))
    code = main(["--json", "jacobian", "--coeffs=1e-100,3e-101,1e-101,2e-102"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    fd = next(c for c in checks if c["name"] == "jacobian_finite_difference")
    assert code == 1
    assert fd["status"] == "fail"
    assert fd["threshold"] < 1e-104


def test_cli_evolve_degenerate_initial_map_exits_1(capsys):
    # run_evolution raises at the initial map; the CLI reports it in "run"
    code = main(["--json", "evolve", "--family", "polynomial", "--coeffs", "1,0.5",
                 "--horizon", "0.01", "--dt", "0.001"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    (check,) = payload["checks"]
    assert check["name"] == "run" and check["status"] == "fail"
    assert check["error"].startswith("DegenerateResultantError: ")


#: evolve subcase 2 at |B1|/sqrt(M0) = 0.5 to t = 0.01, by flags
_FOUND_FLAGS = ["evolve", "--family", "subcase2", "--M0", "1", "--B1", "0.5",
                "--horizon", "0.01", "--output-times", "0.01"]


@pytest.mark.parametrize("order, code, residual", [
    (64, 1, 3.065235905097552e-07),
    (128, 0, 1.509903313490213e-14),
])
def test_cli_evolve_series_order_must_resolve_the_velocity(order, code, residual,
                                                           tmp_path, capsys):
    # the order-64 series passes the tail gate (tail energy 1.8e-14 at
    # t = 0) but not the string residual: the gate reads f, and the
    # velocity z f' P decays more slowly (its own tail energy, 8.2e-12, is
    # under the gate too).  Order 128, set in a config file, resolves it.
    # Every check and residual is pinned bit for bit
    if order == 64:
        argv = _FOUND_FLAGS
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = subcase2\nM0 = 1\nB1 = 0.5\nhorizon = 0.01\n"
                       "output_times = 0.01\ntaylor_order = 128\n")
        argv = ["evolve", "--config", str(cfg)]
    assert main(["--json", *argv]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["scenario"]["taylor_order"] == order
    checks = {c["name"]: (c["status"], c["residual"]) for c in payload["checks"]}
    assert checks == {
        "completed": ("pass", None),
        "moment_conservation": ("pass", 7.108893781397525e-15 if order == 64
                                else 2.220446049250313e-16),
        "branch_fixed": ("pass", 1.1102230246251565e-16),
        "string_residual": ("fail" if code else "pass", residual),
    }


def test_cli_config_validation_error(tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("family = subcase2\nM0 = 1.0\nB1 = 3.0\n")
    assert main(["evolve", "--config", str(cfg)]) == 2


def test_cli_evolve_writes_artifacts(tmp_path):
    cfg = tmp_path / "cfg.txt"
    csv = tmp_path / "run.csv"
    svg = tmp_path / "run.svg"
    rp = tmp_path / "run.json"
    cfg.write_text(
        f"family = disk\nhorizon = 0.01\ndt = 0.001\noutput_times = 0.01\n"
        f"csv = {csv}\nsvg = {svg}\njson = {rp}\n"
    )
    assert main(["evolve", "--config", str(cfg)]) == 0
    assert csv.exists() and svg.exists() and rp.exists()
    payload = json.loads(rp.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["timing"] is None


def test_cli_determinism_byte_identical(tmp_path, monkeypatch):
    # identical config contents must give byte-identical CSV and JSON
    outs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        monkeypatch.chdir(d)
        cfg = d / "cfg.txt"
        cfg.write_text(
            "family = polynomial\ncoeffs = 1.0, 0.3\nhorizon = 0.02\n"
            "dt = 0.001\noutput_times = 0.01, 0.02\ncsv = run.csv\njson = run.json\n"
        )
        assert main(["evolve", "--config", "cfg.txt"]) == 0
        outs.append(((d / "run.csv").read_bytes(), (d / "run.json").read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


@pytest.mark.parametrize("argv", [
    ["subcase2", "--M0=1e308", "--B1=1e-300"],
    ["example_abc", "--a=1e-12", "--b=1e308", "--c-magnitude=0.999"],
    ["subcase2", "--M0=1e-300", "--B1=1e-160"],
    # q underflows to 0; the inversion used to turn it into nan and report
    # "got |a|=nan"
    ["subcase1", "--M0=1e308", "--B1=1e-300"],
])
def test_cli_family_constructor_overflow_exits_2(argv, capsys):
    # the constructor overflows or divides by zero: a config error naming
    # the family, where a bare OverflowError or ZeroDivisionError escaped
    assert main(["scenario", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: family '{argv[0]}': parameters outside "
                          "the floating-point range: ")


# the text of a family parameter: ordinary, zero, negative, tiny, huge,
# nan, inf and malformed values
_VALUE_TEXT = st.sampled_from([
    "0.3", "1.6", "0.2+0.1j", "1", "0", "-0", "-1", "-0.4j", "1e-300", "-1e-300",
    "1e-160", "1e308", "-1e308", "1e308j", "nan", "-nan", "inf", "-inf", "nanj",
    "x", "", "1..2", "1e", "j", "(1)",
])


@st.composite
def _family_argv(draw):
    """``scenario`` or ``quadrature-check`` argv with drawn parameter text."""
    command = draw(st.sampled_from(["scenario", "quadrature-check"]))
    if command == "scenario":
        family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
        argv = [command, family]
    else:
        family = draw(st.sampled_from(["polynomial", "example_abc", "subcase1", "subcase2"]))
        argv = [command] + ([] if family == "polynomial" else ["--family", family])
    required, optional = FAMILY_PARAMS[family]
    for key in required + tuple(k for k in optional if draw(st.booleans())):
        if key == "coeffs":
            text = ",".join(draw(st.lists(_VALUE_TEXT, min_size=1, max_size=4)))
        else:
            text = draw(_VALUE_TEXT)
        argv.append(f"--{key.replace('_', '-')}={text}")
    return argv


def _assert_exit_contract(argv):
    """main(argv) ends in 0, 1 or 2 without a traceback, and in 1 exactly
    when its --json report has a failed check."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json", *argv])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code != 2:
        checks = json.loads(out.getvalue())["checks"]
        assert code == any(c["status"] == "fail" for c in checks), argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200)
@given(argv=_family_argv())
def test_cli_family_parameters_keep_the_exit_contract(argv):
    # 200 derandomized draws, a few seconds: whatever the parameter text,
    # the command ends in 0, 1 or 2, no exception escapes main, and exit 1
    # comes with a failed check in the report; numpy warnings are errors
    # here, so an overflow that only warns fails too
    _assert_exit_contract(argv)


@pytest.mark.parametrize("key", ["csv", "svg", "json"])
def test_cli_evolve_unwritable_artifact_path_exits_2(key, tmp_path, capsys):
    # open() of a path in a missing directory used to escape main as a
    # FileNotFoundError traceback
    bad = tmp_path / "missing" / f"run.{key}"
    assert main(["evolve", "--config", f"family = disk\n{key} = {bad}"]) == 2
    assert capsys.readouterr().err.startswith("config error: [Errno 2] ")


def test_cli_config_path_naming_a_directory_exits_2(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


# abnormal text of the spec keys: zero, negative, tiny, huge, nan, inf and
# malformed values; ordinary integers stay small, as a grid of 2**30 nodes
# is a valid but huge run
_FLOAT_TEXT = ["0", "-0.001", "1e-300", "1e308", "nan", "inf", "x", ""]
_INT_TEXT = ["4", "100", "0", "-4", "1e-300", "1e308", "nan", "inf", "x", ""]
_ABNORMAL_TEXT = {
    "family": st.sampled_from(["x", "", "Disk"]),
    "dt": st.sampled_from(_FLOAT_TEXT),
    "output_times": st.lists(st.sampled_from(_FLOAT_TEXT + ["0.001"]),
                             min_size=1, max_size=3).map(", ".join),
    "grid_n": st.sampled_from(_INT_TEXT),
    "taylor_order": st.sampled_from(_INT_TEXT),
    "diagnostic_moments": st.sampled_from(_INT_TEXT),
    "coeffs": st.lists(_VALUE_TEXT, min_size=1, max_size=4).map(",".join),
    # relative to a scratch directory: empty, a directory, a missing directory
    "csv": st.sampled_from(["", ".", "missing/run.csv"]),
    "svg": st.sampled_from(["", ".", "missing/run.svg"]),
    "json": st.sampled_from(["", ".", "missing/run.json"]),
}
#: ordinary text of every key but the horizon; the family parameters make
#: an admissible map of each family
_ORDINARY_TEXT = {
    "dt": "0.001", "output_times": "0.001", "grid_n": "256", "taylor_order": "64",
    "diagnostic_moments": "4", "csv": "run.csv", "svg": "run.svg", "json": "run.json",
    "a0": "0.8", "coeffs": "1, 0.2-0.1j", "a": "0.4", "b": "2", "c_magnitude": "1",
    "M0": "1", "B1": "0.3",
}


@st.composite
def _evolve_config(draw, root):
    """``evolve`` config text for a drawn family: up to two keys of
    ``cli._KEYS`` take abnormal text, the others ordinary text or none.  The
    horizon is k dt with k <= 3, so a run takes at most three steps."""
    family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
    required, optional = FAMILY_PARAMS[family]
    foreign = [k for k in ("a0", "coeffs", "a", "b", "c_magnitude", "M0", "B1")
               if k not in required + optional]
    spec_keys = ["dt", "output_times", "grid_n", "taylor_order", "diagnostic_moments",
                 "csv", "svg", "json"]
    bad = draw(st.sets(st.sampled_from(["family", *required, *optional, *spec_keys,
                                        *foreign]), max_size=2))
    lines = {"family": family}
    for key in ["family", *required, *optional, *spec_keys, *foreign]:
        if key in bad:
            lines[key] = draw(_ABNORMAL_TEXT.get(key, _VALUE_TEXT))
        elif key in required or (key in _ORDINARY_TEXT and key not in foreign
                                 and draw(st.booleans())):
            lines[key] = _ORDINARY_TEXT[key]
        if key in ("csv", "svg", "json") and key in lines:
            lines[key] = f"{root}/{lines[key]}" if lines[key] else ""
    try:
        dt = float(lines.get("dt", "0.001"))
    except ValueError:
        dt = math.nan
    if 0.0 < dt < math.inf:
        lines["horizon"] = repr(draw(st.integers(0, 3)) * dt)
    return "\n".join(f"{key} = {text}" for key, text in lines.items())


_NUMBER_FLAG_TEXT = ("1e-08", "0.5", "0", "-1", "1e-300", "1e308", "nan", "inf", "x", "")
_COUNT_FLAG_TEXT = ("1", "3", "0", "-1", "1e-300", "1e308", "nan", "inf", "x", "")


@st.composite
def _option_argv(draw):
    """argv of the subcommands other than ``evolve`` with drawn option text."""
    options = {
        "moments": {"--K": _COUNT_FLAG_TEXT},
        "bracket-check": {"--threshold": _NUMBER_FLAG_TEXT,
                          "--grid": ("64", "100") + _COUNT_FLAG_TEXT},
        "jacobian": {"--degree": _COUNT_FLAG_TEXT},
        "quadrature-check": {"--max-power": _COUNT_FLAG_TEXT},
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = [command, "--coeffs=" + draw(st.sampled_from(["1,0.3", "1,0.2-0.1j,0.05", "1"]))]
    for flag, text in options[command].items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(text))}")
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150)
@given(data=st.data())
def test_cli_evolve_config_keeps_the_exit_contract(data):
    # 150 derandomized draws of config text over every key; the horizon is
    # at most three steps of the drawn dt, since a fuzzed dt = 1e-12 could
    # otherwise ask for up to the 10**7 steps the cap lets through
    with tempfile.TemporaryDirectory() as root:
        config = data.draw(_evolve_config(root))
        _assert_exit_contract(["evolve", "--config", config])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=120)
@given(argv=_option_argv())
def test_cli_options_keep_the_exit_contract(argv):
    # 120 derandomized draws of the options of moments, bracket-check,
    # jacobian and quadrature-check
    _assert_exit_contract(argv)

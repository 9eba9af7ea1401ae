"""The public surface resolves: every exported name and every layer function
the benchmark tracer wraps still exists, the CLI reports every check the
benchmark's gate requires, its config keys cover the scenario spec, and the
gates are read from ``heleshaw.config.DEFAULT`` rather than passed as
parameters."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import heleshaw
from heleshaw import cli
from heleshaw.cli import main
from heleshaw.config import Tolerances
from heleshaw.scenarios import FAMILY_PARAMS, ScenarioSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(heleshaw.__file__).resolve().parent
MODULES = [importlib.import_module(f"heleshaw.{info.name}")
           for info in pkgutil.iter_modules(heleshaw.__path__)]


def test_all_names_resolve():
    for module in [heleshaw, *MODULES]:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names missing: {missing}"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        _, _, fn = tracing._resolve(target)
        assert callable(fn), target


def test_cli_reports_the_checks_the_benchmark_requires(monkeypatch, capsys):
    # the benchmark's gate fails an op whose report lacks a named check
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    coeffs = "--coeffs=1,0.1+0.05j,0.02j"
    calls = [
        (["moments", coeffs], workloads.MOMENTS_CHECKS),
        (["jacobian", coeffs], workloads.JACOBIAN_CHECKS),
        (["bracket-check", coeffs], workloads.BRACKET_CHECKS),
        (["scenario", "subcase2", "--M0=1.0", "--B1=0.28111"],
         workloads.SCENARIO_CHECKS["subcase2"]),
        (["scenario", "example_abc", "--a=0.2", "--b=1.6", "--c-magnitude=1.0"],
         workloads.SCENARIO_CHECKS["example_abc"]),
    ]
    for argv, required in calls:
        assert main(["--json", *argv]) == 0, argv
        reported = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert set(required) <= reported, argv


def test_config_keys_cover_the_spec():
    # one key table is the schema of config lines and flags: every spec field
    # has a key, every key names a field or a family parameter, and the run
    # report carries every field but the built map and the artifact paths
    fields = [f.name for f in dataclasses.fields(ScenarioSpec)]
    inputs = {f.name for f in dataclasses.fields(ScenarioSpec) if f.init} - {"params"}
    named = {cli._SPEC_FIELDS.get(key, key) for key in cli._KEYS}
    params = {k for keys in FAMILY_PARAMS.values() for group in keys for k in group}
    assert inputs <= named
    assert named - inputs == params
    reported = set(cli._spec_dict(ScenarioSpec(family="disk")))
    assert reported == set(fields) - {"initial", "csv_path", "svg_path", "json_path"}


def _public_functions():
    """Every function and method reachable from a module's ``__all__``."""
    for module in [heleshaw, *MODULES]:
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for klass in obj.__mro__:
                    if klass.__module__.startswith("heleshaw"):
                        for attr, member in vars(klass).items():
                            member = getattr(member, "__func__", member)
                            if inspect.isfunction(member):
                                yield f"{klass.__name__}.{attr}", member
            elif inspect.isfunction(obj):
                yield name, obj


def test_gates_are_not_parameters():
    with_tol = sorted({name for name, fn in _public_functions()
                       if "tol" in inspect.signature(fn).parameters})
    assert not with_tol, f"functions taking a tol parameter: {with_tol}"
    assert "tolerances" not in {f.name for f in dataclasses.fields(ScenarioSpec)}


def test_every_tolerance_is_read_by_a_gate():
    source = "".join(p.read_text() for p in SRC.glob("*.py"))
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if f"DEFAULT.{f.name}" not in source]
    assert not unread, f"Tolerances fields no gate reads: {unread}"

"""The public surface resolves: every exported name and every layer function
the benchmark tracer wraps still exists."""

import importlib
import pkgutil
from pathlib import Path

import heleshaw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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

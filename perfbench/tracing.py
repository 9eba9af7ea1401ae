"""Outside-in tracing of heleshaw's layers.

Each target function is wrapped, and every name that refers to it in a
``heleshaw.*`` module namespace is rebound to the wrapper.  Rebinding every
name matters: ``evolution`` and ``cli`` import functions by name, and
``maps`` looks ``polynomial_roots`` up as a module global, so patching the
defining module alone would miss most calls.  Methods are rebound on their
class.

A span (name, start, end, parent span, op id) is kept in memory for every
call.  Self time is a span's duration minus the durations of its direct
child spans.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# Layer functions, as "<module>.<qualified name>" under the heleshaw package.
TARGETS = (
    "rational.pval",
    "rational.RationalFunction.residue",
    "maps.polynomial_roots",
    "moments.richardson_moment",
    "moments.moments_richardson",
    "moments.moments_residue",
    "moments.moments_area_oracle",
    "moments.quadrature_check",
    "bracket.bracket_matrix",
    "bracket.solve_string_system",
    "bracket.derivative_reflection_resultant",
    "bracket.bracket_samples",
    "bracket.finite_difference_jacobian",
    "bracket.jacobian_identity_report",
    "evolution.run_evolution",
    "evolution.step_taylor_fixed_branch",
    "evolution.step_polynomial",
    "evolution.poisson_schwarz",
    "evolution.branch_points",
    "scenarios.initial_map",
    "scenarios.verify_scenario",
    "reports.export_trajectory",
    "reports.render_boundary_svg",
    "cli.parse_config",
)


def _horner_ops(args, kwargs) -> int:
    """len(p) * z.size for pval(p, z)."""
    p = args[0] if args else kwargs["p"]
    z = args[1] if len(args) > 1 else kwargs["z"]
    return np.size(p) * np.size(z)


def _degree(args, kwargs) -> int:
    """Degree of the polynomial passed to polynomial_roots, trailing zeros trimmed."""
    nz = np.flatnonzero(np.asarray(args[0]))
    return int(nz[-1]) if nz.size else 0


# Work counters: target -> (counter name, amount per call).
COUNTERS = {
    "rational.pval": ("rational.pval.horner_ops", _horner_ops),
    "maps.polynomial_roots": ("maps.polynomial_roots.degree_sum", _degree),
    "evolution.poisson_schwarz": ("evolution.rhs_evals", lambda args, kwargs: 1),
}


def _resolve(target: str):
    """(owner, attribute, original function) for a target name."""
    module, _, qual = target.partition(".")
    owner = sys.modules[f"heleshaw.{module}"]
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and work counts for the target functions while installed."""

    def __init__(self):
        self.targets = TARGETS
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self.op_ids = array("i")
        self.failed = [0] * len(self.targets)
        self.work = {name: 0 for name, _ in COUNTERS.values()}
        self.op_id = -1
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, index: int, fn):
        counter = COUNTERS.get(self.targets[index])
        starts, ends, names = self.starts, self.ends, self.names
        parents, op_ids, stack = self.parents, self.op_ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[index] += 1
                raise
            finally:
                ends[span] = perf_counter()
                stack.pop()
                if counter is not None:
                    self.work[counter[0]] += counter[1](args, kwargs)

        return traced

    def install(self) -> None:
        """Rebind every reference to each target in the heleshaw namespaces."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "heleshaw" or name.startswith("heleshaw.")]
        for index, target in enumerate(self.targets):
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(index, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._undo.append((holder, name, original))
            if not any(u[2] is original for u in self._undo):
                raise RuntimeError(f"no reference to {target} found")

    def uninstall(self) -> None:
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    def self_times(self) -> np.ndarray:
        """Total self seconds per target, in ``targets`` order."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int32)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        names = np.array(self.names, dtype=np.int32)
        return np.bincount(names, weights=dur - child, minlength=len(self.targets))

    def calls(self) -> np.ndarray:
        names = np.array(self.names, dtype=np.int32)
        return np.bincount(names, minlength=len(self.targets))

    def save(self, path: str) -> None:
        """Write the spans, with times relative to the first span."""
        starts = np.array(self.starts)
        t0 = starts[0] if starts.size else 0.0
        np.savez_compressed(
            path,
            targets=np.asarray(self.targets),
            name=np.array(self.names, dtype=np.int32),
            start=starts - t0,
            end=np.array(self.ends) - t0,
            parent=np.array(self.parents, dtype=np.int32),
            op=np.array(self.op_ids, dtype=np.int32),
        )

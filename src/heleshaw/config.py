"""The gates at which the solvers raise a typed error.

Each field of :class:`Tolerances` names one gate of the solvers, steppers
and root finders.  Every gate reads its threshold from :data:`DEFAULT`
where the check is made, as ``DEFAULT.<field>``; no function takes a
tolerance argument.  A test that needs another threshold substitutes the
module's ``DEFAULT`` (``monkeypatch.setattr(maps, "DEFAULT", ...)``).  The
bounds of reported checks sit next to the checks instead.  The values are
the ones the test suite is written against.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default numerical thresholds, one field per gate.  A step needs no
    normalization gate: both steppers keep Im a0 exactly 0."""

    #: |remainder| below this (relative to coefficient scale) counts as a root
    root_residual: float = 1e-10
    #: winding-number rounding residual above this aborts (under-resolution)
    winding_residual_max: float = 0.1
    #: zeros of f' closer than this to the unit circle are rejected
    branch_boundary_margin: float = 1e-6
    #: |f''| below this at a zero of f' counts as a multiple zero
    branch_simple_min: float = 1e-8
    #: the string system is singular when its Frobenius condition number
    #: |W|_F |W^-1|_F exceeds 1 / singular_ratio (an upper bound on
    #: sigma_max / sigma_min, so at least as strict as the singular values)
    singular_ratio: float = 1e-10
    #: relative tail energy of a truncated power series above this aborts
    tail_energy: float = 1e-10
    #: minimum |f'| on the unit circle (cusp detection)
    cusp_min_derivative: float = 1e-6
    #: residual above which an "exactly cancelled" pole counts as uncancelled
    pole_cancel: float = 1e-8


DEFAULT = Tolerances()

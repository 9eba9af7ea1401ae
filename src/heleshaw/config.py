"""The gates at which the solvers raise a typed error.

Solvers, steppers and root finders take these thresholds from one
:class:`Tolerances` record, so a scenario can tighten or loosen them in one
place.  The bounds of reported checks sit next to the checks instead.  The
defaults are the values the test suite is written against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Default numerical thresholds used across the package."""

    #: minimum distance from an evaluation point to a pole of a rational map
    pole_proximity: float = 1e-9
    #: |remainder| below this (relative to coefficient scale) counts as a root
    root_residual: float = 1e-10
    #: winding-number rounding residual above this aborts (under-resolution)
    winding_residual_max: float = 0.1
    #: zeros of f' closer than this to the unit circle are rejected
    branch_boundary_margin: float = 1e-6
    #: |f''| below this at a zero of f' counts as a multiple zero
    branch_simple_min: float = 1e-8
    #: smallest/largest singular value ratio below which a system is singular
    singular_ratio: float = 1e-10
    #: |Im a0| above this after a step aborts; below it is zeroed
    normalization_drift: float = 1e-13
    #: relative tail energy of a truncated power series above this aborts
    tail_energy: float = 1e-10
    #: minimum |f'| on the unit circle (cusp detection)
    cusp_min_derivative: float = 1e-6
    #: residual above which an "exactly cancelled" pole counts as uncancelled
    pole_cancel: float = 1e-8

    def override(self, **kwargs) -> "Tolerances":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT = Tolerances()

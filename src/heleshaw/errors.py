"""Exception types.

All failures that carry mathematical meaning (degeneracies, cusps, bad
parameters) raise a dedicated subclass of :class:`HeleShawError` so callers
and the evolution driver can react to each condition by type.
"""


class HeleShawError(Exception):
    """Base class for all package errors."""


class PoleProximityError(HeleShawError):
    """Evaluation point is within tolerance of a pole."""


class ResidueError(HeleShawError):
    """Residue computation failed (no simple pole, pole on the unit circle)."""


class RootFindingError(HeleShawError):
    """Root finder got degenerate input (zero leading coefficient, degree 0)."""


class UnderResolvedError(HeleShawError):
    """Winding-number rounding residual exceeded its bound."""


class DegenerateResultantError(HeleShawError):
    """Res(f', f'*) ~ 0: the coefficient-velocity system is singular."""


class NormalizationError(HeleShawError):
    """Map normalization f(0)=0, f'(0)>0 violated beyond rounding."""


class CuspError(HeleShawError):
    """|f'| dropped below tolerance on the unit circle."""


class BranchPointError(HeleShawError):
    """Branch-point structure invalid (multiple zero, zero near/outside circle)."""


class TruncationError(HeleShawError):
    """Truncated power series carries too much energy in its tail."""


class UncancelledPoleError(HeleShawError):
    """f* f' has an uncancelled pole in the punctured disk; the map is not a
    one-point quadrature map."""


class QuadratureError(HeleShawError):
    """The poles of f need more angular nodes than a disk grid may have, the
    quadrature identity's c_0 is not real positive, or a computed M_0 is not
    real."""


class ConfigError(HeleShawError):
    """Scenario configuration is malformed or violates a precondition."""

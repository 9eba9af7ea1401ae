"""Scenario families: exact constructors, inversion formulas, verification.

The rational family f(z) = c z (z - a)/(z - b) with a != 0, |b| > 1 and
f'(0) = a c / b > 0 carries the two-node quadrature identity

    (1/2 pi i) int_D g |f'|^2 = A g(0) + B g(1/conj(b)),

    A = |c|^2 a / b,
    B = |c|^2 (conj(a) - conj(b)) (1 - 2|b|^2 + a conj(b) |b|^2)
        / (conj(b) (1 - |b|^2)^2),

with moments M_0 = A + B and M_k = B f(1/conj(b))^k in geometric progression.
The example_abc family takes 0 < |a| < 1; no formula here reads |a|.
Two degenerations with M_1 = M_2 = ... = 0 serve as closed-form oracles:

* subcase 1, a = 1/conj(b): equal weights A = B = |c|^2/|b|^2, the image is
  the disk of radius sqrt(M_0/2) covered twice, and the branch point
  B_1 = f(omega_1) supplies the missing coordinate:
      B_1 = b |b| sqrt(M_0/2) (1 - sqrt(1 - 1/|b|^2))^2.
* subcase 2, omega_1 = 1/conj(b): the second node loses its weight and a
  genuine one-node identity holds on the covering surface with
      f(z) = C z (2|w|^2 - |w|^4 - conj(w) z) / (1 - conj(w) z),
      C = sqrt(M_0) / (|w| sqrt(2 - |w|^2)),       w = omega_1,
      B_1 = w |w| sqrt(M_0) / sqrt(2 - |w|^2),  |B_1| < sqrt(M_0),
  the family's map with b = 1/conj(w), a = (2|w|^2 - |w|^4)/conj(w) and
  c = C; |a| > 1 once |w| > 0.618.

Both subcases invert in closed form: (M_0, B_1) determine the map.  In
subcase 1 the branch-point equation reads (1 - s)/(1 + s) = q with
s = sqrt(1 - 1/|b|^2) and q = |B_1| sqrt(2/M_0) < 1, which solves exactly to
    |b| = (sqrt(q) + 1/sqrt(q))/2.
In subcase 2
    omega_1 = (B_1/|B_1|) sqrt(-|B_1|^2/(2 M_0)
              + sqrt(|B_1|^4/(4 M_0^2) + 2 |B_1|^2/M_0)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UncancelledPoleError
from .maps import (
    AbcRationalMap,
    AnalyticMap,
    CircleGrid,
    PolynomialMap,
    TaylorMap,
    winding_number,
)
from .moments import (
    QuadratureData,
    coeffs_to_moments,
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    quadrature_check,
    quadrature_coeffs,
)
from .reports import RunReport

__all__ = [
    "ScenarioSpec",
    "FAMILIES",
    "FAMILY_PARAMS",
    "make_example_abc",
    "make_subcase1",
    "subcase1_branch_value",
    "make_subcase2",
    "subcase2_from_omega",
    "initial_map",
    "verify_scenario",
]

#: each family's required and optional parameters
FAMILY_PARAMS = {
    "disk": ((), ("a0",)),
    "polynomial": (("coeffs",), ()),
    "example_abc": (("a", "b", "c_magnitude"), ()),
    "subcase1": (("M0", "B1"), ()),
    "subcase2": (("M0", "B1"), ()),
    "taylor": (("coeffs",), ()),
}
FAMILIES = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated run request: family, parameters, horizon, sinks."""

    family: str
    params: dict = field(default_factory=dict)
    horizon: float = 0.0
    dt: float = 1e-3
    output_times: tuple = ()
    grid_n: int = 1024
    taylor_order: int = 64
    diagnostic_moments: int = 4
    csv_path: str | None = None
    svg_path: str | None = None
    json_path: str | None = None
    #: the starting map from :func:`initial_map`, built once when the spec
    #: is made; its type is the evolution mode
    initial: AnalyticMap = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown family '{self.family}'; expected one of {FAMILIES}"
            )
        if not 0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.horizon < np.inf:
            raise ConfigError(f"horizon must be finite and >= 0, got {self.horizon}")
        for t in self.output_times:
            if not np.isfinite(t):
                raise ConfigError(f"output times must be finite, got {t}")
        for key in ("taylor_order", "diagnostic_moments"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        try:
            CircleGrid(self.grid_n)
        except ValueError as exc:
            raise ConfigError(f"grid_n: {exc}") from None
        object.__setattr__(self, "initial", initial_map(self))


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def make_example_abc(a, b, c_magnitude: float) -> AbcRationalMap:
    """Map of the two-node family; :func:`quadrature_data` gives its identity.

    The argument of c is fixed by the normalization a c / b > 0; only |c| is
    free.
    """
    a = complex(a)
    b = complex(b)
    if c_magnitude <= 0:
        raise ConfigError("c_magnitude must be positive")
    if not (0 < abs(a) < 1 < abs(b)):
        raise ConfigError(f"need 0 < |a| < 1 < |b|, got |a|={abs(a)}, |b|={abs(b)}")
    if max(abs(b), c_magnitude) > np.sqrt(np.finfo(float).max):  # squared by quadrature_data
        raise OverflowError(f"|b|^2 or |c|^2 overflows: |b|={abs(b)}, |c|={c_magnitude}")
    c = c_magnitude * np.exp(1j * (np.angle(b) - np.angle(a)))
    return AbcRationalMap(a, b, c)


def quadrature_data(m: AnalyticMap) -> QuadratureData:
    """The quadrature identity of a scenario map: one-point (from f* f')
    when every pole of f* is cancelled, as for polynomial maps and subcase
    2; otherwise m is a c z (z-a)/(z-b) map, whose weights A at the origin
    and B at the node 1/conj(b) come from the closed forms above."""
    try:
        return quadrature_coeffs(m)
    except UncancelledPoleError:
        pass
    a, b, c2 = m.a, m.b, abs(m.c) ** 2
    bb = np.conj(b)
    B = (
        c2
        * (np.conj(a) - bb)
        * (1.0 - 2.0 * abs(b) ** 2 + a * bb * abs(b) ** 2)
        / (bb * (1.0 - abs(b) ** 2) ** 2)
    )
    return QuadratureData(c=(complex(c2 * a / b),), nodes=((complex(1.0 / bb), complex(B)),))


def subcase1_branch_value(b, M0: float) -> complex:
    """B_1 = f(omega_1) of the subcase-1 map with the given b and M_0."""
    b = complex(b)
    s = np.sqrt(1.0 - 1.0 / abs(b) ** 2)
    return b * abs(b) * np.sqrt(M0 / 2.0) * (1.0 - s) ** 2


def make_subcase1(M0: float, B1) -> AbcRationalMap:
    """Invert (M_0, B_1) to the subcase-1 map (a = 1/conj(b), c > 0)."""
    B1 = complex(B1)
    if M0 <= 0:
        raise ConfigError("M0 must be positive")
    if B1 == 0:
        raise ConfigError("B1 must be nonzero")
    q = abs(B1) * np.sqrt(2.0 / M0)
    if not q < 1.0:
        raise ConfigError(
            f"no admissible b: need |B1| < sqrt(M0/2) = {np.sqrt(M0 / 2.0):.6g}, "
            f"got |B1| = {abs(B1):.6g}"
        )
    r = np.sqrt(q)
    beta = float(0.5 * (r + 1.0 / r))  # solves (1 - s)/(1 + s) = q exactly
    b = (B1 / abs(B1)) * beta
    c = beta * np.sqrt(M0 / 2.0)
    m = AbcRationalMap(1.0 / np.conj(b), b, c)
    back = subcase1_branch_value(b, M0)
    if abs(back - B1) > 1e-10 * max(abs(B1), 1.0):
        raise ConfigError(f"subcase-1 inversion failed: {back} vs {B1}")
    return m


def subcase2_from_omega(omega1, M0: float) -> AbcRationalMap:
    """Subcase-2 map directly from the interior zero w = omega_1 of f':
    a = k/conj(w) with k = 2|w|^2 - |w|^4, b = 1/conj(w) and c = C."""
    w = complex(omega1)
    if not 0 < abs(w) < 1:
        raise ConfigError("omega1 must lie in the punctured unit disk")
    if M0 <= 0:
        raise ConfigError("M0 must be positive")
    aw = abs(w)
    C = np.sqrt(M0) / (aw * np.sqrt(2.0 - aw**2))
    k = 2.0 * aw**2 - aw**4
    wb = w.conjugate()
    # b by Python's complex division, to whose rounding the moments are pinned
    return AbcRationalMap(k / wb, 1.0 / wb, C)


def make_subcase2(M0: float, B1) -> AbcRationalMap:
    """Invert (M_0, B_1) to the subcase-2 map via the closed inversion."""
    B1 = complex(B1)
    if M0 <= 0:
        raise ConfigError("M0 must be positive")
    if not 0 < abs(B1) < np.sqrt(M0):
        raise ConfigError(
            f"need 0 < |B1| < sqrt(M0) = {np.sqrt(M0):.6g}, got |B1| = {abs(B1):.6g}"
        )
    t = abs(B1) ** 2
    inner = -t / (2.0 * M0) + np.sqrt(t**2 / (4.0 * M0**2) + 2.0 * t / M0)
    w = (B1 / abs(B1)) * np.sqrt(inner)
    m = subcase2_from_omega(w, M0)
    back = complex(m.rational()(w))
    if abs(back - B1) > 1e-10 * max(abs(B1), 1.0):
        raise ConfigError(f"subcase-2 inversion failed: f(omega) = {back} vs {B1}")
    return m


# ----------------------------------------------------------------------
# scenario -> initial map
# ----------------------------------------------------------------------

def initial_map(spec: ScenarioSpec) -> AnalyticMap:
    """The scenario's starting map.

    Its type is its evolution mode: a :class:`PolynomialMap` (the disk and
    polynomial families) evolves at fixed degree, any other map as a
    truncated series with fixed branch points.  Parameters that a map
    constructor rejects, or on which it overflows or divides by zero, raise
    :class:`ConfigError`.
    """
    p = spec.params
    fam = spec.family
    required, optional = FAMILY_PARAMS[fam]
    for k in required:
        if k not in p:
            raise ConfigError(f"family '{fam}' requires parameter '{k}'")
    extra = set(p) - set(required) - set(optional)
    if extra:
        raise ConfigError(f"unknown parameter(s) for '{fam}': {sorted(extra)}")
    for k, v in p.items():
        if not np.all(np.isfinite(v)):
            raise ConfigError(f"family '{fam}': {k} must be finite, got {v}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if fam == "disk":
                return PolynomialMap((float(p.get("a0", 1.0)),))
            if fam == "polynomial":
                return PolynomialMap(p["coeffs"])
            if fam == "example_abc":
                return make_example_abc(p["a"], p["b"], float(p["c_magnitude"]))
            if fam == "subcase1":
                return make_subcase1(float(p["M0"]), p["B1"])
            if fam == "subcase2":
                return make_subcase2(float(p["M0"]), p["B1"])
            # taylor, the last family
            coeffs = list(p["coeffs"])
            coeffs += [0.0] * (spec.taylor_order - len(coeffs))
            return TaylorMap(coeffs[: spec.taylor_order])
    except ValueError as exc:  # a map constructor rejected the parameters
        raise ConfigError(f"family '{fam}': {exc}") from None
    except ArithmeticError as exc:  # overflow or division by zero
        raise ConfigError(
            f"family '{fam}': parameters outside the floating-point range: {exc}"
        ) from None


# ----------------------------------------------------------------------
# verification report
# ----------------------------------------------------------------------

def check_moments(m: PolynomialMap, K: int | None, report: RunReport) -> tuple:
    """M_0..M_K of a polynomial map by Richardson's sum, residues and the area
    oracle, and their checks on ``report``, ``richardson_vs_area`` with the
    oracle's error estimate.  Returns the three moment arrays."""
    rich = moments_richardson(m, K)
    res = moments_residue(m, len(rich) - 1)
    area, err = moments_area_oracle(m, len(rich) - 1)
    report.check("richardson_vs_residue", float(np.max(np.abs(rich - res))), 1e-10)
    report.check("richardson_vs_area", float(np.max(np.abs(rich - area))), 1e-6,
                 quadrature_error_estimate=err)
    return rich, res, area


def verify_scenario(m: AnalyticMap, kind: str, grid_n: int = 1024) -> RunReport:
    """Bundle the family's identity checks into one pass/fail report.

    Which checks run depends on ``kind``; e.g. the vanishing-moment and
    double-covering checks only apply to the two degenerate subcases, and are
    skipped (not failed) elsewhere.
    """
    grid = CircleGrid(grid_n)
    report = RunReport(spec={"family": kind})
    check = report.check
    fp_min = float(np.min(np.abs(m.derivative_on(grid))))  # min |f'| on the circle
    report.add("fprime_nonzero_on_circle", fp_min > 1e-6, fp_min)
    check("f_vanishes_at_origin", abs(complex(m.rational()(0.0))), 1e-14)

    if kind == "disk":
        mv = moments_residue(m, 4)
        check("disk_M0", abs(mv[0] - m.a0**2), 1e-12)
        idx, res = winding_number(m.boundary_values(grid), 0.0)
        check("winding_origin", abs(idx - 1) + res, 1e-6)

    if kind == "polynomial":
        check_moments(m, None, report)

    if kind == "example_abc":
        data = quadrature_data(m)
        mv = moments_residue(m, 6)
        predicted = coeffs_to_moments(data, m, 1)
        check("M0_equals_A_plus_B", abs(mv[0] - predicted[0]), 1e-10)
        check("M1_equals_B_node", abs(mv[1] - predicted[1]), 1e-10)
        if abs(mv[1]) > 1e-8:
            worst = max(abs(mv[k + 1] * mv[k - 1] - mv[k] ** 2) / max(abs(mv[k]) ** 2, 1e-300)
                        for k in range(2, 6))
            check("geometric_progression", worst, 1e-10)
        qres = quadrature_check(m, data, 2)
        check("two_point_quadrature", max(qres), 1e-6)

    if kind == "subcase1":
        mv = moments_residue(m, 6)
        A = abs(m.c) ** 2 / abs(m.b) ** 2
        check("M0_equals_2A", abs(mv[0] - 2.0 * A), 1e-10)
        check("higher_moments_vanish", max(abs(mv[k]) for k in range(1, 7)), 1e-10)
        radius = np.sqrt(mv[0].real / 2.0)
        bd = np.abs(m.boundary_values(grid))
        check("image_circle_radius", float(np.max(np.abs(bd - radius))), 1e-8)
        worst_w = 0.0
        for zpt in (0.01 + 0.0j, 0.3 * radius * np.exp(1j * np.pi / 3)):
            idx, res = winding_number(m.boundary_values(grid), zpt)
            worst_w = max(worst_w, abs(idx - 2) + res)
        check("double_covering", worst_w, 1e-6)

    if kind == "subcase2":
        data = quadrature_data(m)
        mv = moments_residue(m, 6)
        check("one_point_weight_is_M0", abs(coeffs_to_moments(data, m, 0)[0] - mv[0]), 1e-10)
        check("higher_moments_vanish", max(abs(mv[k]) for k in range(1, 7)), 1e-10)
        qres = quadrature_check(m, data, 2)
        check("one_point_quadrature", max(qres), 1e-6)
        w = 1.0 / m.b.conjugate()
        fp = m.derivative_rational()
        other = 2.0 / np.conj(w) - w
        # f' vanishes at omega_1 and at 2/conj(omega_1) - omega_1
        resid = max(abs(complex(fp(w))), abs(complex(fp(other))))
        check("derivative_zero_structure", resid, 1e-9)

    return report

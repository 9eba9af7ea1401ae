"""Scenario families: exact constructors, inversion formulas, verification.

The rational family f(z) = c z (z - a)/(z - b) with 0 < |a| < 1 < |b| and
f'(0) = a c / b > 0 carries the two-node quadrature identity

    (1/2 pi i) int_D g |f'|^2 = A g(0) + B g(1/conj(b)),

    A = |c|^2 a / b,
    B = |c|^2 (conj(a) - conj(b)) (1 - 2|b|^2 + a conj(b) |b|^2)
        / (conj(b) (1 - |b|^2)^2),

with moments M_0 = A + B and M_k = B f(1/conj(b))^k in geometric progression.
Two degenerations with M_1 = M_2 = ... = 0 serve as closed-form oracles:

* subcase 1, a = 1/conj(b): equal weights A = B = |c|^2/|b|^2, the image is
  the disk of radius sqrt(M_0/2) covered twice, and the branch point
  B_1 = f(omega_1) supplies the missing coordinate:
      B_1 = b |b| sqrt(M_0/2) (1 - sqrt(1 - 1/|b|^2))^2.
* subcase 2, omega_1 = 1/conj(b): the second node loses its weight and a
  genuine one-node identity holds on the covering surface with
      f(z) = C z (2|w|^2 - |w|^4 - conj(w) z) / (1 - conj(w) z),
      C = sqrt(M_0) / (|w| sqrt(2 - |w|^2)),       w = omega_1,
      B_1 = w |w| sqrt(M_0) / sqrt(2 - |w|^2),  |B_1| < sqrt(M_0).

Both subcases invert: (M_0, B_1) determine the map.  Subcase 1 is inverted by
a guarded Newton solve of the branch-point equation in |b| (monotone on the
admissible branch), seeded with the closed form
|b| = (q^{1/4} + q^{-1/4})/2, q = 2|B_1|^2/M_0.  Subcase 2 inverts in closed
form:
    omega_1 = (B_1/|B_1|) sqrt(-|B_1|^2/(2 M_0)
              + sqrt(|B_1|^4/(4 M_0^2) + 2 |B_1|^2/M_0)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .maps import (
    AbcRationalMap,
    AnalyticMap,
    CircleGrid,
    PolynomialMap,
    RationalMap,
    TaylorMap,
    winding_number,
)
from .moments import (
    QuadratureData,
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    quadrature_check,
    quadrature_coeffs,
)

__all__ = [
    "ScenarioSpec",
    "FAMILIES",
    "make_example_abc",
    "make_subcase1",
    "subcase1_branch_value",
    "make_subcase2",
    "subcase2_from_omega",
    "initial_map",
    "ScenarioCheck",
    "ScenarioReport",
    "verify_scenario",
]

FAMILIES = ("disk", "polynomial", "example_abc", "subcase1", "subcase2", "taylor")


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
    #: (map, mode) from :func:`initial_map`, built once when the spec is made
    initial: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown family '{self.family}'; expected one of {FAMILIES}"
            )
        if not 0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.horizon < np.inf:
            raise ConfigError(f"horizon must be finite and >= 0, got {self.horizon}")
        if self.taylor_order < 1:
            raise ConfigError(f"taylor_order must be positive, got {self.taylor_order}")
        try:
            CircleGrid(self.grid_n)
        except ValueError as exc:
            raise ConfigError(f"grid_n: {exc}") from None
        # parameter validation happens at parse time
        object.__setattr__(self, "initial", initial_map(self))


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def make_example_abc(a, b, c_magnitude: float):
    """Map of the two-node family plus its quadrature data.

    The argument of c is fixed by the normalization a c / b > 0; only |c| is
    free.  Weights A and B come from the closed forms above.
    """
    a = complex(a)
    b = complex(b)
    if c_magnitude <= 0:
        raise ConfigError("c_magnitude must be positive")
    if not (0 < abs(a) < 1 < abs(b)):
        raise ConfigError(f"need 0 < |a| < 1 < |b|, got |a|={abs(a)}, |b|={abs(b)}")
    c = c_magnitude * np.exp(1j * (np.angle(b) - np.angle(a)))
    m = AbcRationalMap(a, b, c)
    A = abs(c) ** 2 * a / b
    bb = np.conj(b)
    B = (
        abs(c) ** 2
        * (np.conj(a) - bb)
        * (1.0 - 2.0 * abs(b) ** 2 + a * bb * abs(b) ** 2)
        / (bb * (1.0 - abs(b) ** 2) ** 2)
    )
    data = QuadratureData(
        weight_a=complex(A),
        weight_b=complex(B),
        node_b=complex(1.0 / bb),
        image_b=m.node(),
    )
    return m, data


def subcase1_branch_value(b, M0: float) -> complex:
    """B_1 = f(omega_1) of the subcase-1 map with the given b and M_0."""
    b = complex(b)
    s = np.sqrt(1.0 - 1.0 / abs(b) ** 2)
    return b * abs(b) * np.sqrt(M0 / 2.0) * (1.0 - s) ** 2


def _solve_subcase1_modulus(q: float) -> float:
    """|b| with (1 - s)/(1 + s) = q, s = sqrt(1 - 1/|b|^2); 0 < q < 1.

    Newton on beta -> (1-s)/(1+s) - q starting from the closed form
    beta = (sqrt(q) + 1/sqrt(q))/2 (monotone decreasing, so the solve is a
    safety net for the closed form rather than a search).
    """
    beta = 0.5 * (np.sqrt(q) + 1.0 / np.sqrt(q))
    for _ in range(8):
        s = np.sqrt(1.0 - 1.0 / beta**2)
        g = (1.0 - s) / (1.0 + s) - q
        # dg/dbeta = -2/((1+s)^2) * ds/dbeta,  ds/dbeta = 1/(s beta^3)
        dg = -2.0 / ((1.0 + s) ** 2 * s * beta**3)
        step = g / dg
        beta -= step
        if abs(step) < 1e-15 * beta:
            break
    return float(beta)


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
    beta = _solve_subcase1_modulus(q)
    b = (B1 / abs(B1)) * beta
    c = beta * np.sqrt(M0 / 2.0)
    m = AbcRationalMap(1.0 / np.conj(b), b, c)
    back = subcase1_branch_value(b, M0)
    if abs(back - B1) > 1e-10 * max(abs(B1), 1.0):
        raise ConfigError(f"subcase-1 inversion failed: {back} vs {B1}")
    return m


def subcase2_from_omega(omega1, M0: float) -> RationalMap:
    """Subcase-2 map directly from the interior zero omega_1 of f'."""
    w = complex(omega1)
    if not 0 < abs(w) < 1:
        raise ConfigError("omega1 must lie in the punctured unit disk")
    if M0 <= 0:
        raise ConfigError("M0 must be positive")
    aw = abs(w)
    C = np.sqrt(M0) / (aw * np.sqrt(2.0 - aw**2))
    k = 2.0 * aw**2 - aw**4
    return RationalMap((C * k, -C * np.conj(w)), (np.conj(w),))


def make_subcase2(M0: float, B1) -> RationalMap:
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

def _need(params: dict, family: str, *keys, optional=()):
    for k in keys:
        if k not in params:
            raise ConfigError(f"family '{family}' requires parameter '{k}'")
    extra = set(params) - set(keys) - set(optional)
    if extra:
        raise ConfigError(f"unknown parameter(s) for '{family}': {sorted(extra)}")


def initial_map(spec: ScenarioSpec):
    """The scenario's starting map and its evolution mode.

    Polynomial shapes evolve in the fixed-degree polynomial mode; rational
    and explicit series shapes evolve in truncated-series (fixed branch
    point) mode.  Parameters a map constructor rejects raise
    :class:`ConfigError`.
    """
    p = spec.params
    fam = spec.family
    try:
        if fam == "disk":
            _need(p, fam, optional=("a0",))
            a0 = float(p.get("a0", 1.0))
            return PolynomialMap((a0,)), "polynomial"
        if fam == "polynomial":
            _need(p, fam, "coeffs")
            return PolynomialMap(tuple(p["coeffs"])), "polynomial"
        if fam == "example_abc":
            _need(p, fam, "a", "b", "c_magnitude")
            m, _ = make_example_abc(p["a"], p["b"], float(p["c_magnitude"]))
            return m, "taylor"
        if fam == "subcase1":
            _need(p, fam, "M0", "B1")
            return make_subcase1(float(p["M0"]), p["B1"]), "taylor"
        if fam == "subcase2":
            _need(p, fam, "M0", "B1")
            return make_subcase2(float(p["M0"]), p["B1"]), "taylor"
        if fam == "taylor":
            _need(p, fam, "coeffs")
            coeffs = list(p["coeffs"])
            coeffs += [0.0] * (spec.taylor_order - len(coeffs))
            return TaylorMap(tuple(coeffs[: spec.taylor_order])), "taylor"
    except ValueError as exc:  # a map constructor rejected the parameters
        raise ConfigError(f"family '{fam}': {exc}") from None
    raise ConfigError(f"unknown family '{fam}'")


def quadrature_data(m: AnalyticMap) -> QuadratureData:
    """The quadrature identity of a scenario map: two-point for the
    c z (z-a)/(z-b) family, one-point (from f* f') otherwise."""
    if isinstance(m, AbcRationalMap):
        return make_example_abc(m.a, m.b, abs(m.c))[1]
    return quadrature_coeffs(m)


# ----------------------------------------------------------------------
# verification report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioCheck:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class ScenarioReport:
    family: str
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)


def _check(name, residual, bound, detail=""):
    return ScenarioCheck(name, bool(residual < bound), float(residual), detail)


def verify_scenario(m: AnalyticMap, kind: str, grid_n: int = 1024) -> ScenarioReport:
    """Bundle the family's identity checks into one pass/fail report.

    Which checks run depends on ``kind``; e.g. the vanishing-moment and
    double-covering checks only apply to the two degenerate subcases, and are
    skipped (not failed) elsewhere.
    """
    grid = CircleGrid(grid_n)
    checks = []
    fp_min = float(np.min(np.abs(m.derivative_on(grid))))
    checks.append(
        ScenarioCheck("fprime_nonzero_on_circle", fp_min > 1e-6, fp_min,
                      "min |f'| on the unit circle")
    )
    f0 = abs(complex(m.rational()(0.0)))
    checks.append(_check("f_vanishes_at_origin", f0, 1e-14))

    if kind == "disk":
        mv = moments_residue(m, 4)
        checks.append(_check("disk_M0", abs(mv[0] - m.a0**2), 1e-12))
        idx, res = winding_number(m.boundary_values(grid), 0.0)
        checks.append(_check("winding_origin", abs(idx - 1) + res, 1e-6))

    if kind == "polynomial":
        mv_rich = moments_richardson(m).as_array()
        mv_res = moments_residue(m, len(mv_rich) - 1).as_array()
        checks.append(
            _check("richardson_vs_residue",
                   float(np.max(np.abs(mv_rich - mv_res))), 1e-10)
        )
        mv_area, _ = moments_area_oracle(m, len(mv_rich) - 1)
        checks.append(
            _check("richardson_vs_area",
                   float(np.max(np.abs(mv_rich - mv_area.as_array()))), 1e-6)
        )

    if kind == "example_abc":
        data = quadrature_data(m)
        mv = moments_residue(m, 6)
        checks.append(
            _check("M0_equals_A_plus_B",
                   abs(mv[0] - (data.weight_a + data.weight_b)), 1e-10)
        )
        checks.append(
            _check("M1_equals_B_node",
                   abs(mv[1] - data.weight_b * data.image_b), 1e-10)
        )
        if abs(mv[1]) > 1e-8:
            worst = 0.0
            for k in range(2, 6):
                worst = max(worst, abs(mv[k + 1] * mv[k - 1] - mv[k] ** 2)
                            / max(abs(mv[k]) ** 2, 1e-300))
            checks.append(_check("geometric_progression", worst, 1e-10))
        qres = quadrature_check(m, data, [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]])
        checks.append(_check("two_point_quadrature", max(qres), 1e-6))

    if kind == "subcase1":
        mv = moments_residue(m, 6)
        A = abs(m.c) ** 2 / abs(m.b) ** 2
        checks.append(_check("M0_equals_2A", abs(mv[0] - 2.0 * A), 1e-10))
        worst = max(abs(mv[k]) for k in range(1, 7))
        checks.append(_check("higher_moments_vanish", worst, 1e-10))
        radius = np.sqrt(mv[0].real / 2.0)
        bd = np.abs(m.boundary_values(grid))
        checks.append(
            _check("image_circle_radius", float(np.max(np.abs(bd - radius))), 1e-8)
        )
        worst_w = 0.0
        for zpt in (0.01 + 0.0j, 0.3 * radius * np.exp(1j * np.pi / 3)):
            idx, res = winding_number(m.boundary_values(grid), zpt)
            worst_w = max(worst_w, abs(idx - 2) + res)
        checks.append(_check("double_covering", worst_w, 1e-6))

    if kind == "subcase2":
        data = quadrature_data(m)
        mv = moments_residue(m, 6)
        checks.append(_check("one_point_weight_is_M0",
                             abs(complex(data.c[0]) - mv[0]), 1e-10))
        worst = max(abs(mv[k]) for k in range(1, 7))
        checks.append(_check("higher_moments_vanish", worst, 1e-10))
        qres = quadrature_check(m, data, [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]])
        checks.append(_check("one_point_quadrature", max(qres), 1e-6))
        w = complex(np.conj(m.pole_reflections[0]))
        fp = m.derivative_rational()
        other = 2.0 / np.conj(w) - w
        resid = max(abs(complex(fp(w))), abs(complex(fp(other))))
        checks.append(_check("derivative_zero_structure", resid, 1e-9,
                             "f' vanishes at omega_1 and 2/conj(omega_1) - omega_1"))

    return ScenarioReport(kind, tuple(checks))

"""Harmonic moments of the image of a disk map, by three independent routes.

For a map f with f(0)=0, f'(0)>0 the k-th harmonic moment of the image
(counted with covering multiplicity) is

    M_k = (1/2 pi i) int_D   f^k |f'|^2 dzbar dz
        = (1/2 pi i) int_bdD f^k f* f' dz ,

with f* the holomorphic reflection.  The three routes implemented here:

* ``moments_richardson``  the coefficient sum
  M_k = sum (j_0+1) a_{j_0} ... a_{j_k} conj(a_{j_0+...+j_k+k})
  (polynomial / truncated-series maps);
* ``moments_residue``     sum of residues of f^k f* f' over poles in the disk
  (all supported map classes);
* ``moments_area_oracle`` direct two-dimensional quadrature over the disk
  (slow, fully independent; used as the numerical oracle).

The module also extracts one-point quadrature-identity coefficients c_k from
the principal part of f* f' at the origin and converts between the c_k and
the M_k through the triangular correspondence
M_k = sum_j c_j (f^k)^{(j)}(0).

Moments with negative index follow the convention M_{-k} = conj(M_k); they
are a view at the point of use, never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import CuspError, QuadratureError, ResidueError, UncancelledPoleError
from .maps import AnalyticMap, CircleGrid, PolynomialMap, TaylorMap
from .rational import pval

__all__ = [
    "MomentVector",
    "QuadratureData",
    "default_moment_count",
    "richardson_moment",
    "moments_richardson",
    "moments_residue",
    "moments_area_oracle",
    "quadrature_coeffs",
    "coeffs_to_moments",
    "moments_to_coeffs",
    "quadrature_check",
]


@dataclass(frozen=True)
class MomentVector:
    """M_0 (real) together with M_1..M_K; M_{-k} = conj(M_k) on access."""

    M0: float
    M: tuple

    @classmethod
    def from_values(cls, values, imag_tol: float = 1e-9) -> "MomentVector":
        values = [complex(v) for v in values]
        m0 = values[0]
        if abs(m0.imag) > imag_tol * max(1.0, abs(m0)):
            raise ValueError(f"M0 must be real, got {m0}")
        return cls(m0.real, tuple(values[1:]))

    @property
    def K(self) -> int:
        return len(self.M)

    def __getitem__(self, k: int) -> complex:
        if k == 0:
            return complex(self.M0)
        if abs(k) > self.K:
            raise IndexError(f"moment index {k} outside computed range {self.K}")
        return self.M[k - 1] if k > 0 else np.conj(self.M[-k - 1])

    def as_array(self) -> np.ndarray:
        return np.concatenate([[self.M0], self.M]).astype(complex)


@dataclass(frozen=True)
class QuadratureData:
    """Coefficients of the quadrature identity satisfied by the image.

    One-point form (polynomial images and their rational generalizations):
        (1/2 pi i) int_D g |f'|^2 = sum_j c[j] g^(j)(node),   node = 0.
    Two-point form (the c z (z-a)/(z-b) family):
        ... = weight_a * g(0) + weight_b * g(node_b),
    with ``node_b = 1/conj(b)`` the disk-side node and ``image_b = f(node_b)``
    its image, the ratio of the geometric moment progression.
    """

    c: tuple = ()
    node: complex = 0j
    weight_a: complex | None = None
    weight_b: complex | None = None
    node_b: complex | None = None
    image_b: complex | None = None

    @property
    def is_two_point(self) -> bool:
        return self.weight_b is not None

    @property
    def n(self) -> int:
        """Highest derivative order in the one-point identity."""
        return len(self.c) - 1


def default_moment_count(m: AnalyticMap) -> int:
    """K = max(n, 2m + 2): probe beyond the support of degenerate examples.

    For rational maps n = s - 1, with s the order of the pole of f* f' at
    the origin (the highest derivative in the one-point identity).
    """
    if isinstance(m, (PolynomialMap, TaylorMap)):
        return max(len(m.coeffs) - 1, 2)
    r = m.rational()
    _, s = (r.reflect() * r.derivative()).principal_part_at_zero()
    return max(s - 1, 2 * len(m.finite_poles()) + 2)


# ----------------------------------------------------------------------
# Richardson's coefficient sum
# ----------------------------------------------------------------------

def richardson_moment(a, abar, k: int) -> complex:
    """The Richardson sum with ``a`` and ``abar`` as independent variables.

    Evaluates  sum (j_0+1) a_{j_0} ... a_{j_k} abar_{j_0+...+j_k+k}
    by collecting the inner products as coefficients of f^k f':
    M_k = sum_j coeff_j(f^k f') abar_j.  Polynomial in both variable sets,
    which is what the Jacobian finite differences rely on.
    """
    a = np.asarray(a, dtype=complex)
    abar = np.asarray(abar, dtype=complex)
    n = len(a) - 1
    b = a * np.arange(1, n + 2)
    pk = np.array([1.0 + 0.0j])
    for _ in range(k):
        pk = np.convolve(pk, a)
    prod = np.convolve(pk, b)  # coeff of z**(k+i) in f^k f' is prod[i]
    tot = 0.0 + 0.0j
    for j in range(min(n, k + len(prod) - 1) + 1):
        i = j - k
        if 0 <= i < len(prod):
            tot += prod[i] * abar[j]
    return complex(tot)


def moments_richardson(m, K: int | None = None) -> MomentVector:
    """Moments of a polynomial (or truncated-series) map by Richardson's sum."""
    if not isinstance(m, (PolynomialMap, TaylorMap)):
        raise TypeError("Richardson's sum needs a polynomial or series map")
    if K is None:
        K = default_moment_count(m)
    a = np.asarray(m.coeffs, dtype=complex)
    abar = np.conj(a)
    vals = [richardson_moment(a, abar, k) for k in range(K + 1)]
    return MomentVector.from_values(vals)


# ----------------------------------------------------------------------
# residues of f^k f* f'
# ----------------------------------------------------------------------

def _interior_singularities(m: AnalyticMap) -> list:
    pts = [0.0 + 0.0j]
    for p in m.finite_poles():
        q = 1.0 / np.conj(p)
        if abs(abs(q) - 1.0) < 1e-9:
            raise ResidueError(f"singularity of f* at {q} sits on the unit circle")
        if abs(q) < 1.0:
            pts.append(complex(q))
    return pts


def moments_residue(m: AnalyticMap, K: int | None = None,
                    tol: Tolerances = DEFAULT) -> MomentVector:
    """Moments as sums of residues of f^k f* f' over singularities in the disk."""
    if K is None:
        K = default_moment_count(m)
    r = m.rational()
    grid = CircleGrid(256)
    fp = r.derivative()
    if np.min(np.abs(fp(grid.nodes))) < tol.cusp_min_derivative:
        raise CuspError("f' vanishes on the unit circle; boundary form invalid")
    base = r.reflect() * fp
    pts = _interior_singularities(m)
    vals = []
    integrand = base
    for k in range(K + 1):
        if k > 0:
            integrand = integrand * r
        vals.append(sum(integrand.residue(p) for p in pts))
    return MomentVector.from_values(vals)


# ----------------------------------------------------------------------
# area quadrature oracle
# ----------------------------------------------------------------------

def moments_area_oracle(
    m: AnalyticMap,
    K: int | None = None,
    resolution: tuple = (96, 256),
    target: float | None = None,
):
    """Moments by polar tensor quadrature over the unit disk.

    Gauss-Legendre radially, trapezoid in the angle (spectrally accurate for
    the periodic direction).  Returns ``(MomentVector, error_estimate)``
    where the estimate is the max moment change under one refinement level.
    Raises :class:`QuadratureError` if ``target`` is given and not met.
    """
    if K is None:
        K = default_moment_count(m)
    nr, nt = resolution
    coarse = _disk_quadrature(m, K, nr, nt)
    fine = _disk_quadrature(m, K, 2 * nr, 2 * nt)
    err = float(np.max(np.abs(fine - coarse)))
    if target is not None and err > target:
        raise QuadratureError(
            f"disk quadrature error estimate {err:.3e} above target {target:.3e}"
        )
    return MomentVector.from_values(fine), err


def _disk_grid(nr: int, nt: int):
    """Polar tensor nodes (nr x nt) on the unit disk and their radial weights.

    Gauss-Legendre radially, trapezoid in the angle; :func:`_disk_mean`
    turns values at the nodes into (1/pi) times the area integral.
    """
    x, w = np.polynomial.legendre.leggauss(nr)
    rr = 0.5 * (x + 1.0)
    th = 2.0 * np.pi * np.arange(nt) / nt
    return rr[:, None] * np.exp(1j * th)[None, :], 0.5 * w * rr


def _disk_mean(values: np.ndarray, weights: np.ndarray) -> complex:
    """(1/pi) int_D h dA from h at the :func:`_disk_grid` nodes."""
    ang = np.sum(values, axis=1) * (2.0 * np.pi / values.shape[1])
    return np.sum(weights * ang) / np.pi


def _disk_quadrature(m: AnalyticMap, K: int, nr: int, nt: int) -> np.ndarray:
    zgrid, weights = _disk_grid(nr, nt)
    r = m.rational()
    fv = r(zgrid)
    dens = np.abs(r.derivative()(zgrid)) ** 2
    out = np.zeros(K + 1, dtype=complex)
    powk = np.ones_like(fv)
    for k in range(K + 1):
        if k > 0:
            powk = powk * fv
        out[k] = _disk_mean(powk * dens, weights)
    return out


# ----------------------------------------------------------------------
# quadrature identity coefficients and the c <-> M correspondence
# ----------------------------------------------------------------------

def quadrature_coeffs(m: AnalyticMap, tol: Tolerances = DEFAULT) -> QuadratureData:
    """Read off c_k from the principal part of f* f' at the origin.

    Requires every pole of f* in the punctured disk to be cancelled by a zero
    of f' (the one-point quadrature case).  An uncancelled pole raises
    :class:`UncancelledPoleError`, signalling the two-point route.
    """
    r = m.rational()
    g = r.reflect() * r.derivative()
    for p in m.finite_poles():
        q = complex(1.0 / np.conj(p))
        if abs(q) < 1.0 and g.pole_order(q, rel_tol=tol.pole_cancel) > 0:
            raise UncancelledPoleError(
                f"f* f' keeps a pole at {q}; the map does not satisfy a "
                "one-point quadrature identity"
            )
    pp, s = g.principal_part_at_zero()
    if s == 0:
        raise UncancelledPoleError("f* f' has no pole at the origin")
    c = [pp[k] / math.factorial(k) for k in range(s)]
    c0 = c[0]
    if abs(c0.imag) > 1e-9 * max(1.0, abs(c0)) or c0.real <= 0:
        raise ValueError(f"c_0 must be real positive, got {c0}")
    c[0] = complex(c0.real)
    return QuadratureData(c=tuple(c))


def _power_coeff_triangle(m: AnalyticMap, K: int) -> np.ndarray:
    """T[k, j] = j! coeff_j(f^k) for 0 <= k, j <= K; upper triangular."""
    series = m.power_series(K + 1)
    p = np.concatenate([[0.0], series[:K]])  # f as a series in z, degree K
    T = np.zeros((K + 1, K + 1), dtype=complex)
    pk = np.zeros(K + 1, dtype=complex)
    pk[0] = 1.0
    fact = np.array([math.factorial(j) for j in range(K + 1)], dtype=float)
    T[0] = pk * fact
    for k in range(1, K + 1):
        pk = np.convolve(pk, p)[: K + 1]
        T[k] = pk * fact
    return T


def coeffs_to_moments(data: QuadratureData, m: AnalyticMap) -> MomentVector:
    """M_k = sum_j c_j (f^k)^(j)(0); triangular with diagonal k! a0^k c_k."""
    if m.a0 <= 0:
        raise ValueError("map normalization requires a0 > 0")
    K = data.n
    T = _power_coeff_triangle(m, K)
    vals = T @ np.asarray(data.c, dtype=complex)
    return MomentVector.from_values(vals)


def moments_to_coeffs(mv: MomentVector, m: AnalyticMap) -> QuadratureData:
    """Invert the triangular correspondence to recover the c_j."""
    if m.a0 <= 0:
        raise ValueError("map normalization requires a0 > 0")
    K = mv.K
    T = _power_coeff_triangle(m, K)
    c = np.linalg.solve(T, mv.as_array())
    c0 = complex(c[0])
    c[0] = c0.real
    return QuadratureData(c=tuple(c))


def quadrature_check(
    m: AnalyticMap,
    data: QuadratureData,
    testfns,
    resolution: tuple = (96, 256),
) -> list:
    """Residuals |area integral - quadrature side| per test polynomial.

    Test functions are polynomial coefficient arrays (ascending powers of the
    disk variable), so their derivatives at the node are exact.
    """
    zgrid, weights = _disk_grid(*resolution)
    dens = np.abs(m.rational().derivative()(zgrid)) ** 2
    out = []
    for g in testfns:
        g = np.asarray(g, dtype=complex)
        area = _disk_mean(pval(g, zgrid) * dens, weights)
        if data.is_two_point:
            side = data.weight_a * pval(g, np.array([0.0 + 0j]))[0]
            side += data.weight_b * pval(g, np.array([data.node_b]))[0]
        else:
            side = sum(
                data.c[j] * math.factorial(j) * (g[j] if j < len(g) else 0.0)
                for j in range(len(data.c))
            )
        out.append(float(abs(area - side)))
    return out

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
from functools import lru_cache

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import CuspError, QuadratureError, ResidueError, UncancelledPoleError
from .maps import AnalyticMap, CircleGrid, PolynomialMap, TaylorMap, ring_values
from .rational import RationalFunction, pval

__all__ = [
    "MomentVector",
    "QuadratureData",
    "default_moment_count",
    "richardson_moment",
    "richardson_moments",
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

def richardson_moments(a, abar, K: int) -> np.ndarray:
    """M_0..M_K by Richardson's sum, ``a`` and ``abar`` independent variables.

    Evaluates  sum (j_0+1) a_{j_0} ... a_{j_k} abar_{j_0+...+j_k+k}
    by collecting the inner products as coefficients of f^k f':
    M_k = sum_j coeff_j(f^k f') abar_j.  Polynomial in both variable sets,
    which is what the Jacobian finite differences rely on.

    One pass over k.  With f = z p and b_q = (q+1) a_q this is
    M_k = sum_i coeff_i(p^k) C_{k+i},  C_m = sum_q b_q abar_{m+q},
    so C is formed once and only the L - k lowest coefficients of p^k
    (L = len(a)) are kept: higher ones never feed back into lower ones.
    M_k is exactly zero for k > n = L - 1.
    """
    a = np.asarray(a, dtype=complex)
    abar = np.asarray(abar, dtype=complex)
    L = len(a)
    b = a * np.arange(1, L + 1)
    C = np.convolve(abar[L - 1 :: -1], b)[L - 1 :: -1]
    out = np.zeros(K + 1, dtype=complex)
    pk = np.ones(1, dtype=complex)
    for k in range(min(K, L - 1) + 1):
        if k > 0:
            pk = np.convolve(pk, a)[: L - k]
        out[k] = pk @ C[k : k + len(pk)]
    return out


def richardson_moment(a, abar, k: int) -> complex:
    """M_k alone; see :func:`richardson_moments`."""
    return complex(richardson_moments(a, abar, k)[k])


def moments_richardson(m, K: int | None = None) -> MomentVector:
    """Moments of a polynomial (or truncated-series) map by Richardson's sum."""
    if not isinstance(m, (PolynomialMap, TaylorMap)):
        raise TypeError("Richardson's sum needs a polynomial or series map")
    if K is None:
        K = default_moment_count(m)
    a = np.asarray(m.coeffs, dtype=complex)
    return MomentVector.from_values(richardson_moments(a, np.conj(a), K))


# ----------------------------------------------------------------------
# residues of f^k f* f'
# ----------------------------------------------------------------------

def _reflected_poles(m: AnalyticMap) -> list:
    """The poles q = 1/conj(p) of f* in the disk, one per pole p of f."""
    pts = []
    for p in m.finite_poles():
        q = complex(1.0 / np.conj(p))
        if abs(abs(q) - 1.0) < 1e-9:
            raise ResidueError(f"singularity of f* at {q} sits on the unit circle")
        if abs(q) < 1.0:
            pts.append(q)
    if len(set(pts)) < len(pts):
        raise ResidueError("f has a repeated pole; only simple poles are supported")
    return pts


def moments_residue(m: AnalyticMap, K: int | None = None,
                    tol: Tolerances = DEFAULT) -> MomentVector:
    """Moments as sums of residues of f^k f* f' over singularities in the disk.

    At the origin the residue comes from the Laurent data of f^k f* f'.  At
    a simple pole q of f* in the disk, f and f' are analytic, so the residue
    is f(q)^k f'(q) Res_q f*.  Taken factor by factor it stays accurate when
    f'(q) = 0 cancels the pole; the expanded product f^k f* f' loses digits
    there like a k-th power.
    """
    if K is None:
        K = default_moment_count(m)
    r = m.rational()
    fp = r.derivative()
    if np.min(np.abs(ring_values(fp, 1.0, CircleGrid(256)))) < tol.cusp_min_derivative:
        raise CuspError("f' vanishes on the unit circle; boundary form invalid")
    fstar = r.reflect()
    pts = _reflected_poles(m)
    weights = np.array([fp(q) * fstar.residue(q, order=1) for q in pts], dtype=complex)
    images = np.array([r(q) for q in pts], dtype=complex)
    vals = []
    integrand = fstar * fp
    for k in range(K + 1):
        if k > 0:
            integrand = integrand * r
        vals.append(integrand.residue(0j) + np.sum(weights * images**k))
    return MomentVector.from_values(vals)


# ----------------------------------------------------------------------
# area quadrature oracle
# ----------------------------------------------------------------------

#: radial and angular nodes of the base disk grid; polynomial and series
#: maps always use it, maps with poles refine the angle (:func:`_angular_nodes`)
_RADIAL_NODES = 96
_ANGULAR_NODES = 256
#: the trapezoid rule on a ring aliases like |p|**-nt for the nearest pole p
#: of f; nt is chosen to push that factor below this bound
_ALIAS_BOUND = 1e-12
#: no disk grid gets more angular nodes than this
_MAX_ANGULAR_NODES = 8192
#: disk grids are evaluated and summed in blocks of rings of at most this many
#: nodes, 2 MB per complex array (16 rings at the angular cap)
_BLOCK_NODES = 1 << 17


def moments_area_oracle(m: AnalyticMap, K: int | None = None,
                        target: float | None = None):
    """Moments by polar tensor quadrature over the unit disk.

    Gauss-Legendre radially, trapezoid in the angle (spectrally accurate for
    the periodic direction).  Returns ``(MomentVector, error_estimate)``
    where the estimate is the max moment change under one refinement level.
    Raises :class:`QuadratureError` if ``target`` is given and not met, or
    if the poles of f need more angular nodes than the grid may have.
    """
    if K is None:
        K = default_moment_count(m)
    nt = _angular_nodes(m, refine=2)
    coarse = _disk_quadrature(m, K, _RADIAL_NODES, nt)
    fine = _disk_quadrature(m, K, 2 * _RADIAL_NODES, 2 * nt)
    err = float(np.max(np.abs(fine - coarse)))
    if target is not None and err > target:
        raise QuadratureError(
            f"disk quadrature error estimate {err:.3e} above target {target:.3e}"
        )
    return MomentVector.from_values(fine), err


def _angular_nodes(m: AnalyticMap, refine: int = 1) -> int:
    """Angular nodes of the coarsest disk grid the map needs.

    ``_ANGULAR_NODES``, raised to the power of two that brings the alias
    factor |p|**-nt of the nearest finite pole p below ``_ALIAS_BOUND``.
    Raises :class:`QuadratureError` if the finest grid, ``refine`` times
    finer, would exceed ``_MAX_ANGULAR_NODES``.
    """
    nt = _ANGULAR_NODES
    poles = m.finite_poles()
    if poles.size:
        rho = float(np.min(np.abs(poles)))
        need = math.ceil(math.log(1.0 / _ALIAS_BOUND) / math.log(rho))
        nt = max(nt, 1 << (need - 1).bit_length())
        if refine * nt > _MAX_ANGULAR_NODES:
            raise QuadratureError(
                f"a pole at distance {rho - 1.0:.3e} from the unit circle needs "
                f"{refine * nt} angular nodes, above the cap {_MAX_ANGULAR_NODES}"
            )
    return nt


@lru_cache(maxsize=4)
def _disk_grid(nr: int, nt: int):
    """Radii of the polar tensor grid (nr rings x nt angles) on the unit
    disk and the weight of each ring's nodes.

    Gauss-Legendre radially, trapezoid in the angle: the sum of
    h * weights[:, None] over the nodes is (1/pi) times the area integral
    of h.  Both arrays are cached and read-only.
    """
    x, w = np.polynomial.legendre.leggauss(nr)
    radii = 0.5 * (x + 1.0)
    weights = w * radii / nt
    radii.flags.writeable = False
    weights.flags.writeable = False
    return radii, weights


def _density_blocks(m: AnalyticMap, nr: int, nt: int):
    """The (nr, nt) disk grid in blocks of at most ``_BLOCK_NODES`` nodes: the
    block's radii, the angular grid and |f'|**2 times the node weights (complex,
    the caller's to overwrite), which summed against h over all blocks gives
    (1/pi) int_D h |f'|**2 dA."""
    radii, weights = _disk_grid(nr, nt)
    grid = CircleGrid(nt)
    fp = m.derivative_rational()
    step = max(_BLOCK_NODES // nt, 1)
    for block in (slice(s, s + step) for s in range(0, nr, step)):
        v = ring_values(fp, radii[block], grid)
        dens = ((v.real**2 + v.imag**2) * weights[block, None]).astype(complex)
        del v  # at most one block's arrays are alive at a time
        yield radii[block], grid, dens


def _disk_quadrature(m: AnalyticMap, K: int, nr: int, nt: int) -> np.ndarray:
    f = m.rational()
    out = np.zeros(K + 1, dtype=complex)
    for radii, grid, term in _density_blocks(m, nr, nt):
        fv = ring_values(f, radii, grid)
        out[0] += term.sum()
        for k in range(1, K + 1):
            term *= fv
            out[k] += term.sum()
        del term, fv  # before the next block is built
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


def quadrature_check(m: AnalyticMap, data: QuadratureData, testfns) -> list:
    """Residuals |area integral - quadrature side| per test polynomial.

    Test functions are polynomial coefficient arrays (ascending powers of the
    disk variable), so their derivatives at the node are exact.  The area
    integral uses the grid of :func:`moments_area_oracle`'s coarse level.
    """
    gs = [np.asarray(g, dtype=complex) for g in testfns]
    areas = np.zeros(len(gs), dtype=complex)
    for radii, grid, dens in _density_blocks(m, _RADIAL_NODES, _angular_nodes(m)):
        areas += [np.sum(ring_values(RationalFunction(g), radii, grid) * dens)
                  for g in gs]
    out = []
    for g, area in zip(gs, areas):
        if data.is_two_point:
            side = data.weight_a * pval(g, 0.0) + data.weight_b * pval(g, data.node_b)
        else:
            side = sum(
                data.c[j] * math.factorial(j) * (g[j] if j < len(g) else 0.0)
                for j in range(len(data.c))
            )
        out.append(float(abs(area - side)))
    return out

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

Every route returns the moments as a complex array M_0..M_K with M_0
exactly real.  Moments with negative index follow the convention
M_{-k} = conj(M_k); they are left to the point of use, never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT
from .errors import CuspError, QuadratureError, ResidueError, UncancelledPoleError
from .maps import AnalyticMap, CircleGrid, PolynomialMap, TaylorMap, ring_values
from .rational import RationalFunction, deflate, pval

__all__ = [
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


def _real_m0(values) -> np.ndarray:
    """M_0..M_K as a complex array with M_0 made exactly real; raises
    :class:`QuadratureError` when Im M_0 exceeds 1e-9 max(1, |M_0|)."""
    M = np.array(values, dtype=complex)
    m0 = M[0]
    if abs(m0.imag) > 1e-9 * max(1.0, abs(m0)):
        raise QuadratureError(f"M0 must be real, got {m0}")
    M[0] = m0.real
    return M


@dataclass(frozen=True)
class QuadratureData:
    """Coefficients of the quadrature identity satisfied by the image.

    One-point form (polynomial images and their rational generalizations):
        (1/2 pi i) int_D g |f'|^2 = sum_j c[j] g^(j)(0).
    Two-point form (the c z (z-a)/(z-b) family):
        ... = weight_a * g(0) + weight_b * g(node_b),
    with ``node_b = 1/conj(b)`` the disk-side node and ``image_b = f(node_b)``
    its image, the ratio of the geometric moment progression.
    """

    c: tuple = ()
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

def _head_product(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """The m lowest coefficients of the polynomial product x y, along axis 0.
    Further axes are batch axes: a batch loops over the index of ``x`` and
    is vectorized over length and batch; one pair is ``np.convolve``."""
    if x.ndim == 1:
        return np.convolve(x, y)[:m]
    out = np.zeros((m,) + x.shape[1:], dtype=complex)
    for i in range(min(m, len(x))):
        out[i:] += x[i] * y[: m - i]
    return out


def _power_rows(a, K: int | None = None) -> np.ndarray:
    """P[..., k, j] = coeff_j(f^k) = coeff_{j-k}(p^k) for f = z p =
    sum a_j z^(j+1), rows k <= min(K, n), columns j <= n = a.shape[-1] - 1:
    the one truncated power recurrence behind V, Richardson's sum and the
    c <-> M triangle.  p^k keeps its n + 1 - k lowest coefficients, as
    higher ones never feed back into lower ones, and is multiplied by the
    equally long head of ``a``.  ``a`` may carry one leading batch axis,
    one row per map; a batch's rows equal the single-map rows up to
    rounding.
    """
    a = np.asarray(a, dtype=complex)
    L = a.shape[-1]
    rows = L if K is None else min(K, L - 1) + 1
    # the recurrence runs along the leading axes, a batch axis trails
    a = a.T
    P = np.zeros((rows, L) + a.shape[1:], dtype=complex)
    P[0, 0] = 1.0
    pk = P[0, :1]
    for k in range(1, rows):
        pk = _head_product(pk, a[: L - k + 1], L - k)
        P[k, k:] = pk
    return P.T.swapaxes(-1, -2)


def richardson_moments(a, abar, K: int) -> np.ndarray:
    """M_0..M_K by Richardson's sum, ``a`` and ``abar`` independent variables.

    Evaluates  sum (j_0+1) a_{j_0} ... a_{j_k} abar_{j_0+...+j_k+k}
    by collecting the inner products as coefficients of f^k f':
    M_k = sum_j coeff_j(f^k f') abar_j.  Polynomial in both variable sets,
    which is what the Jacobian finite differences rely on.

    With f = z p and b_q = (q+1) a_q this is
    M_k = sum_i coeff_i(p^k) C_{k+i},  C_m = sum_q b_q abar_{m+q},
    so C is formed once and M = P C for the power rows P of
    :func:`_power_rows`.  M_k is exactly zero for k > n = a.shape[-1] - 1.

    ``a`` and ``abar`` may carry one leading batch axis, one row per map,
    for M of shape (B, K + 1); the power rows are then formed once per
    distinct row of ``a``.
    """
    a = np.asarray(a, dtype=complex)
    abar = np.asarray(abar, dtype=complex)
    L = a.shape[-1]
    b = a * np.arange(1, L + 1)
    # C reversed is the head of the product of abar reversed with b
    C = _head_product(abar[..., L - 1 :: -1].T, b.T, L)[::-1]
    if a.ndim == 1:
        P = _power_rows(a, K)
        return np.pad(P @ C, (0, K + 1 - len(P)))
    distinct, which = np.unique(a, axis=0, return_inverse=True)
    P = _power_rows(distinct, K)[which]
    M = (P @ C.T[..., None])[..., 0]
    return np.pad(M, ((0, 0), (0, K + 1 - P.shape[1])))


def richardson_moment(a, abar, k: int) -> complex:
    """M_k alone; see :func:`richardson_moments`."""
    return complex(richardson_moments(a, abar, k)[k])


def moments_richardson(m, K: int | None = None) -> np.ndarray:
    """Moments of a polynomial (or truncated-series) map by Richardson's sum."""
    if not isinstance(m, (PolynomialMap, TaylorMap)):
        raise TypeError("Richardson's sum needs a polynomial or series map")
    if K is None:
        K = default_moment_count(m)
    a = np.asarray(m.coeffs, dtype=complex)
    return _real_m0(richardson_moments(a, np.conj(a), K))


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


def moments_residue(m: AnalyticMap, K: int | None = None) -> np.ndarray:
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
    if np.min(np.abs(ring_values(fp, 1.0, CircleGrid(256)))) < DEFAULT.cusp_min_derivative:
        raise CuspError("f' vanishes on the unit circle; boundary form invalid")
    fstar = r.reflect()
    pts = _reflected_poles(m)
    weights = np.array([fp(q) * fstar.residue(q) for q in pts], dtype=complex)
    images = np.array([r(q) for q in pts], dtype=complex)
    vals = []
    integrand = fstar * fp
    for k in range(K + 1):
        if k > 0:
            integrand = integrand * r
        vals.append(integrand.residue(0j) + np.sum(weights * images**k))
    return _real_m0(vals)


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


def moments_area_oracle(m: AnalyticMap, K: int | None = None):
    """Moments by polar tensor quadrature over the unit disk.

    Gauss-Legendre radially, trapezoid in the angle (spectrally accurate for
    the periodic direction).  Returns ``(moments, error_estimate)``
    where the estimate is the max moment change under one refinement level;
    the callers compare it with their own bounds.  Raises
    :class:`QuadratureError` if the poles of f need more angular nodes than
    the grid may have.
    """
    if K is None:
        K = default_moment_count(m)
    nt = _angular_nodes(m, refine=2)
    coarse = _disk_quadrature(m, K, _RADIAL_NODES, nt)
    fine = _disk_quadrature(m, K, 2 * _RADIAL_NODES, 2 * nt)
    err = float(np.max(np.abs(fine - coarse)))
    return _real_m0(fine), err


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

def quadrature_coeffs(m: AnalyticMap) -> QuadratureData:
    """Read off c_k from the principal part of f* f' at the origin.

    Requires every pole of f* in the punctured disk to be cancelled by a zero
    of f' (the one-point quadrature case).  An uncancelled pole raises
    :class:`UncancelledPoleError`, signalling the two-point route.
    """
    r = m.rational()
    g = r.reflect() * r.derivative()
    scale = np.max(np.abs(g.num))
    for q in _reflected_poles(m):
        # the pole of f* at q is simple: f* f' keeps it unless num(q) = 0
        if abs(deflate(g.num, q)[1]) > DEFAULT.pole_cancel * scale:
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
        raise QuadratureError(f"c_0 must be real positive, got {c0}")
    c[0] = complex(c0.real)
    return QuadratureData(c=tuple(c))


def _power_coeff_triangle(m: AnalyticMap, K: int) -> np.ndarray:
    """T[k, j] = j! coeff_j(f^k) for 0 <= k, j <= K; upper triangular."""
    fact = np.array([math.factorial(j) for j in range(K + 1)], dtype=float)
    return _power_rows(m.power_series(K + 1), K) * fact


def coeffs_to_moments(data: QuadratureData, m: AnalyticMap) -> np.ndarray:
    """M_k = sum_j c_j (f^k)^(j)(0); triangular with diagonal k! a0^k c_k."""
    T = _power_coeff_triangle(m, data.n)
    return _real_m0(T @ np.asarray(data.c, dtype=complex))


def moments_to_coeffs(M, m: AnalyticMap) -> QuadratureData:
    """Invert the triangular correspondence to recover the c_j from M_0..M_K."""
    c = np.linalg.solve(_power_coeff_triangle(m, len(M) - 1), M)
    c[0] = c[0].real
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

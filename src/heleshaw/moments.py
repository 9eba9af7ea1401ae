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
  (all supported map classes), read off one Laurent read of f* f';
* ``moments_area_oracle`` direct two-dimensional quadrature over the disk
  (independent of the coefficient algebra; used as the numerical oracle),
  on a grid that is exact up to rounding for polynomial maps.

The image's quadrature identity (:class:`QuadratureData`) reads

    (1/pi) int_D g |f'|^2 dA = sum_j c_j g^(j)(0) + sum_i w_i g(z_i),

origin weights c_j plus point nodes z_i with weights w_i.  Both of its sides
are integrals of h^k, k = 0..K, for one function h with h(0) = 0: the disk
side is ``_disk_quadrature`` and the point side ``_point_side``.
``quadrature_check`` compares the two with h = z (g = z^p), and
``coeffs_to_moments`` is the point side with h = f, the moments the identity
predicts.  ``_laurent_data`` reads f* f' once: its principal part pp at the
origin and the weights f'(q) Res_q f* at the poles q of f* in the disk.
``moments_residue`` is the point side of that data with h = f, and
``quadrature_coeffs`` reads the one-point c_j = pp_j / j! off it.

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
from .maps import AnalyticMap, CircleGrid, PolynomialMap, TaylorMap, _frozen, ring_values
from .rational import RationalFunction, pval

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
    """The quadrature identity satisfied by the image:

        (1/pi) int_D g |f'|^2 dA = sum_j c[j] g^(j)(0) + sum_i w_i g(z_i)

    for ``nodes`` the pairs (z_i, w_i).  Polynomial images and subcase 2
    have no nodes; the c z (z-a)/(z-b) family has c = (A,) and the one node
    (1/conj(b), B).
    """

    c: tuple = ()
    nodes: tuple = ()

    @property
    def n(self) -> int:
        """Highest derivative order at the origin."""
        return len(self.c) - 1


def default_moment_count(m: AnalyticMap) -> int:
    """K = max(n, 2m + 2): probe beyond the support of degenerate examples.

    For rational maps n = s - 1, with s the order of the pole of f* f' at
    the origin (the highest derivative in the one-point identity).
    """
    if isinstance(m, (PolynomialMap, TaylorMap)):
        return max(len(m.coeffs) - 1, 2)
    _, pp, nodes = _laurent_data(m)
    return max(len(pp) - 1, 2 * len(nodes) + 2)


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
    point side of the quadrature identity.  p^k keeps its n + 1 - k lowest
    coefficients, as higher ones never feed back into lower ones, and is
    multiplied by the equally long head of ``a``.  ``a`` may carry one
    leading batch axis, one row per map; a batch's rows equal the single-map
    rows up to rounding.
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


def _richardson_c(a: np.ndarray, abar: np.ndarray) -> np.ndarray:
    """C_m = sum_q b_q abar_{m+q}, b_q = (q+1) a_q, for m = 0..n, so that
    M = P C (see :func:`richardson_moments`); a batch axis trails."""
    L = a.shape[-1]
    b = a * np.arange(1, L + 1)
    # C reversed is the head of the product of abar reversed with b
    return _head_product(abar[..., L - 1 :: -1].T, b.T, L)[::-1]


def _moments_and_rows(a: np.ndarray, abar: np.ndarray,
                      K: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """M_0..M_min(K, n) of one map by Richardson's sum P C, and its power
    rows P: V's rows k >= 0 when ``abar`` is conj(a) and K >= n."""
    P = _power_rows(a, K)
    return P @ _richardson_c(a, abar), P


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
    distinct row of ``a`` and contracted one k at a time.  A batch of fewer
    than (n + 1) / 2 rows is summed row by row instead: n convolutions per
    row undercut the batch recurrence's n^2 / 2 vectorized steps (12 rows
    timed 1.07 ms batched and 0.88 ms row by row at n = 24, 7.5 and 3.0 ms
    at n = 64, and the batch was faster at n <= 16).
    """
    a = np.asarray(a, dtype=complex)
    abar = np.asarray(abar, dtype=complex)
    if a.ndim == 1:
        M = _moments_and_rows(a, abar, K)[0]
        return np.pad(M, (0, K + 1 - len(M)))
    if 2 * len(a) < a.shape[1]:
        return np.array([richardson_moments(x, y, K) for x, y in zip(a, abar)])
    C = _richardson_c(a, abar)
    distinct, which = np.unique(a, axis=0, return_inverse=True)
    P = _power_rows(distinct, K)
    M = np.zeros((len(a), K + 1), dtype=complex)
    for k in range(P.shape[1]):
        M[:, k] = np.einsum("bj,bj->b", P[which, k], C.T)
    return M


def richardson_moment(a, abar, k: int) -> complex:
    """M_k alone; see :func:`richardson_moments`."""
    return complex(richardson_moments(a, abar, k)[k])


def moments_richardson(m, K: int | None = None) -> np.ndarray:
    """Moments of a polynomial (or truncated-series) map by Richardson's sum."""
    if not isinstance(m, (PolynomialMap, TaylorMap)):
        raise TypeError("Richardson's sum needs a polynomial or series map")
    if K is None:
        K = default_moment_count(m)
    return _real_m0(richardson_moments(m.coeffs, np.conj(m.coeffs), K))


# ----------------------------------------------------------------------
# residues of f^k f* f'
# ----------------------------------------------------------------------

def _laurent_data(m: AnalyticMap):
    """The Laurent data of g = f* f' in the disk: ``(g, pp, nodes)``, with
    ``pp[j]`` the coefficient of z**-(j+1) at the origin and one node
    (q, f'(q) Res_q f*) per pole q = 1/conj(p) of f* in the disk, p a pole
    of f.  Taken factor by factor, the weight stays accurate when f'(q) = 0
    cancels the pole."""
    r = m.rational()
    fp, fstar = r.derivative(), r.reflect()
    nodes = []
    for p in m.finite_poles():
        q = complex(1.0 / np.conj(p))
        if abs(abs(q) - 1.0) < 1e-9:
            raise ResidueError(f"singularity of f* at {q} sits on the unit circle")
        if abs(q) < 1.0:
            nodes.append((q, complex(fp(q) * fstar.residue(q))))
    g = fstar * fp
    return g, g.principal_part_at_zero()[0], tuple(nodes)


def moments_residue(m: AnalyticMap, K: int | None = None) -> np.ndarray:
    """Moments as sums of residues of f^k f* f' over singularities in the disk.

    The residue at the origin is sum_j pp_j coeff_j(f^k), pp the principal
    part of f* f' (f^k is analytic there); at a pole q of f* in the disk it
    is w_q f(q)^k, w_q = f'(q) Res_q f*.  Both come from
    :func:`_laurent_data`, and the sum is the quadrature identity's point
    side (:func:`_point_side`) with h = f: no product f^k f* f' is formed.
    """
    if K is None:
        K = default_moment_count(m)
    r = m.rational()
    fp = r.derivative()
    if np.min(np.abs(ring_values(fp, 1.0, CircleGrid(256)))) < DEFAULT.cusp_min_derivative:
        raise CuspError("f' vanishes on the unit circle; boundary form invalid")
    _, pp, nodes = _laurent_data(m)
    return _real_m0(_point_side(pp, nodes, r, K))


# ----------------------------------------------------------------------
# area quadrature oracle
# ----------------------------------------------------------------------

#: radial and angular nodes of the base disk grid of a map with poles; the
#: angle is refined from the pole alias bound (:func:`_angular_nodes`)
_RADIAL_NODES = 96
_ANGULAR_NODES = 256
#: the trapezoid rule on a ring aliases like |p|**-nt for the nearest pole p
#: of f; nt is chosen to push that factor below this bound
_ALIAS_BOUND = 1e-12
#: no disk grid gets more angular nodes than this
_MAX_ANGULAR_NODES = 8192
#: disk grids are evaluated and summed in blocks of rings of at most this many
#: nodes, 512 KB per complex array, so a block's f', density, f and running
#: product stay in one core's L2 cache; on an x86-64 host with 2 MB of L2 per
#: core 2**14 timed the same, 2**12 and 2**17 (one block per polynomial grid)
#: slower
_BLOCK_NODES = 1 << 15


def moments_area_oracle(m: AnalyticMap, K: int | None = None):
    """Moments by polar tensor quadrature over the unit disk.

    Gauss-Legendre radially, trapezoid in the angle, on the grid of
    :func:`_disk_size`.  Returns ``(moments, error_estimate)``.

    A map without poles gets the one grid on which the quadrature is exact,
    so only rounding is left.  The estimate is u (log2 N + K + 4) A, u the
    unit roundoff, N the number of nodes and A the largest over k of
    A_k = (1/pi) int_D |f|^k |f'|^2 dA >= |M_k| on the same grid.  It bounds
    the first-order rounding of each M_k, u (log2 N + k + 4) A_k, which
    counts every rounding once at size u: log2 N for the pairwise sums, k
    for the products of f and its values, 4 for |f'|^2, the weight and the
    block sums (the radial rule is accurate to a few ulps,
    :func:`_radial_rule`).  A worst case would count sqrt(5) u per complex
    product and log2 nt per FFT value; errors of random sign stay well
    inside: against 40-digit coefficient sums at n = 1..64 they were at
    most 0.12 of u (log2 N + k + 4) A_k.

    A map with poles gets the (96, nt) grid of the pole alias bound and its
    refinement (192, 2 nt): the moments are the fine level's, and the
    estimate max |fine - coarse| measures the coarse level.

    Raises :class:`QuadratureError` when the grid needs more angular nodes
    than ``_MAX_ANGULAR_NODES``: from n = 90 on at K = n for a polynomial of
    degree n + 1.
    """
    if K is None:
        K = default_moment_count(m)
    h = m.rational()
    nr, nt = _disk_size(m, K, h, refine=2)
    fine, size = _disk_quadrature(m, K, nr, nt, h)
    if size is None:
        coarse, _ = _disk_quadrature(m, K, *_disk_size(m, K, h), h)
        err = float(np.max(np.abs(fine - coarse)))
    else:
        err = float(np.finfo(float).eps / 2 * (math.log2(nr * nt) + K + 4) * size)
    return _real_m0(fine), err


def _disk_size(m: AnalyticMap, K: int, h: RationalFunction, refine: int = 1) -> tuple[int, int]:
    """(nr, nt), the rings and angles of the disk grid for
    (1/pi) int_D h^k |f'|^2 dA, k = 0..K, h(0) = 0.

    Without finite poles f' and h are polynomials, of degrees n and d.  On
    |z| = r the angular mean of h^k f' conj(f') is
    sum_q coeff_q(h^k f') conj(coeff_q(f')) r^(2q), q <= n, once the
    trapezoid rule is exact on h^k f' conj(f'), whose frequencies run from
    -n to K d + n: nt > K d + n, a power of two.  The radial integrand is
    then r times a polynomial of degree 2n, and nr = n + 1 Gauss nodes
    integrate it exactly, whatever K is.  ``refine`` plays no part.

    With poles: (96 refine, nt refine), nt from the alias bound of
    :func:`_angular_nodes`.  Raises :class:`QuadratureError` above
    ``_MAX_ANGULAR_NODES`` angles either way.
    """
    if m.finite_poles().size:
        return _RADIAL_NODES * refine, _angular_nodes(m, refine) * refine
    n = len(m.derivative_rational().num) - 1
    need = K * (len(h.num) - 1) + n + 1
    nt = max(4, 1 << (need - 1).bit_length())
    if nt > _MAX_ANGULAR_NODES:
        raise QuadratureError(
            f"exact quadrature of moments up to k = {K} of a degree-{n + 1} map needs "
            f"{n + 1} x {nt} nodes, above the cap of {_MAX_ANGULAR_NODES} angular nodes"
        )
    return n + 1, nt


def _angular_nodes(m: AnalyticMap, refine: int = 1) -> int:
    """Angular nodes of the coarsest disk grid a map with poles needs.

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


@lru_cache(maxsize=16)
def _radial_rule(nr: int):
    """Radii of nr-node Gauss-Legendre on [0, 1] and the weights w r of the
    area element, scaled so that the sum of h * weights[:, None] / nt over
    an (nr, nt) polar grid is (1/pi) times the area integral of h.

    numpy's nodes are taken through two Newton steps on the Legendre
    recurrence in ``np.longdouble``, and radii and weights are formed there,
    to a few u, the unit roundoff: numpy's small weights are off by up to
    1e4 u at nr = 41, which put 245 u A_k into a moment, and 4e5 u at the
    pole maps' nr = 192.  Both arrays are cached and read-only
    (:func:`_frozen`); the cache holds every nr one verification sweep uses.
    """
    x, _ = np.polynomial.legendre.leggauss(nr)
    x = x.astype(np.longdouble)
    for newton in (True, True, False):
        p0, p1 = np.ones_like(x), x
        for j in range(2, nr + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = nr * (x * p1 - p0) / (x * x - 1)
        if newton:
            x = x - p1 / dp
    w = 2 / ((1 - x * x) * dp * dp)
    radii = (x + 1) / 2
    return _frozen(radii.astype(float)), _frozen((w * radii).astype(float))


def _disk_quadrature(m: AnalyticMap, K: int, nr: int, nt: int, h=None):
    """(1/pi) int_D h^k |f'|**2 dA for k = 0..K on the (nr, nt) disk grid, h = f
    by default; summed in blocks of at most ``_BLOCK_NODES`` nodes, with the
    density |f'|**2 times the node weights real and h^k a running product.

    Returns ``(values, size)``.  For a map without poles ``size`` is the
    largest over k of A_k, the same sums with |h| for h, the scale of their
    rounding; for a map with poles, None.  A_k is a sum of positive
    multiples of |h|^k, so it is log-convex in k and its largest value is
    A_0 or A_K; A_K is the sum of |h^K| times the density.
    """
    polynomial = not m.finite_poles().size
    radii, weights = _radial_rule(nr)
    weights = weights / nt
    grid = CircleGrid(nt)
    fp = m.derivative_rational()
    h = m.rational() if h is None else h
    out = np.zeros(K + 1, dtype=complex)
    top = 0.0
    step = max(_BLOCK_NODES // nt, 1)
    for block in (slice(s, s + step) for s in range(0, nr, step)):
        v = ring_values(fp, radii[block], grid)
        dens = (v.real**2 + v.imag**2) * weights[block, None]
        del v  # at most one block's arrays are alive at a time
        out[0] += dens.sum()
        if K:
            hv = ring_values(h, radii[block], grid)
            term = dens * hv
            out[1] += term.sum()
            for k in range(2, K + 1):
                term *= hv
                out[k] += term.sum()
            if polynomial:
                top += np.abs(term).sum()
            del term, hv  # before the next block is built
    return out, float(max(out[0].real, top)) if polynomial else None


# ----------------------------------------------------------------------
# the quadrature identity
# ----------------------------------------------------------------------

def _factorials(n: int) -> np.ndarray:
    """0!..(n-1)! as floats; inf from 171! on, which overflows a float."""
    return np.array([math.factorial(j) if j <= 170 else math.inf for j in range(n)],
                    dtype=float)


def quadrature_coeffs(m: AnalyticMap) -> QuadratureData:
    """Read off c_j = pp_j / j! from the principal part pp of f* f' at the
    origin (:func:`_laurent_data`); c_j underflows to 0 for j > 170.

    Requires every pole of f* in the punctured disk to be cancelled by a zero
    of f' (the one-point quadrature case).  An uncancelled pole raises
    :class:`UncancelledPoleError`, signalling the two-point route.  c_0 is
    made exactly real; :class:`QuadratureError` unless it is real to
    1e-9 max(1, |c_0|) and positive.
    """
    g, pp, nodes = _laurent_data(m)
    scale = np.max(np.abs(g.num))
    for q, _ in nodes:
        # the pole of f* at q is simple: f* f' keeps it unless num(q) = 0
        if abs(pval(g.num, q)) > DEFAULT.pole_cancel * scale:
            raise UncancelledPoleError(
                f"f* f' keeps a pole at {q}; the map does not satisfy a "
                "one-point quadrature identity"
            )
    if not len(pp):
        raise UncancelledPoleError("f* f' has no pole at the origin")
    c = list(pp / _factorials(len(pp)))
    c0 = complex(c[0])
    if abs(c0.imag) > 1e-9 * max(1.0, abs(c0)) or c0.real <= 0:
        raise QuadratureError(f"c_0 must be real positive, got {c0}")
    c[0] = complex(c0.real)
    return QuadratureData(c=tuple(c))


def _residue_weights(c) -> np.ndarray:
    """c_j j!, so that sum_j c_j g^(j)(0) = sum_j (c_j j!) coeff_j(g);
    :class:`QuadratureError` where c_j j! leaves the float range (j > 170)."""
    if len(c) > 171:
        raise QuadratureError("the identity's terms c_j g^(j)(0) overflow a float for j > 170")
    return np.asarray(c, dtype=complex) * _factorials(len(c))


def _point_side(pp, nodes, h: RationalFunction, K: int) -> np.ndarray:
    """The point side of the identity for g = h^k, k = 0..K (h(0) = 0):
    sum_j pp_j coeff_j(h^k) + sum_i w_i h(z_i)^k, with pp_j = c_j j! the
    residue weights at the origin.  The twin of :func:`_disk_quadrature`;
    coeff_j(h^k) is a power row of :func:`_power_rows`, zero for j < k."""
    P = _power_rows(h.taylor(len(pp))[1:], K)
    out = np.zeros(K + 1, dtype=complex)
    out[: len(P)] = P @ pp
    for z, w in nodes:
        out += w * complex(h(z)) ** np.arange(K + 1)
    return out


def coeffs_to_moments(data: QuadratureData, m, K: int | None = None) -> np.ndarray:
    """M_0..M_K as the identity predicts them, M_k = sum_j c_j (f^k)^(j)(0)
    + sum_i w_i f(z_i)^k: the point side with h = f.  K defaults to
    ``data.n``; with no nodes M_k = 0 for k > n."""
    K = data.n if K is None else K
    return _real_m0(_point_side(_residue_weights(data.c), data.nodes, m.rational(), K))


def quadrature_check(m: AnalyticMap, data: QuadratureData, max_power: int) -> list:
    """Residuals |disk side - point side| of the identity for g = z^0..z^max_power.

    Both sides take h = z: the disk side is :func:`_disk_quadrature` on the
    grid of :func:`_disk_size` (for a polynomial map the exact one,
    nt > max_power + n angles; for a map with poles the alias-bound
    (96, nt) grid), the point side :func:`_point_side`,
    c_p p! + sum_i w_i z_i^p, which reads c_j for j <= max_power only.
    """
    pp = _residue_weights(data.c[: max_power + 1])
    z = RationalFunction([0.0, 1.0])
    areas, _ = _disk_quadrature(m, max_power, *_disk_size(m, max_power, z), z)
    return np.abs(areas - _point_side(pp, data.nodes, z, max_power)).tolist()

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
  (independent of the coefficient algebra; the numerical oracle), on one
  grid sized a priori, exact up to rounding for polynomial maps.

The image's quadrature identity (:class:`QuadratureData`) reads

    (1/pi) int_D g |f'|^2 dA = sum_j c_j g^(j)(0) + sum_i w_i g(z_i),

origin weights c_j plus point nodes z_i with weights w_i.  Both sides are
integrals of h^k, k = 0..K, for one h with h(0) = 0: ``_disk_quadrature``
and ``_point_side``.  ``quadrature_check`` compares them with h = z, and
``coeffs_to_moments`` is the point side with h = f.  ``_laurent_data`` reads
f* f' once: its principal part pp at the origin and the weights
f'(q) Res_q f* at the poles q of f* in the disk; ``moments_residue`` is its
point side with h = f, and ``quadrature_coeffs`` reads c_j = pp_j / j! off it.

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
from .maps import (AnalyticMap, CircleGrid, PolynomialMap, TaylorMap, _frozen, circle_values,
                   ring_values)
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


def _contour_nodes(L: int, K: int) -> int:
    """The least power of two N_K >= max(4, (min(K, L - 1) + 1) L)."""
    return max(4, 1 << ((min(K, L - 1) + 1) * L - 1).bit_length())


def _contour_moments(m: TaylorMap, K: int) -> np.ndarray:
    """Richardson's sum as the contour sum M_k = (1/N) sum f^k conj(f) z f'
    over N = :func:`_contour_nodes` nodes (f, z f' by one :func:`circle_values`),
    exact to rounding as no frequency k + 1 - L..(k + 1) L - 1 but 0 aliases
    to 0 (Trefethen & Weideman, SIAM Review 56, 2014); M_k = 0 for k >= L."""
    L = m.order
    grid = CircleGrid(_contour_nodes(L, K))
    rows = np.concatenate((np.zeros((2, 1)), [m.coeffs, m.derivative_coeffs()]), axis=1)
    f, zfp = circle_values(rows, grid)
    term = np.conj(f) * zfp / grid.size
    M = np.zeros(K + 1, dtype=complex)
    for k in range(min(K, L - 1) + 1):
        M[k] = term.sum()
        term *= f
    return _real_m0(M)


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

#: no ring of a disk grid gets more angular nodes than this; a pole p so near
#: the circle that |p|**-nt is still above ``_ALIAS_BOUND`` there is refused
_MAX_ANGULAR_NODES = 8192
_ALIAS_BOUND = 1e-12
#: disk grids are summed in blocks of rings of at most this many nodes, 512 KB
#: per complex array, so a block's arrays stay in one core's L2 cache; on an
#: x86-64 host with 2 MB of L2 per core 2**14 timed the same, 2**12 and 2**17
#: (one block per polynomial grid) slower
_BLOCK_NODES = 1 << 15


def moments_area_oracle(m: AnalyticMap, K: int | None = None):
    """Moments by polar tensor quadrature over the unit disk, Gauss-Legendre
    radially and trapezoid in the angle, on the one grid of
    :func:`_disk_size`.  Returns ``(moments, error_estimate)``.

    The estimate is T + u (log2 N + K + 4) A: T the truncation bound of
    :func:`_disk_size` (0 on a polynomial's exact grid), u the unit
    roundoff, N the number of nodes and A the largest A_k >= |M_k| of
    :func:`_disk_quadrature`; u counts each rounding once: log2 N for the
    pairwise sums, k for the products of f, 4 for |f'|^2, the weight and the
    block sums.  Against 40-digit references the error was at most 0.12 of
    the estimate on polynomials at n = 1..64, and 0.13 on the
    c z (z - a)/(z - b) class at |b| = 1.02..3 and K = 4, 8.

    Raises :class:`QuadratureError` above ``_MAX_ANGULAR_NODES`` angles: from
    n = 90 on at K = n for a polynomial of degree n + 1, and for a pole
    within 0.0034 of the unit circle.
    """
    if K is None:
        K = default_moment_count(m)
    h = m.rational()
    nr, nt, truncation = _disk_size(m, K, h)
    values, size = _disk_quadrature(m, K, nr, nt, h)
    N = np.sum(np.broadcast_to(nt, (nr,)))
    err = truncation + np.finfo(float).eps / 2 * (math.log2(N) + K + 4) * size
    return _real_m0(values), float(err)


def _disk_size(m: AnalyticMap, K: int, h: RationalFunction) -> tuple:
    """(nr, nt, T): the rings of the one disk grid for (1/pi) int_D h^k
    |f'|^2 dA, k = 0..K, h(0) = 0, its angles (one count for every ring or
    one per ring) and a bound T on its truncation error.

    Without finite poles f' and h are polynomials, of degrees n and d.  On
    |z| = r the angular mean of h^k f' conj(f') is
    sum_q coeff_q(h^k f') conj(coeff_q(f')) r^(2q), q <= n, once the
    trapezoid rule is exact on h^k f' conj(f'), whose frequencies run from
    -n to K d + n: nt > K d + n, a power of two.  The radial integrand is
    then r times a polynomial of degree 2n, and nr = n + 1 Gauss nodes
    integrate it exactly, whatever K is; T = 0.

    With a nearest pole p the sum runs over all q; in x = 2r - 1 the radial
    integrand is analytic inside the Bernstein ellipse through 2|p| - 1,
    with a pole of order K + 3 there (3 for h = z).  On the ellipse of
    parameter R through 2 r_j - 1, r_j = |p| - (|p| - 1) / 2^j, j = 1..4, it
    is at most r_j H_j F_j, H_j and F_j the root mean squares of h^k f'
    (largest over k) and f' on |z| = r_j (Cauchy-Schwarz, Parseval), so nr
    Gauss rings err by at most (64/15) r_j H_j F_j R^(2 - 2 nr) / (R^2 - 1)
    (Trefethen, *Approximation Theory and Approximation Practice*, 2013,
    Thm 19.3); nt angles on the ring of radius r alias by at most
    (H_j F_0 + H_0 F_j) / ((r_j / r)^nt - 1), index 0 on the unit circle.
    H and F are measured on >= 40 / log(|p| / r_j) nodes, not assumed from
    the pole's order: far out the regular part of f outweighs the pole, and
    in subcase 2 a zero of f' nearly cancels it.  nr >= 2 and each ring's
    nt, a power of two from 4 to the cap, are the least whose bounds meet
    u H_0 F_0 for some j, u the unit roundoff; T adds the radial bound and
    the worst ring's alias bound.
    """
    poles = m.finite_poles()
    if poles.size:
        p, fp = float(np.min(np.abs(poles))), m.derivative_rational()
        if p ** -_MAX_ANGULAR_NODES > _ALIAS_BOUND:
            raise QuadratureError(f"a pole at distance {p - 1.0:.3e} from the unit circle "
                                  f"needs angular nodes above the cap {_MAX_ANGULAR_NODES}")
        rings = []  # (r_j, log F_j, log H_j), |h|^2K scaled by its top
        for r in p - (p - 1) / 2.0 ** np.arange(5):
            grid = CircleGrid(max(4, 2 ** math.ceil(math.log2(40 / math.log(p / r)))))
            if grid.size <= 4 * _MAX_ANGULAR_NODES:
                d, g = np.abs(ring_values(fp, r, grid)) ** 2, np.abs(ring_values(h, r, grid))
                top = 2 * K * np.log(g.max()) + np.log(np.mean(d * (g / g.max()) ** (2 * K)))
                rings.append((r, np.log(d.mean()) / 2, max(np.log(d.mean()), top) / 2))
        (_, F0, H0), *rest = rings
        target = F0 + H0 + math.log(np.finfo(float).eps / 2)
        r, F, H = np.array(rest).T
        R = 2 * r - 1 + np.sqrt((2 * r - 1) ** 2 - 1)
        radial = np.log(64 / 15 * r / (R * R - 1)) + F + H
        nr = max(2, math.ceil(1 + np.min((radial - target) / np.log(R)) / 2))
        S, lr = np.logaddexp(H + F0, H0 + F)[:, None], np.log(r[:, None] / _radial_rule(nr)[0])
        need = np.min(np.logaddexp(0, S - target) / lr, axis=0)  # grows outward
        nt = np.minimum(_MAX_ANGULAR_NODES, 2 ** np.ceil(np.log2(np.maximum(need, 4))))
        alias = np.max(np.min(S - nt * lr - np.log1p(-np.exp(-nt * lr)), axis=0))
        radial = np.min(radial + (2 - 2 * nr) * np.log(R))
        return nr, tuple(int(n) for n in nt), math.exp(radial) + math.exp(alias)
    n = len(m.derivative_rational().num) - 1
    need = K * (len(h.num) - 1) + n + 1
    nt = max(4, 1 << (need - 1).bit_length())
    if nt > _MAX_ANGULAR_NODES:
        raise QuadratureError(
            f"exact quadrature of moments up to k = {K} of a degree-{n + 1} map needs "
            f"{n + 1} x {nt} nodes, above the cap of {_MAX_ANGULAR_NODES} angular nodes"
        )
    return n + 1, nt, 0.0


@lru_cache(maxsize=64)
def _radial_rule(nr: int):
    """Radii of nr-node Gauss-Legendre on [0, 1] and the weights w r of the
    area element, scaled so that the sum of h * weights[:, None] / nt over
    an (nr, nt) polar grid is (1/pi) times the area integral of h.

    numpy's nodes are taken through two Newton steps on the Legendre
    recurrence in ``np.longdouble``, and radii and weights are formed there,
    to a few u, the unit roundoff: numpy's small weights are off by up to
    1e4 u at nr = 41, which put 245 u A_k into a moment, and 4e5 u at
    nr = 192.  Both arrays are cached and read-only (:func:`_frozen`); the
    cache holds every nr one verification sweep uses.
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


def _disk_quadrature(m: AnalyticMap, K: int, nr: int, nt, h=None):
    """(1/pi) int_D h^k |f'|**2 dA for k = 0..K on the (nr, nt) disk grid, h = f
    by default, nt one count or one per ring (nondecreasing outward); summed
    in blocks of at most ``_BLOCK_NODES`` nodes of one count, with the
    density |f'|**2 times the node weights real and h^k a running product.

    Returns ``(values, size)``, ``size`` the largest over k of A_k, the same
    sums with |h| for h and each density times the relative rounding, in
    units of u, of the FFT values of f''s denominator, sum_j |den_j| r^j /
    |den(z)| (1 without poles).  A_k is log-convex in k, largest at 0 or K.
    """
    radii, weights = _radial_rule(nr)
    nt = np.broadcast_to(nt, (nr,))
    fp, poles = m.derivative_rational(), m.finite_poles()
    h = m.rational() if h is None else h
    out = np.zeros(K + 1, dtype=complex)
    low = top = 0.0
    s = 0
    while s < nr:
        grid = CircleGrid(int(nt[s]))
        e = s + min(max(_BLOCK_NODES // grid.size, 1), np.count_nonzero(nt[s:] == grid.size))
        r = radii[s:e]
        v = ring_values(fp, r, grid)
        dens = (v.real**2 + v.imag**2) * (weights[s:e, None] / grid.size)
        del v  # at most one block's arrays are alive at a time
        out[0] += dens.sum()
        # f''s double poles p: (|p| + r)^2 / |z - p|^2
        cond = np.prod([((abs(p) + r[:, None]) / np.abs(np.outer(r, grid.nodes) - p)) ** 2
                        for p in poles], axis=0)
        low += (dens * cond).sum()
        if K:
            hv = ring_values(h, r, grid)
            term = dens * hv
            out[1] += term.sum()
            for k in range(2, K + 1):
                term *= hv
                out[k] += term.sum()
            top += (np.abs(term) * cond).sum()
            del term, hv  # before the next block is built
        s = e
    return out, float(max(low, top))


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
    grid of :func:`_disk_size`, the point side :func:`_point_side`,
    c_p p! + sum_i w_i z_i^p, which reads c_j for j <= max_power only.
    """
    pp = _residue_weights(data.c[: max_power + 1])
    z = RationalFunction([0.0, 1.0])
    nr, nt, _ = _disk_size(m, max_power, z)
    areas, _ = _disk_quadrature(m, max_power, nr, nt, z)
    return np.abs(areas - _point_side(pp, data.nodes, z, max_power)).tolist()

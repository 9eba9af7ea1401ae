"""The time Poisson bracket, resultants, and the moment-map Jacobian.

For a polynomial map f = sum_{j=0}^n a_j z^{j+1} the velocity of the moments
under any smooth variation factors as  Mdot = V U adot  where

* V holds Laurent coefficients of powers of f (and their conjugates):
  V[k, i] = coeff_i(f^k) for 0 <= k <= i <= n,
  V[k, i] = conj(coeff_{-i}(f^{-k})) for -n <= i <= k < 0, zero elsewhere;
* U expresses the Laurent coefficients of the bracket
  {f, f*}_t = z f' df*/dt + z^{-1} f'* df/dt  as a linear map on the
  coefficient velocities: U[i, j] = b_{-(i+j)} + b_0 delta_{i0} delta_{0j}
  on the index bands written out in :func:`bracket_matrix`, with
  b_j = (j+1) a_j and b_{-j} = conj(b_j).

Matrices are stored with array index 0..2n for logical index -n..n (logical =
array - n).  Closed forms:

    det V = a0^{n(n+1)}
    det U = 2 b0 det S = 2 b0^{2n+1} Res(f', f'*)
    det(V U) = 2 a0^{n^2+3n+1} Res(f', f'*)

Sign convention.  ``sylvester_matrix`` is the classical Sylvester matrix
with the first argument's coefficient rows on top, so its determinant
Res_pol(z - alpha, z - beta) = alpha - beta.  The meromorphic resultant is
defined through it:

    Res(g, h) = Res_pol(g(z), z^n h(z)) / (b0^n c0^n)

for g = sum_0^n b_j z^j, h = sum_0^n c_k z^{-k}.  This equals (-1)^n times
the divisor product prod_i h(omega_i) / h(inf)^n over the zeros of g; the
Sylvester-based sign is the one under which the determinant identities above
hold uniformly in n (checked against finite differences of the moment map).
The package needs it only for g = f', h = f'*.  The polynomial stepper
solves on V U (:func:`_newton_update`) and reads the sign of Res from
det W = det U = 2 b0^{2n+1} Res(f', f'*), W the real string matrix of
:func:`_string_solve`.  The Jacobian report takes det(V U) as det V det U
(the product is far worse conditioned than either factor) and checks det U
against Res from det W (``det_u_resultant_form``) and against 2 b0 det S
(``det_u_sylvester_form``); its right-hand side reads Res from S.

V U itself is checked against central differences of the moment map, along
three seeded probe directions W: V U W against the differences along W, in
O(n^3) where all 2n+1 coordinate directions cost O(n^4).  That is Freivalds'
randomized product check (1977) with a finite-difference side.
:func:`finite_difference_jacobian` with its identity default is the full
Jacobian, which the tests compare entrywise.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import DEFAULT
from .errors import DegenerateResultantError
from .maps import AnalyticMap, CircleGrid, PolynomialMap, circle_values
from .moments import _moments_and_rows, _power_rows, richardson_moments
from .rational import trim

__all__ = [
    "moment_power_matrix",
    "bracket_matrix",
    "bracket_samples",
    "sylvester_matrix",
    "derivative_reflection_resultant",
    "solve_string_system",
    "string_residual",
    "finite_difference_jacobian",
    "log_rel_error",
    "JacobianReport",
    "jacobian_identity_report",
]


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def moment_power_matrix(m: PolynomialMap) -> np.ndarray:
    """The (2n+1) x (2n+1) matrix V of Laurent coefficients of powers of f.

    Block upper/lower triangular with diagonal a0^{|k|}; det V = a0^{n(n+1)}.
    The lower-right block holds coeff_i(f^k) for 0 <= k <= i <= n, the power
    rows of :func:`heleshaw.moments._power_rows`; the upper-left block is
    their conjugate, flipped in both indices.
    """
    P = _power_rows(m.coeffs)
    n = len(P) - 1
    V = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    V[n:, n:] = P
    V[: n + 1, : n + 1] = np.conj(P[::-1, ::-1])
    return V


def bracket_matrix(m: PolynomialMap) -> np.ndarray:
    """The (2n+1) x (2n+1) matrix U with row i giving coeff_{-i}({f,f*}_t).

    Nonzero bands: for i >= 0 the entry sits at -n <= j <= -i or 0 <= j <= n;
    for i <= 0 at -n <= j <= 0 or -i <= j <= n, i.e. where i j >= 0 or
    |j| >= |i|.  The (0,0) entry is 2 b0.
    """
    b = m.derivative_coeffs()
    n = len(b) - 1
    zeros = np.zeros(n, dtype=complex)
    # b_k for k = -2n..2n at array index k + 2n; zero for |k| > n
    signed = np.concatenate([zeros, np.conj(b[:0:-1]), b, zeros])
    idx = np.arange(-n, n + 1)
    i, j = idx[:, None], idx[None, :]
    U = np.where((i * j >= 0) | (np.abs(j) >= np.abs(i)), signed[2 * n - i - j], 0.0)
    U[n, n] += b[0]
    return U


# ----------------------------------------------------------------------
# bracket samples on the circle
# ----------------------------------------------------------------------

def bracket_samples(m: AnalyticMap, velocities, grid: CircleGrid) -> np.ndarray:
    """Samples of {f, f*}_t = z f' fdot* + z^{-1} f'* fdot on the grid.

    ``velocities`` holds adot_j (j >= 0) for fdot = sum adot_j z^{j+1}.  On
    the unit circle f'* = conj(f') and fdot* = conj(fdot), so the samples
    are the real values 2 Re[z f' conj(fdot)].
    """
    return _bracket(m.derivative_on(grid), velocities, grid)


def _bracket(fp: np.ndarray, velocities, grid: CircleGrid) -> np.ndarray:
    """:func:`bracket_samples` from ``fp``, f' at the grid nodes."""
    v = np.asarray(velocities, dtype=complex)
    fdot = circle_values(np.concatenate([[0.0], v]), grid)
    return 2.0 * np.real(grid.nodes * fp * np.conj(fdot))


def string_residual(m: AnalyticMap, velocities, grid: CircleGrid) -> float:
    """max over the grid of |{f, f*}_t - 1|."""
    return float(np.max(np.abs(bracket_samples(m, velocities, grid) - 1.0)))


# ----------------------------------------------------------------------
# resultants
# ----------------------------------------------------------------------

def sylvester_matrix(p, q) -> np.ndarray:
    """Classical Sylvester matrix; ``p``/``q`` ascending, p's rows on top."""
    p = trim(p)
    q = trim(q)
    dp, dq = len(p) - 1, len(q) - 1
    if dp == 0 or dq == 0:
        raise ValueError("both polynomials must have positive degree")
    if p[-1] == 0 or q[-1] == 0:
        raise ValueError("leading coefficients must be nonzero")
    N = dp + dq
    S = np.zeros((N, N), dtype=complex)
    pd = p[::-1]
    qd = q[::-1]
    for r in range(dq):
        S[r, r : r + dp + 1] = pd
    for r in range(dp):
        S[dq + r, r : r + dq + 1] = qd
    return S


def derivative_reflection_resultant(m: PolynomialMap) -> complex:
    """Res(f', f'*) = det S / (b0^n conj(b0)^n), S the Sylvester matrix of
    f' and z^n f'*; 1 for n = 0 and 0 for an exactly singular S.

    It vanishes exactly when f' has two zeros reflected in the unit circle
    (the degeneracy where the string equation cannot hold).
    """
    b = m.derivative_coeffs()
    n = len(b) - 1
    if n == 0:
        return 1.0 + 0.0j
    bc = np.conj(b)
    det_s = complex(np.linalg.det(sylvester_matrix(b, bc[::-1])))
    return det_s / (b[0] ** n * bc[0] ** n)


# ----------------------------------------------------------------------
# the string system
# ----------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=8)
def _string_matrix_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of h_ij = b_(i+j) and t_ij = b_(j-i) for i = 0..n, j = 1..n,
    pointing at a zero appended after b_n where i + j > n or j < i."""
    i = np.arange(n + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    return np.where(i + j <= n, i + j, n + 1), np.where(j >= i, j - i, n + 1)


def _string_matrix(b: np.ndarray) -> np.ndarray:
    """W = T^H U T for f' = sum b_j z^j, in the unitary basis e_0,
    (e_j + e_-j)/sqrt2, i(e_j - e_-j)/sqrt2 (j = 1..n), ordered
    (0, c_1..c_n, s_1..s_n).

    U commutes with v -> conj(v[::-1]), whose fixed vectors are exactly the
    real combinations of T's columns, so W is real and has U's singular
    values and determinant.  Row i >= 0 of U holds conj(b_i) in column 0
    (2 b0 at i = 0), conj(h_ij) in column j and t_ij in column -j.  Pairing
    columns j and -j into their sum (c_j) and i times their difference
    (s_j), W's row i is Re of U's row i and its row s_i is Im, with column 0
    scaled by sqrt2 and row 0 by 1/sqrt2.  W is gathered straight from b in
    the floating-point operations of that fold of :func:`bracket_matrix`,
    so the two agree bitwise.
    """
    n = len(b) - 1
    h, t = _string_matrix_indices(n)
    # Re b, Im b and Im conj(b), each padded with +0 as U's zeros are, so
    # that the signed zeros of W match the fold's
    re, im, im_conj = np.zeros((3, n + 2))
    re[: n + 1] = b.real
    im[: n + 1] = b.imag
    im_conj[: n + 1] = -b.imag
    hr, hi, tr, ti = re[h], im_conj[h], re[t], im[t]
    W = np.empty((2 * n + 1, 2 * n + 1))
    W[: n + 1, 0] = re[: n + 1]
    W[0, 0] += re[0]
    W[1 : n + 1, 0] *= _SQRT2
    W[: n + 1, 1 : n + 1] = hr + tr
    W[: n + 1, n + 1 :] = -(hi - ti)
    W[n + 1 :, 0] = im_conj[1 : n + 1] * _SQRT2
    W[n + 1 :, 1 : n + 1] = (hi + ti)[1:]
    W[n + 1 :, n + 1 :] = (hr - tr)[1:]
    W[0, 1:] /= _SQRT2
    return W


@dataclass(frozen=True, eq=False)
class _StringSolve:
    """One polynomial map's real string matrix W, solved once.

    ``velocities`` is the full -n..n solution of U adot = e_0, or None when
    the gate rejects W; ``cond`` is |W|_F |W^-1|_F (inf when W is exactly
    singular).  Res(f', f'*) is read from det W on first use.
    """

    W: np.ndarray
    velocities: np.ndarray | None
    cond: float

    @cached_property
    def log_resultant(self) -> complex:
        """log Res(f', f'*) = log det W - log 2 - (2n+1) log b0, from
        ``slogdet``, since det W = det U = 2 b0^(2n+1) Res.  The imaginary
        part is 0 or pi (Res is real); -inf for a singular W.  Never
        overflows.  0 for n = 0, where the empty resultant is 1.
        """
        n = (len(self.W) - 1) // 2
        if n == 0:
            return 0j
        sign, logabs = np.linalg.slogdet(self.W)
        log_b0 = np.log(0.5 * self.W[0, 0])
        return complex(logabs - np.log(2.0) - (2 * n + 1) * log_b0,
                       np.pi if sign < 0 else 0.0)

    @property
    def resultant(self) -> float:
        """Res(f', f'*) itself (inf past the floating-point range)."""
        lr = self.log_resultant
        return float(np.exp(lr.real)) * (-1.0 if lr.imag else 1.0)

    def gated(self) -> np.ndarray:
        """The velocities, or :class:`DegenerateResultantError` when the gate
        rejected W."""
        if self.velocities is None:
            raise DegenerateResultantError(
                f"string system singular: Res(f', f'*) = {self.resultant:.3e}; "
                "f' and f'* share a zero (or nearly so), the string equation "
                "cannot hold"
            )
        return self.velocities


def _string_solve(b: np.ndarray) -> _StringSolve:
    """Build W from f' = sum b_j z^j and invert it once: the string solve
    of :func:`solve_string_system` and of every polynomial step's end map."""
    W = _string_matrix(b)
    try:
        Winv = np.linalg.inv(W)
    except np.linalg.LinAlgError:
        return _StringSolve(W, None, np.inf)
    cond = float(np.linalg.norm(W) * np.linalg.norm(Winv))
    # False as well for an inverse holding inf or nan
    if not cond * DEFAULT.singular_ratio <= 1.0:
        return _StringSolve(W, None, cond)
    half = _complex_half(Winv[:, 0])
    return _StringSolve(W, np.concatenate([np.conj(half[:0:-1]), half]), cond)


def _complex_half(y: np.ndarray) -> np.ndarray:
    """x_0..x_n of a conjugate-symmetric x_-n..x_n from its coordinates
    y = (x_0, sqrt2 Re x_j, sqrt2 Im x_j) in W's basis (x_0 real)."""
    n = (len(y) - 1) // 2
    return np.concatenate([[y[0] + 0j], (y[1 : n + 1] + 1j * y[n + 1 :]) / _SQRT2])


def _newton_update(a: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Newton's update da_0..da_n for M_0..M_n(a) = target, one solve on
    V U: V z = target - M(a) on the power rows P (z_-k = conj z_k), then
    U da = z as the real W y = (z_0, sqrt2 Re z_j, sqrt2 Im z_j)."""
    M, P = _moments_and_rows(a, np.conj(a))
    z = np.linalg.solve(P, target - M)
    rhs = np.concatenate([[z[0].real], _SQRT2 * z[1:].real, _SQRT2 * z[1:].imag])
    return _complex_half(np.linalg.solve(_string_matrix(a * np.arange(1, len(a) + 1)), rhs))


def solve_string_system(m: PolynomialMap) -> np.ndarray:
    """Coefficient velocities adot with U adot = e_0 (logical index -n..n).

    These are exactly the derivatives da_j / dM_0 at fixed higher moments.
    The solution is conjugate-symmetric, adot_{-j} = conj(adot_j), so the
    system is solved in real arithmetic as W x = e_0 with W the real form of
    U, built straight from f' (see :func:`_string_matrix`), and
    x = (adot_0, sqrt2 Re adot_j, sqrt2 Im adot_j); the returned vector is
    symmetric exactly.

    Raises :class:`DegenerateResultantError` when U is numerically singular
    (Res(f', f'*) ~ 0): when the Frobenius condition number |W|_F |W^-1|_F
    exceeds 1 / ``DEFAULT.singular_ratio``.  It bounds sigma_max / sigma_min
    from above, so the gate rejects every system that a singular-value test
    at the same ratio rejects.  The message quotes Res(f', f'*), read from
    det W.
    """
    return _string_solve(m.derivative_coeffs()).gated()


# ----------------------------------------------------------------------
# the Jacobian identity
# ----------------------------------------------------------------------

def _conjugate_moment_map(X: np.ndarray) -> np.ndarray:
    """(M_{-n}, ..., M_n) as a polynomial map of the independent variables
    x = (abar_n, ..., abar_1, a_0, a_1, ..., a_n) (logical index -n..n),
    for each row x of X, in one batched Richardson sum."""
    X = np.asarray(X, dtype=complex)
    n = (X.shape[1] - 1) // 2
    a, abar = X[:, n:], X[:, n::-1]
    M = richardson_moments(np.concatenate([a, abar]), np.concatenate([abar, a]), n)
    out = np.empty_like(X)
    out[:, n:] = M[: len(X)]
    out[:, n::-1] = M[len(X) :]
    return out


def finite_difference_jacobian(m: PolynomialMap, step: float, directions=None) -> np.ndarray:
    """Central differences of the conjugate-variable moment map along the
    columns w of ``directions``, a (2n+1) x p array:
    (F(x0 + step w) - F(x0 - step w)) / (2 step), all 2p points evaluated in
    one batch.  The default, the identity, gives the full Jacobian from the
    2(2n+1) points x0 +- step e_j."""
    a = m.coeffs
    n = len(a) - 1
    x0 = np.concatenate([np.conj(a[1:])[::-1], a])
    size = 2 * n + 1
    D = np.eye(size) if directions is None else np.asarray(directions)
    X = x0 + step * np.stack([D.T, -D.T])
    F = _conjugate_moment_map(X.reshape(-1, size)).reshape(2, -1, size)
    return (F[0] - F[1]).T / (2 * step)


#: probe directions of the report's finite-difference check, and the seed of
#: their phases
_PROBES = 3
_PROBE_SEED = 1977


def _probe_directions(size: int) -> np.ndarray:
    """The report's size x ``_PROBES`` probe directions: entries
    exp(2 pi i theta), theta uniform on [0, 1) from
    ``random.Random(_PROBE_SEED)`` and formed by ``cmath``, so that every run
    and numpy version reads the same probes."""
    rng = random.Random(_PROBE_SEED)
    phases = [cmath.exp(2j * math.pi * rng.random()) for _ in range(size * _PROBES)]
    return np.array(phases).reshape(size, _PROBES)


def _log_det(M: np.ndarray) -> complex:
    """log det M = log|det M| + i arg det M, from ``slogdet``.

    The rows and then the columns are first scaled by powers of two to a
    largest modulus in [1/2, 1).  The scaling is exact, and its exponents
    are added back as a multiple of log 2.  It keeps matrices whose rows
    differ in scale by a0^|k|, like V at n = 64, from losing digits to
    their condition number.  Never overflows or underflows.  A singular or
    non-finite determinant raises :class:`DegenerateResultantError`, so no
    identity is ever compared between two zeros.
    """
    # viewed as (real, imag) pairs, so that ldexp scales both parts
    x = np.array(M, dtype=complex, order="C").view(float)
    _, row_exp = np.frexp(np.max(np.abs(x.view(complex)), axis=1))
    x = np.ldexp(x, -row_exp[:, None])
    _, col_exp = np.frexp(np.max(np.abs(x.view(complex)), axis=0))
    x = np.ldexp(x, -np.repeat(col_exp, 2))
    sign, logabs = np.linalg.slogdet(x.view(complex))
    if sign == 0 or not np.isfinite(logabs):
        raise DegenerateResultantError(
            f"determinant is zero or not finite (log|det| = {logabs})"
        )
    logabs += int(row_exp.sum() + col_exp.sum()) * np.log(2.0)
    return complex(logabs, np.angle(sign))


def log_rel_error(log_x: complex, log_y: complex) -> float:
    """|x / y - 1| from log x and log y (phases compared modulo 2 pi)."""
    return float(abs(np.expm1(log_x - log_y)))


@dataclass(frozen=True)
class JacobianReport:
    """Both sides of the determinant identity plus supporting diagnostics.

    Determinants are held as complex logarithms (``log|d| + i arg d``):
    for a0 away from 1 they leave the floating-point range at n ~ 32.
    """

    n: int
    log_det_vu: complex
    log_rhs: complex
    log_det_v: complex
    log_det_v_closed: complex
    log_det_u: complex
    #: det U's closed forms 2 b0^(2n+1) Res with Res from det W, and 2 b0 det S
    log_det_u_closed: complex
    log_det_u_sylvester: complex
    #: log Res(f', f'*) from the Sylvester matrix S
    log_resultant: complex
    #: max |V U W - D_W| over the probe directions W (``fd_probes`` columns)
    #: and the central differences D_W along them, taken with step ``fd_step``
    fd_max_abs_err: float
    fd_step: float
    fd_probes: int
    #: max |V U| >= (V U)[0, 0] = 2 a0: the finite-difference error is judged
    #: relative to it, with no absolute floor for a small map to pass under
    fd_scale: float

    @property
    def rel_error(self) -> float:
        """|det(V U) / rhs - 1|."""
        return log_rel_error(self.log_det_vu, self.log_rhs)


def jacobian_identity_report(m: PolynomialMap) -> JacobianReport:
    """Check det(V U) = 2 a0^{n^2+3n+1} Res(f', f'*) and the helpers.

    Both sides are compared in log space:  log det V + log det U from
    ``slogdet`` (see :func:`_log_det`) against  log 2 + (n^2+3n+1) log a0 +
    log Res, with Res = det S / a0^{2n} for the Sylvester matrix S of
    (f', z^n f'*).

    Also checks V U against central differences of the moment map, as
    Freivalds' product check (1977): V U W against the differences D_W along
    the columns of W, ``_PROBES`` seeded directions whose entries have
    modulus 1 (:func:`_probe_directions`).  That is 4 ``_PROBES`` moment
    evaluations where the full Jacobian takes 4(2n+1).  A wrong entry of
    V U shows in V U W at its full size, as it does entrywise.  The step
    1e-5 2^round(log2 a0) / sqrt(2n+1) scales with f, and each perturbation
    step w has the 2-norm of the coordinate step 1e-5 2^round(log2 a0).
    """
    n = m.degree_plus
    V = moment_power_matrix(m)
    U = bracket_matrix(m)
    log_a0 = np.log(m.a0)
    log_2 = np.log(2.0)
    b = m.derivative_coeffs()
    # n = 0: S is empty and the resultant is 1
    log_det_s = _log_det(sylvester_matrix(b, np.conj(b)[::-1])) if n else 0j
    log_res = log_det_s - 2 * n * log_a0
    log_det_v = _log_det(V)
    log_det_u = _log_det(U)
    VU = V @ U
    W = _probe_directions(2 * n + 1)
    fd_step = math.ldexp(1e-5, round(math.log2(m.a0))) / math.sqrt(2 * n + 1)
    fd = finite_difference_jacobian(m, fd_step, W)
    return JacobianReport(
        n=n,
        log_det_vu=log_det_v + log_det_u,
        log_rhs=complex(log_2 + (n * n + 3 * n + 1) * log_a0 + log_res),
        log_det_v=log_det_v,
        log_det_v_closed=complex(n * (n + 1) * log_a0),
        log_det_u=log_det_u,
        log_det_u_closed=complex(
            log_2 + (2 * n + 1) * log_a0 + _string_solve(b).log_resultant),
        log_det_u_sylvester=complex(np.log(2.0 * m.a0) + log_det_s),
        log_resultant=complex(log_res),
        fd_max_abs_err=float(np.max(np.abs(VU @ W - fd))),
        fd_step=fd_step,
        fd_probes=_PROBES,
        fd_scale=float(np.max(np.abs(VU))),
    )

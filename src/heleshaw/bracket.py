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

Sign convention.  ``sylvester_resultant`` is the classical Sylvester
determinant with the first argument's coefficient rows on top, so
Res_pol(z - alpha, z - beta) = alpha - beta.  The meromorphic resultant is
defined through it:

    Res(g, h) = Res_pol(g(z), z^n h(z)) / (b0^n c0^n)

for g = sum_0^n b_j z^j, h = sum_0^n c_k z^{-k}.  This equals (-1)^n times
the divisor product prod_i h(omega_i) / h(inf)^n over the zeros of g; the
Sylvester-based sign is the one under which the determinant identities above
hold uniformly in n (checked against finite differences of the moment map).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DegenerateResultantError
from .maps import AnalyticMap, CircleGrid, PolynomialMap, circle_values
from .moments import richardson_moment
from .rational import trim

__all__ = [
    "BracketSystem",
    "moment_power_matrix",
    "bracket_matrix",
    "bracket_system",
    "bracket_samples",
    "sylvester_matrix",
    "sylvester_resultant",
    "meromorphic_resultant",
    "derivative_reflection_resultant",
    "solve_string_system",
    "velocities_positive",
    "string_residual",
    "conjugate_moment_map",
    "finite_difference_jacobian",
    "JacobianReport",
    "jacobian_identity_report",
]


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def _power_coeffs(a: np.ndarray, k: int, nmax: int) -> np.ndarray:
    """coeff_i(f^k) for i = 0..nmax with f = z * p(z), p coeffs ``a``."""
    out = np.zeros(nmax + 1, dtype=complex)
    if k == 0:
        out[0] = 1.0
        return out
    pk = np.array([1.0 + 0.0j])
    for _ in range(k):
        pk = np.convolve(pk, a)
    for i in range(k, nmax + 1):
        if i - k < len(pk):
            out[i] = pk[i - k]
    return out


def moment_power_matrix(m: PolynomialMap) -> np.ndarray:
    """The (2n+1) x (2n+1) matrix V of Laurent coefficients of powers of f.

    Block upper/lower triangular with diagonal a0^{|k|}; det V = a0^{n(n+1)}.
    """
    a = np.asarray(m.coeffs, dtype=complex)
    n = len(a) - 1
    V = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    V[n, n] = 1.0
    for k in range(1, n + 1):
        ck = _power_coeffs(a, k, n)
        for i in range(k, n + 1):
            V[n + k, n + i] = ck[i]
            V[n - k, n - i] = np.conj(ck[i])
    return V


def bracket_matrix(m: PolynomialMap) -> np.ndarray:
    """The (2n+1) x (2n+1) matrix U with row i giving coeff_{-i}({f,f*}_t).

    Nonzero bands: for i >= 0 the entry sits at -n <= j <= -i or 0 <= j <= n;
    for i <= 0 at -n <= j <= 0 or -i <= j <= n.  The (0,0) entry is 2 b0.
    """
    b = m.derivative_coeffs()
    n = len(b) - 1

    def bsigned(k: int) -> complex:
        if k >= 0:
            return b[k] if k <= n else 0.0
        return np.conj(b[-k]) if -k <= n else 0.0

    U = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            if i >= 0:
                inside = (-n <= j <= -i) or (0 <= j <= n)
            else:
                inside = (-n <= j <= 0) or (-i <= j <= n)
            if not inside:
                continue
            val = bsigned(-(i + j))
            if i == 0 and j == 0:
                val += bsigned(0)
            U[n + i, n + j] = val
    return U


@dataclass(frozen=True)
class BracketSystem:
    """V and U for one polynomial map, logical indices -n..n."""

    n: int
    power: np.ndarray
    bracket: np.ndarray

    @property
    def jacobian(self) -> np.ndarray:
        """V U = the matrix of partial derivatives dM_k / da_j."""
        return self.power @ self.bracket


def bracket_system(m: PolynomialMap) -> BracketSystem:
    return BracketSystem(m.degree_plus, moment_power_matrix(m), bracket_matrix(m))


# ----------------------------------------------------------------------
# bracket samples on the circle
# ----------------------------------------------------------------------

def bracket_samples(m: AnalyticMap, velocities, grid: CircleGrid) -> np.ndarray:
    """Samples of {f, f*}_t = z f' fdot* + z^{-1} f'* fdot on the grid.

    ``velocities`` holds adot_j (j >= 0) for fdot = sum adot_j z^{j+1}.  On
    the unit circle f'* = conj(f') and fdot* = conj(fdot), so the samples
    are the real values 2 Re[z f' conj(fdot)].
    """
    v = np.asarray(velocities, dtype=complex)
    fdot = circle_values(np.concatenate([[0.0], v]), grid)
    return 2.0 * np.real(grid.nodes * m.derivative_on(grid) * np.conj(fdot))


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


def sylvester_resultant(p, q) -> complex:
    """det of the Sylvester matrix: Res_pol(z - alpha, z - beta) = alpha - beta."""
    return complex(np.linalg.det(sylvester_matrix(p, q)))


def meromorphic_resultant(g, h) -> complex:
    """Res(g, h) for g = sum_0^n b_j z^j and h = sum_0^n c_k z^{-k}.

    ``h`` is passed as the coefficient array (c_0, c_1, ..., c_n) of the
    nonpositive powers.  Defined as
    Res_pol(g(z), z^n h(z)) / (b0^n c0^n); see the module header for the
    relation to the divisor product over g's zeros.  Degenerate data (a pole
    of h at a zero of g, i.e. both constant terms vanishing) is reported as
    an error; h(inf) = c_0 = 0 likewise.
    """
    b = trim(g)
    c = np.asarray(h, dtype=complex)
    n = len(b) - 1
    if len(c) - 1 != n:
        raise ValueError("g and h must have matching order n")
    if n == 0:
        return 1.0 + 0.0j
    if c[0] == 0:
        raise ValueError("h(inf) = c_0 vanishes; resultant undefined")
    if b[0] == 0:
        raise ValueError("g(0) = b_0 vanishes: h's pole sits on a zero of g")
    # z^n h(z) has ascending coefficients (c_n, ..., c_1, c_0)
    znh = c[::-1]
    return sylvester_resultant(b, znh) / (b[0] ** n * c[0] ** n)


def derivative_reflection_resultant(m: PolynomialMap) -> complex:
    """Res(f', f'*): vanishes exactly when f' has two zeros reflected in the
    unit circle (the degeneracy where the string equation cannot hold)."""
    b = m.derivative_coeffs()
    return meromorphic_resultant(b, np.conj(b))


# ----------------------------------------------------------------------
# the string system
# ----------------------------------------------------------------------

def solve_string_system(
    m: PolynomialMap, tol: Tolerances = DEFAULT, sym_tol: float = 1e-10
) -> np.ndarray:
    """Coefficient velocities adot with U adot = e_0 (logical index -n..n).

    These are exactly the derivatives da_j / dM_0 at fixed higher moments.
    Raises :class:`DegenerateResultantError` when U is numerically singular,
    which happens exactly when Res(f', f'*) ~ 0.
    """
    U = bracket_matrix(m)
    sv = np.linalg.svd(U, compute_uv=False)
    if sv[-1] < tol.singular_ratio * sv[0]:
        res = derivative_reflection_resultant(m)
        raise DegenerateResultantError(
            f"string system singular: Res(f', f'*) = {res:.3e}; f' and f'* "
            "share a zero (or nearly so), the string equation cannot hold"
        )
    n = m.degree_plus
    rhs = np.zeros(2 * n + 1, dtype=complex)
    rhs[n] = 1.0
    v = np.linalg.solve(U, rhs)
    flipped = np.conj(v[::-1])
    scale = max(float(np.max(np.abs(v))), 1e-300)
    if float(np.max(np.abs(v - flipped))) > sym_tol * scale:
        raise DegenerateResultantError(
            "solution violates conjugate symmetry; system is ill-conditioned"
        )
    v = 0.5 * (v + flipped)  # exact conjugate symmetry, Im adot_0 = 0
    return v


def velocities_positive(v: np.ndarray) -> np.ndarray:
    """adot_j for j >= 0 from a full logical -n..n solution vector."""
    n = (len(v) - 1) // 2
    return v[n:]


# ----------------------------------------------------------------------
# the Jacobian identity
# ----------------------------------------------------------------------

def conjugate_moment_map(x: np.ndarray) -> np.ndarray:
    """(M_{-n}, ..., M_n) as a polynomial map of the independent variables
    x = (abar_n, ..., abar_1, a_0, a_1, ..., a_n) (logical index -n..n)."""
    x = np.asarray(x, dtype=complex)
    n = (len(x) - 1) // 2
    a = x[n:].copy()
    abar = np.concatenate([[x[n]], x[:n][::-1]])
    out = np.zeros(2 * n + 1, dtype=complex)
    for k in range(0, n + 1):
        out[n + k] = richardson_moment(a, abar, k)
        out[n - k] = richardson_moment(abar, a, k)
    return out


def finite_difference_jacobian(m: PolynomialMap, step: float = 1e-5) -> np.ndarray:
    """Central differences of the conjugate-variable moment map."""
    a = np.asarray(m.coeffs, dtype=complex)
    n = len(a) - 1
    x0 = np.concatenate([np.conj(a[1:])[::-1], a])
    size = 2 * n + 1
    J = np.zeros((size, size), dtype=complex)
    for j in range(size):
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (conjugate_moment_map(xp) - conjugate_moment_map(xm)) / (2 * step)
    return J


@dataclass(frozen=True)
class JacobianReport:
    """Both sides of the determinant identity plus supporting diagnostics."""

    n: int
    det_vu: complex
    rhs: complex
    rel_error: float
    det_v: complex
    det_v_closed: complex
    det_u: complex
    det_u_closed: complex
    det_sylvester: complex | None
    resultant: complex
    fd_max_abs_err: float | None
    fd_step: float | None

    @property
    def ok(self) -> bool:
        return self.rel_error < 1e-10


def jacobian_identity_report(
    m: PolynomialMap, fd_step: float | None = 1e-5
) -> JacobianReport:
    """Check det(V U) = 2 a0^{n^2+3n+1} Res(f', f'*) and the helpers.

    Also validates V U entrywise against finite differences of the moment
    map when ``fd_step`` is given (pass None to skip).
    """
    sys = bracket_system(m)
    n = sys.n
    a0 = m.a0
    b = m.derivative_coeffs()
    det_v = complex(np.linalg.det(sys.power))
    det_u = complex(np.linalg.det(sys.bracket))
    res = derivative_reflection_resultant(m)
    det_vu = complex(np.linalg.det(sys.jacobian))
    rhs = 2.0 * a0 ** (n * n + 3 * n + 1) * res
    rel = abs(det_vu - rhs) / max(abs(rhs), 1e-300)
    det_s = None
    if n >= 1:
        det_s = complex(np.linalg.det(sylvester_matrix(b, np.conj(b)[::-1])))
    fd_err = None
    if fd_step is not None:
        fd = finite_difference_jacobian(m, fd_step)
        fd_err = float(np.max(np.abs(sys.jacobian - fd)))
    return JacobianReport(
        n=n,
        det_vu=det_vu,
        rhs=rhs,
        rel_error=rel,
        det_v=det_v,
        det_v_closed=complex(a0 ** (n * (n + 1))),
        det_u=det_u,
        det_u_closed=2.0 * b[0] ** (2 * n + 1) * res,
        det_sylvester=det_s,
        resultant=res,
        fd_max_abs_err=fd_err,
        fd_step=fd_step,
    )

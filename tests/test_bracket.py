import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from heleshaw.bracket import (
    _conjugate_moment_map,
    _string_matrix,
    _string_solve,
    bracket_matrix,
    bracket_samples,
    derivative_reflection_resultant,
    finite_difference_jacobian,
    jacobian_identity_report,
    log_rel_error,
    moment_power_matrix,
    solve_string_system,
    string_residual,
    sylvester_matrix,
)
from heleshaw.cli import main
from heleshaw.config import DEFAULT
from heleshaw.errors import DegenerateResultantError
from heleshaw.maps import (
    AbcRationalMap,
    CircleGrid,
    PolynomialMap,
    polynomial_roots,
)
from heleshaw.moments import richardson_moments

CARDIOID = PolynomialMap((1.0, 0.3))
GRID = CircleGrid(1024)


def random_map(rng, n, scale=0.25):
    coeffs = np.concatenate(
        [[1.0], scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))]
    )
    if coeffs[-1] == 0:
        coeffs[-1] = scale
    return PolynomialMap(tuple(coeffs))


def jacobian(m):
    """V U, the matrix of partial derivatives dM_k / da_j."""
    return moment_power_matrix(m) @ bracket_matrix(m)


def sylvester_resultant(p, q):
    """Res_pol(p, q): the determinant of the Sylvester matrix."""
    return complex(np.linalg.det(sylvester_matrix(p, q)))


def meromorphic_resultant(g, h):
    """Res(g, h) = Res_pol(g(z), z^n h(z)) / (b0^n c0^n) for general
    g = sum_0^n b_j z^j and h = sum_0^n c_k z^{-k} (``h`` as c_0..c_n)."""
    b = np.asarray(g, dtype=complex)
    c = np.asarray(h, dtype=complex)
    n = len(b) - 1
    if n == 0:
        return 1.0 + 0.0j
    return sylvester_resultant(b, c[::-1]) / (b[0] ** n * c[0] ** n)


# ----------------------------------------------------------------------
# matrix structure
# ----------------------------------------------------------------------

def test_power_matrix_structure_n2():
    # the 5x5 moment-power matrix for n=2 (logical indices -2..2):
    # diag (a0^2, a0, 1, a0, a0^2); off entries conj(a1) and a1 adjacent to
    # the diagonal in the corner blocks; everything else zero.
    a1 = 0.2 + 0.1j
    a2 = 0.05 - 0.15j
    m = PolynomialMap((1.3, a1, a2))
    V = moment_power_matrix(m)
    a0 = 1.3
    want = np.zeros((5, 5), dtype=complex)
    want[0, 0] = a0**2
    want[1, 0] = np.conj(a1)
    want[1, 1] = a0
    want[2, 2] = 1.0
    want[3, 3] = a0
    want[3, 4] = a1
    want[4, 4] = a0**2
    assert_allclose(V, want, atol=1e-15)


def test_bracket_matrix_structure_n2():
    # rows i=-2..2 built from b_{-(i+j)} on the two index bands, 2 b0 center
    m = PolynomialMap((1.3, 0.2 + 0.1j, 0.05 - 0.15j))
    U = bracket_matrix(m)
    b = m.derivative_coeffs()
    bm = np.conj(b)

    want = np.array(
        [
            [0, 0, b[2], 0, b[0]],
            [0, b[2], b[1], b[0], bm[1]],
            [b[2], b[1], 2 * b[0], bm[1], bm[2]],
            [b[1], b[0], bm[1], bm[2], 0],
            [b[0], 0, bm[2], 0, 0],
        ],
        dtype=complex,
    )
    assert_allclose(U, want, atol=1e-15)


def test_bracket_matrix_hermitian_persymmetry():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        U = bracket_matrix(random_map(rng, n))
        flipped = np.conj(U[::-1, ::-1])
        assert_allclose(U, flipped, atol=1e-15)


def test_n0_matrices():
    m = PolynomialMap((0.8,))
    assert_allclose(moment_power_matrix(m), [[1.0]])
    assert_allclose(bracket_matrix(m), [[1.6]])


def _loop_power_matrix(m):
    """V as the module docstring defines it, entry by entry:
    V[k, i] = coeff_i(f^k) for 0 <= k <= i <= n and
    V[k, i] = conj(coeff_{-i}(f^{-k})) for -n <= i <= k < 0."""
    a = np.asarray(m.coeffs, dtype=complex)
    n = len(a) - 1
    powers = [np.array([1.0 + 0.0j])]  # p^k for f = z p
    for _ in range(n):
        powers.append(np.convolve(powers[-1], a))

    def coeff(i, k):  # coeff_i(f^k) = coeff_{i-k}(p^k)
        return powers[k][i - k] if i - k < len(powers[k]) else 0.0

    V = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    for k in range(-n, n + 1):
        for i in range(-n, n + 1):
            if 0 <= k <= i:
                V[n + k, n + i] = coeff(i, k)
            elif i <= k < 0:
                V[n + k, n + i] = np.conj(coeff(-i, -k))
    return V


def _loop_bracket_matrix(m):
    """U as the module docstring and bracket_matrix define it, entry by entry:
    U[i, j] = b_{-(i+j)} + b_0 delta_{i0} delta_{0j} on the bands
    -n <= j <= -i or 0 <= j <= n (i >= 0), -n <= j <= 0 or -i <= j <= n
    (i <= 0), with b_{-j} = conj(b_j) and b_j = 0 for |j| > n."""
    b = m.derivative_coeffs()
    n = len(b) - 1

    def bsigned(k):
        if abs(k) > n:
            return 0.0
        return b[k] if k >= 0 else np.conj(b[-k])

    U = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            if i >= 0:
                inside = -n <= j <= -i or 0 <= j <= n
            else:
                inside = -n <= j <= 0 or -i <= j <= n
            if inside:
                U[n + i, n + j] = bsigned(-(i + j)) + (b[0] if i == j == 0 else 0.0)
    return U


def test_matrices_bitwise_equal_loop_oracle():
    rng = np.random.default_rng(11)
    for n in range(1, 33):
        for _ in range(3):
            a0 = rng.uniform(0.3, 2.0)
            scale = rng.uniform(0.05, 0.5)
            m = PolynomialMap(tuple(np.concatenate(
                [[a0], scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))])))
            assert np.array_equal(moment_power_matrix(m), _loop_power_matrix(m)), n
            assert np.array_equal(bracket_matrix(m), _loop_bracket_matrix(m)), n


# ----------------------------------------------------------------------
# determinants and resultants
# ----------------------------------------------------------------------

def test_det_v_closed_form():
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        m = random_map(rng, n)
        V = moment_power_matrix(m)
        assert abs(np.linalg.det(V) - m.a0 ** (n * (n + 1))) < 1e-12 * m.a0 ** (
            n * (n + 1)
        )


def test_det_u_closed_forms():
    rng = np.random.default_rng(6)
    for n in range(1, 6):
        m = random_map(rng, n)
        U = bracket_matrix(m)
        det_u = np.linalg.det(U)
        b = m.derivative_coeffs()
        res = derivative_reflection_resultant(m)
        want = 2.0 * b[0] ** (2 * n + 1) * res
        assert abs(det_u - want) < 1e-10 * max(abs(want), 1e-12)
        S = sylvester_matrix(b, np.conj(b)[::-1])
        assert abs(det_u - 2.0 * b[0] * np.linalg.det(S)) < 1e-10 * max(
            abs(det_u), 1e-12
        )


def test_cardioid_det_u_value():
    # brute 3x3 determinant: 2 b0 (|b1|^2 - b0^2) = -1.28; the magnitude
    # matches 2 b0^3 |Res| = 2 * 0.64, the sign follows the Sylvester-based
    # resultant convention documented in the module header
    U = bracket_matrix(CARDIOID)
    det_u = np.linalg.det(U)
    assert_allclose(det_u, -1.28, rtol=1e-14)
    res = derivative_reflection_resultant(CARDIOID)
    assert_allclose(det_u, 2.0 * res, rtol=1e-13)
    assert_allclose(abs(det_u), 1.28, rtol=1e-14)


def test_sylvester_convention():
    # Res_pol(z - alpha, z - beta) = alpha - beta under our row order
    alpha, beta = 2.0, 5.0
    assert_allclose(sylvester_resultant([-alpha, 1.0], [-beta, 1.0]), alpha - beta)


def test_sylvester_cardioid_2x2():
    # f' = 1 + 0.6 z and z f'*(z) = z + 0.6: det [[0.6, 1], [1, 0.6]] = -0.64
    val = sylvester_resultant([1.0, 0.6], [0.6, 1.0])
    assert_allclose(val, -0.64, rtol=1e-14)


def test_sylvester_degenerate_input():
    with pytest.raises(ValueError):
        sylvester_matrix([1.0], [1.0, 2.0])


def test_meromorphic_resultant_constants():
    # n = 0: the empty resultant is 1
    assert derivative_reflection_resultant(PolynomialMap((2.0,))) == 1.0
    assert _string_solve(PolynomialMap((2.0,)).derivative_coeffs()).resultant == 1.0
    assert _string_solve(PolynomialMap((0.8,)).derivative_coeffs()).log_resultant == 0.0
    assert meromorphic_resultant([2.0], [3.0]) == 1.0


def test_derivative_reflection_resultant_matches_general_form_bitwise():
    # Res(f', f'*) is the general meromorphic resultant at g = f', h = f'*,
    # with the same arithmetic, so step decisions do not move
    rng = np.random.default_rng(21)
    for n in range(1, 17):
        m = decaying_map(rng, n, a0=0.6 + 0.1 * n)
        b = m.derivative_coeffs()
        assert derivative_reflection_resultant(m) == meromorphic_resultant(b, np.conj(b))
    # an exactly singular Sylvester matrix gives exactly 0
    assert derivative_reflection_resultant(PolynomialMap((1.0, 0.5))) == 0j


def test_meromorphic_resultant_cardioid_closed_form():
    # |Res| = 1 - 4|a1|^2; the Sylvester-based convention makes the n=1
    # value come out as 4|a1|^2 - 1 (module header documents the sign).
    # det W = det U = 2 b0^3 Res gives the same value, sign included
    for a1 in (0.3, 0.2 + 0.1j, 0.6):
        m = PolynomialMap((1.0, a1))
        res = derivative_reflection_resultant(m)
        assert_allclose(res, 4.0 * abs(a1) ** 2 - 1.0, rtol=1e-13)
        got = _string_solve(m.derivative_coeffs()).resultant
        assert_allclose(got, 4.0 * abs(a1) ** 2 - 1.0, rtol=1e-13)


@pytest.mark.parametrize("a0", [0.5, 2.0])
def test_resultant_from_det_w_n64_log_space(a0):
    # log Res from slogdet(W) against the scaled Sylvester determinant of
    # the Jacobian report; neither side leaves log space
    for seed in (3, 4):
        m = decaying_map(np.random.default_rng(seed), 64, a0=a0)
        got = _string_solve(m.derivative_coeffs()).log_resultant
        want = jacobian_identity_report(m, fd_step=None).log_resultant
        assert np.isfinite(got.real)
        assert log_rel_error(got, want) < 1e-12


def test_meromorphic_resultant_vanishes_at_half():
    m = PolynomialMap((1.0, 0.5))
    assert abs(derivative_reflection_resultant(m)) < 1e-12


def test_meromorphic_resultant_against_divisor_product():
    # |Res| equals the product of f'* over the zeros of f', normalized by
    # the value at infinity; the sign alternates with n relative to the
    # Sylvester-quotient definition
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4):
        m = random_map(rng, n)
        b = m.derivative_coeffs()
        res = derivative_reflection_resultant(m)
        roots = polynomial_roots(b)
        prod = np.prod([np.sum(np.conj(b) * w ** (-np.arange(n + 1)))
                        for w in roots]) / np.conj(b[0]) ** n
        assert_allclose(res, (-1.0) ** n * prod, rtol=1e-9)


# ----------------------------------------------------------------------
# Jacobian identity
# ----------------------------------------------------------------------

def test_jacobian_identity_cardioid():
    rep = jacobian_identity_report(CARDIOID)
    det_vu, det_v = np.exp(rep.log_det_vu), np.exp(rep.log_det_v)
    assert_allclose(det_vu, det_v * np.linalg.det(bracket_matrix(CARDIOID)))
    assert_allclose(abs(det_vu), 1.28, rtol=1e-13)
    assert rep.rel_error < 1e-12
    assert rep.fd_max_abs_err < 1e-6


def test_jacobian_identity_disk():
    rep = jacobian_identity_report(PolynomialMap((0.8,)))
    assert_allclose(np.exp(rep.log_det_vu), 2.0 * 0.8, rtol=1e-14)
    # n=0: the empty resultant is 1
    assert_allclose(np.exp(rep.log_rhs), 2.0 * 0.8, rtol=1e-14)
    assert rep.rel_error < 1e-14


def test_jacobian_identity_random_degree3():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = random_map(rng, 3, scale=0.3 / np.sqrt(2))
        rep = jacobian_identity_report(m, fd_step=None)
        assert rep.rel_error < 1e-10


def test_finite_difference_entrywise_up_to_n3():
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        m = random_map(rng, n)
        fd = finite_difference_jacobian(m, 1e-5)
        assert np.max(np.abs(jacobian(m) - fd)) < 1e-6


def decaying_map(rng, n, a0=1.0, power=2):
    """a_0 = a0 and |a_j| <= 0.3 a0 / (j+1)^power with uniform phases."""
    j = np.arange(1, n + 1)
    mag = 0.3 * a0 / (j + 1) ** power * rng.uniform(0.0, 1.0, n)
    return PolynomialMap(tuple(
        np.concatenate([[a0], mag * np.exp(2j * np.pi * rng.uniform(size=n))])))


@pytest.mark.parametrize("n", [16, 24, 32, 48])
def test_finite_difference_entrywise_large_n(n):
    m = decaying_map(np.random.default_rng(100 + n), n)
    fd = finite_difference_jacobian(m, 1e-5)
    assert np.max(np.abs(jacobian(m) - fd)) < 1e-6


def _loop_moment_map(x):
    """(M_-n..M_n) at one point x = (abar_n..abar_1, a_0..a_n), by two
    single-map Richardson sums."""
    n = (len(x) - 1) // 2
    a, abar = x[n:], x[n::-1]
    out = np.zeros(2 * n + 1, dtype=complex)
    out[n:] = richardson_moments(a, abar, n)
    out[n::-1] = richardson_moments(abar, a, n)
    return out


def _loop_finite_difference_jacobian(m, step):
    """The central differences column by column, two points per column."""
    a = np.asarray(m.coeffs, dtype=complex)
    x0 = np.concatenate([np.conj(a[:0:-1]), a])
    J = np.zeros((len(x0), len(x0)), dtype=complex)
    for j in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (_loop_moment_map(xp) - _loop_moment_map(xm)) / (2 * step)
    return J


@pytest.mark.parametrize("power", [1, 2])
def test_finite_difference_batch_matches_per_column_loop(power):
    # the batch evaluates the same points by the same central formula; only
    # the summation order of the power rows differs.  Every n takes one a0
    # of 0.5, 1 and 2 in turn.  Entries of V U grow like a0^n, so the bound
    # is relative to max(1, max |V U|), the scale the report judges the
    # finite differences by
    rng = np.random.default_rng(40 + power)
    for n in range(1, 49):
        m = decaying_map(rng, n, (0.5, 1.0, 2.0)[n % 3], power)
        fd = finite_difference_jacobian(m, 1e-5)
        scale = max(1.0, float(np.max(np.abs(jacobian(m)))))
        err = np.max(np.abs(fd - _loop_finite_difference_jacobian(m, 1e-5)))
        assert err <= 1e-10 * scale, (n, err, scale)


@pytest.mark.parametrize("a0, log_rhs_real", [(2.0, 777.6), (0.5, -776.4)])
def test_jacobian_identity_n32_outside_float_range(a0, log_rhs_real):
    # |det(V U)| ~ a0^1153 overflows (a0 = 2) or underflows (a0 = 0.5) a
    # double; the log-space comparison still resolves both sides
    m = decaying_map(np.random.default_rng(3), 32, a0)
    rep = jacobian_identity_report(m, fd_step=None)
    assert np.isfinite(rep.log_rhs) and np.isfinite(rep.log_det_vu)
    assert abs(rep.log_rhs.real - log_rhs_real) < 1.0
    assert rep.rel_error < 1e-10


# Maps drawn by the verify-sweep workload (seed 107 op 19, seed 1022 op 43,
# |a_j| <= 0.3 / (j+1)) on which the determinant of the formed product V U
# missed the identity by 1.73e-10 (n = 24) and 4.7e-10 (n = 16): kappa(V U)
# is about 1e7, and det V + det U reads 1.6e-13 and 3.0e-11
SWEEP_107_OP19 = (
    1.0,
    0.10808521978978848-0.090434544312802304j,
    -0.005537892712687584-0.0051574772716936656j,
    -0.024580444562376725-0.049172348061246422j,
    -1.974486577790309e-05-0.0096285627152194082j,
    0.02662467955901004-0.01862812528403587j,
    0.023733068563436772-0.012835992531438434j,
    -0.018121037612092557+0.018488853399788691j,
    -0.0010729065029315846+0.0041894454712705304j,
    -0.017061385758132173-0.014555850961499438j,
    0.011995406348523982-0.0046449853301969999j,
    -0.0007817641174586471+0.0013481357716521097j,
    -0.022428208637544963+0.0028518088345345798j,
    0.008987700379219804-0.002494719186809706j,
    -0.005565624232617194+0.0066516828940312543j,
    -0.01712831967388738-0.0036962823758595596j,
    0.003475979648416284-0.0016851572521072544j,
    -0.00719916259256403+0.0016015301102846951j,
    0.001743070673215014+0.0044437034599031471j,
    0.007522595672195307-0.0094532255709301322j,
    -7.001368713465482e-05-0.00092828562327547154j,
    0.0030999535082386867+0.0048317218445062425j,
    0.00374021198510972-0.0060351532946460208j,
    -0.005944425230011616-0.0086686586005503049j,
    0.0020396936579852713+0.0022392207289294521j,
)

SWEEP_1022_OP43 = (
    1.0,
    0.12777823601521365+0.054483542833798727j,
    -0.00022071115445034225+0.0052295609796571968j,
    0.01133046972780792-0.028321158971753586j,
    0.0290043393683613+0.026180638605261822j,
    -0.004925191328445649+0.005521315345314603j,
    -0.027088911734394885+0.032870924008754708j,
    -0.018088945098093962-0.013189407064654664j,
    -0.0014070740066994972-0.0022525879382164055j,
    -0.006621677754843699+0.0083903184304628745j,
    0.018984966605590365-0.0026453425380415525j,
    0.0038658856618501527-0.007559432048099138j,
    0.011189872266526395-0.007513741429902434j,
    0.0009657888027343925+0.016060980946726127j,
    0.000957094131109575+0.0028655092385703324j,
    -0.015774156483945697-0.0061039683359927462j,
    0.011427665082944643+0.0049866164123545534j,
)


@pytest.mark.parametrize("coeffs", [SWEEP_107_OP19, SWEEP_1022_OP43],
                         ids=["n24", "n16"])
def test_jacobian_checks_pass_on_ill_conditioned_sweep_maps(coeffs, capsys):
    arg = "--coeffs=" + ",".join(repr(complex(c)) for c in coeffs)
    code = main(["--json", "jacobian", arg])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["status"] for c in checks} == dict.fromkeys(
        ["jacobian_identity", "det_v_closed_form", "det_u_resultant_form",
         "det_u_sylvester_form", "jacobian_finite_difference"], "pass")
    assert code == 0


def test_log_rel_error_resolves_tiny_and_huge_values():
    # the old linear comparison read 0 for two underflowed sides
    for mag in (-900.0, 0.0, 900.0):
        assert abs(log_rel_error(mag + 0j, mag + np.log(2.0)) - 0.5) < 1e-12
        assert log_rel_error(complex(mag, 0.5), complex(mag, 0.5 + 2 * np.pi)) < 1e-14
        assert abs(log_rel_error(complex(mag, np.pi), complex(mag, 0.0)) - 2.0) < 1e-12


def test_jacobian_identity_degenerate_map_raises():
    # Res(f', f'*) = 0: both sides vanish, which used to report rel_error 0
    with pytest.raises(DegenerateResultantError):
        jacobian_identity_report(PolynomialMap((1.0, 0.5)))


def _mp_det(M):
    """Determinant by Gaussian elimination with partial pivoting in mpmath."""
    import mpmath

    A = [[mpmath.mpc(complex(x)) for x in row] for row in M]
    N = len(A)
    det = mpmath.mpc(1)
    for k in range(N):
        p = max(range(k, N), key=lambda i: abs(A[i][k]))
        if p != k:
            A[k], A[p] = A[p], A[k]
            det = -det
        piv = A[k][k]
        det *= piv
        cols = [j for j in range(k + 1, N) if A[k][j] != 0]
        for i in range(k + 1, N):
            if A[i][k] != 0:
                f = A[i][k] / piv
                for j in cols:
                    A[i][j] -= f * A[k][j]
    return det


def _check_against_50_digit_oracle(n, a0):
    # the float matrices are exact inputs; only the determinants are taken
    # at 50 digits.  det is multiplicative, so det(V U) = det V det U.
    import mpmath

    m = decaying_map(np.random.default_rng(3), n, a0)
    rep = jacobian_identity_report(m, fd_step=None)
    b = m.derivative_coeffs()
    with mpmath.workdps(50):
        a0 = mpmath.mpf(m.a0)
        det_vu = _mp_det(moment_power_matrix(m)) * _mp_det(bracket_matrix(m))
        rhs = 2 * a0 ** (n * n + 3 * n + 1) * _mp_det(
            sylvester_matrix(b, np.conj(b)[::-1])) / a0 ** (2 * n)
        assert abs(complex(mpmath.log(det_vu)) - rep.log_det_vu) < 1e-11
        assert abs(complex(mpmath.log(rhs)) - rep.log_rhs) < 1e-11
        assert abs(det_vu / rhs - 1) < 1e-40


@pytest.mark.parametrize("a0", [2.0, 0.5])
def test_jacobian_identity_n32_against_50_digit_oracle(a0):
    _check_against_50_digit_oracle(32, a0)


def test_jacobian_identity_n64_against_50_digit_oracle():
    # cond(V U) ~ 1e19 here before the power-of-two equilibration
    _check_against_50_digit_oracle(64, 2.0)


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("a0", [0.5, 1.0, 2.0])
def test_jacobian_identity_n64(a0, seed):
    # V U's rows scale like a0^|k|; without equilibration slogdet lost up
    # to 6 digits here at a0 = 2
    rep = jacobian_identity_report(decaying_map(np.random.default_rng(seed), 64, a0),
                                   fd_step=None)
    assert rep.rel_error < 1e-10
    assert abs(rep.log_det_u - rep.log_det_u_closed) < 1e-10
    assert abs(rep.log_det_v - rep.log_det_v_closed) < 1e-10


def test_log_det_equilibration_is_exact():
    from heleshaw.bracket import _log_det

    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    d = np.linalg.det(A)
    # power-of-two row and column factors change log det by exact multiples
    # of log 2 and leave the phase alone
    r, c = np.arange(-3, 3), np.array([40, -40, 0, 7, -7, 1])
    B = A * 2.0 ** r[:, None] * 2.0 ** c[None, :]
    want = np.log(d) + (r.sum() + c.sum()) * np.log(2.0)
    assert abs(_log_det(A) - np.log(d)) < 1e-13
    assert abs(_log_det(B) - want) < 1e-13
    # far outside the float range of the determinant itself
    huge = np.diag([2.0**1000] * 4 + [1j]).astype(complex)
    assert_allclose(_log_det(huge), complex(4000 * np.log(2.0), np.pi / 2), rtol=1e-15)
    for zero in (np.zeros((3, 3)), np.eye(3) * [1, 0, 1], (np.eye(3) * [1, 0, 1]).T):
        with pytest.raises(DegenerateResultantError):
            _log_det(zero)
    with pytest.raises(DegenerateResultantError), np.errstate(invalid="ignore"):
        _log_det(np.array([[np.inf, 1.0], [1.0, 1.0]]))


def test_conjugate_moment_map_consistency():
    # with abar = conj(a) the map reproduces ordinary moments and satisfies
    # M_{-k} = conj(M_k)
    a = np.array([1.0, 0.2 + 0.1j, -0.05j])
    x = np.concatenate([np.conj(a[1:])[::-1], a])
    mv = _conjugate_moment_map(x[None])[0]
    assert_allclose(mv[1], np.conj(mv[3]), atol=1e-15)
    assert_allclose(mv[0], np.conj(mv[4]), atol=1e-15)
    assert abs(mv[2].imag) < 1e-15


# ----------------------------------------------------------------------
# the string system
# ----------------------------------------------------------------------

def test_string_system_disk():
    v = solve_string_system(PolynomialMap((0.8,)))
    assert_allclose(v, [1.0 / 1.6])


def test_string_system_degeneracy_raised():
    with pytest.raises(DegenerateResultantError):
        solve_string_system(PolynomialMap((1.0, 0.5)))
    with pytest.raises(DegenerateResultantError):
        solve_string_system(PolynomialMap((1.0, 0.5 - 1e-13)))


@pytest.mark.parametrize("a1", [np.nan, np.inf, 1e200])
def test_string_system_non_finite_raises_typed(a1):
    # nan, inf and overflowing coefficients give a non-finite inverse or
    # norm, which the gate reports as the typed error, not as LinAlgError
    with np.errstate(all="ignore"), pytest.raises(DegenerateResultantError):
        solve_string_system(PolynomialMap((1.0, a1)))


def test_string_system_conjugate_symmetry():
    # the real solve builds adot_{-j} from adot_j, so the symmetry is exact
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 8, 16, 32):
        m = random_map(rng, n) if n <= 3 else decaying_map(rng, n)
        v = solve_string_system(m)
        assert np.array_equal(v, np.conj(v[::-1]))
        assert v[n].imag == 0.0


def _basis(n):
    """Columns e_0, (e_j + e_-j)/sqrt2, i(e_j - e_-j)/sqrt2 (logical -n..n)."""
    T = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    T[n, 0] = 1.0
    for j in range(1, n + 1):
        T[n + j, j] = T[n - j, j] = 1 / np.sqrt(2)
        T[n + j, n + j] = 1j / np.sqrt(2)
        T[n - j, n + j] = -1j / np.sqrt(2)
    return T


def _fold(U):
    """W = T^H U T from U's rows i >= 0: row 0 is Re of U's row 0, rows c_i
    and s_i are sqrt2 Re and sqrt2 Im of U's row i, columns pair j with -j."""
    n = (len(U) - 1) // 2
    top = U[n:]  # rows i = 0..n
    pos, neg = top[:, n + 1 :], top[:, :n][:, ::-1]  # columns j and -j
    s, d = pos + neg, pos - neg  # i d has real part -Im d, imaginary part Re d
    W = np.concatenate(
        [
            np.concatenate([top[:, n : n + 1].real, s.real, -d.imag], axis=1),
            np.concatenate([top[1:, n : n + 1].imag, s[1:].imag, d[1:].real], axis=1),
        ]
    )
    W[0, 1:] /= np.sqrt(2.0)
    W[1:, 0] *= np.sqrt(2.0)
    return W


@pytest.mark.parametrize("n", list(range(33)) + [64])
def test_real_bracket_matrix_is_unitary_transform_of_u(n):
    # W = T^H U T is real with U's singular values and determinant.  W is
    # gathered from f', and it is U folded to the bit (signed zeros
    # included), so velocities and gate decisions are those of the fold
    rng = np.random.default_rng(500 + n)
    maps = [decaying_map(rng, n), decaying_map(rng, n, a0=1.3),
            decaying_map(rng, n, a0=0.5), decaying_map(rng, n, a0=2.0),
            random_map(rng, n, scale=0.1 / max(n, 1)),
            PolynomialMap((0.8,) + tuple(0.3 * rng.uniform(0.1, 1.0, n) / (n + 1)))]
    for m in maps:
        U = bracket_matrix(m)
        W = _string_matrix(m.derivative_coeffs())
        T = _basis(n)
        assert W.dtype == np.float64
        assert W.tobytes() == _fold(U).tobytes()
        assert_allclose(W, T.conj().T @ U @ T, rtol=0, atol=1e-15 * np.max(np.abs(U)))
        su = np.linalg.svd(U, compute_uv=False)
        sw = np.linalg.svd(W, compute_uv=False)
        assert np.max(np.abs(sw - su)) <= 1e-13 * su[0]
        det_u = np.linalg.det(U)
        assert abs(np.linalg.det(W) - det_u) <= 1e-13 * abs(det_u)


@pytest.mark.parametrize("n", range(33))
def test_real_solve_matches_complex_solve(n):
    # oracle: the full complex system U adot = e_0
    rng = np.random.default_rng(600 + n)
    for m in (decaying_map(rng, n), random_map(rng, n, scale=0.1 / max(n, 1))):
        rhs = np.zeros(2 * n + 1, dtype=complex)
        rhs[n] = 1.0
        want = np.linalg.solve(bracket_matrix(m), rhs)
        got = solve_string_system(m)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _svd_gate_rejects(m):
    """The singular-value test the real solve's gate must cover."""
    sv = np.linalg.svd(bracket_matrix(m), compute_uv=False)
    return bool(sv[-1] < DEFAULT.singular_ratio * sv[0])


def _raises(m):
    try:
        solve_string_system(m)
    except DegenerateResultantError:
        return True
    return False


def _shell_scale(a):
    """Largest s with every zero of f' outside the disk for a_j -> s a_j."""
    def zeros_inside(s):
        b = np.arange(1, len(a) + 1) * np.concatenate([[a[0]], s * a[1:]])
        return int(np.sum(np.abs(np.roots(b[::-1])) < 1.0))

    lo, hi = 0.0, 1.0
    while zeros_inside(hi) == 0:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if zeros_inside(mid) == 0 else (lo, mid)
    return lo


EPS_SWEEP = [10.0 ** -k for k in np.arange(1.0, 16.5, 0.5)] + [0.0]


def test_gate_covers_svd_test_on_cardioid_sweep():
    # a1 = 0.5 - eps runs into the Res = 0 shell at eps = 0
    rejected = 0
    for eps in EPS_SWEEP:
        m = PolynomialMap((1.0, 0.5 - eps))
        if _svd_gate_rejects(m):
            rejected += 1
            assert _raises(m), eps
    assert rejected >= 3


@pytest.mark.parametrize("n", [2, 4, 16])
def test_gate_covers_svd_test_toward_shell(n):
    rng = np.random.default_rng(700 + n)
    for _ in range(2):
        a = np.asarray(decaying_map(rng, n).coeffs)
        s = _shell_scale(a)
        rejected = 0
        for eps in EPS_SWEEP:
            m = PolynomialMap(tuple(np.concatenate([[1.0], s * (1 - eps) * a[1:]])))
            if _svd_gate_rejects(m):
                rejected += 1
                assert _raises(m), eps
        assert rejected >= 3


def test_gate_covers_svd_test_on_acceptance_corpus():
    for a1 in (0.5, 0.5j, 0.5 * np.exp(0.3j)):
        m = PolynomialMap((1.0, a1))
        assert _svd_gate_rejects(m) and _raises(m)


@settings(max_examples=40)
@given(n=st.integers(1, 24), data=st.data())
def test_string_solution_properties(n, data):
    # |a_j| <= 0.3 / (j+1)^2 keeps sum (j+1)|a_j| < 1, so f' has no zero in
    # the closed disk and the system is well away from the Res = 0 shell
    mags = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    phases = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
    j = np.arange(1, n + 1)
    a = 0.3 / (j + 1) ** 2 * np.asarray(mags) * np.exp(1j * np.asarray(phases))
    m = PolynomialMap(tuple(np.concatenate([[1.0], a])))
    v = solve_string_system(m)
    assert np.array_equal(v, np.conj(v[::-1]))
    assert string_residual(m, v[n:], GRID) < 1e-8


def test_string_residual_end_to_end():
    v = solve_string_system(CARDIOID)
    res = string_residual(CARDIOID, v[CARDIOID.degree_plus:], GRID)
    assert res < 1e-8


def test_string_residual_random_maps():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = random_map(rng, int(rng.integers(1, 4)))
        v = solve_string_system(m)
        assert string_residual(m, v[m.degree_plus:], GRID) < 1e-8


def test_string_residual_zero_velocity():
    assert_allclose(string_residual(CARDIOID, np.zeros(2), GRID), 1.0)


def test_string_residual_exact_disk():
    # f = sqrt(1+t) z at t=0: adot_0 = 1/2 solves the system exactly
    res = string_residual(PolynomialMap((1.0,)), [0.5], GRID)
    assert res < 1e-14


# ----------------------------------------------------------------------
# bracket samples
# ----------------------------------------------------------------------

def test_bracket_rigid_disk_expansion():
    s = bracket_samples(PolynomialMap((1.0,)), [0.5], GRID)
    assert np.max(np.abs(s - 1.0)) < 1e-14


def test_bracket_rotation_is_zero():
    s = bracket_samples(PolynomialMap((1.0,)), [1j], GRID)
    assert np.max(np.abs(s)) < 1e-14


def test_bracket_real_on_circle():
    v = solve_string_system(CARDIOID)[CARDIOID.degree_plus:]
    s = bracket_samples(CARDIOID, v, GRID)
    assert np.max(np.abs(s.imag)) < 1e-13


def test_bracket_samples_match_direct_formula():
    # z f' fdot* + z^{-1} f'* fdot with every factor evaluated directly
    vel = np.array([0.4, 0.1 - 0.2j, 0.05j])
    z = GRID.nodes
    fdot = sum(v * z ** (j + 1) for j, v in enumerate(vel))
    fdot_star = sum(np.conj(v) * z ** -(j + 1) for j, v in enumerate(vel))
    for m in (PolynomialMap((1.0, 0.2 + 0.1j, 0.1)), AbcRationalMap(0.4, 2.0, 2.0)):
        fp = m.derivative_rational()
        direct = z * fp(z) * fdot_star + fp.reflect()(z) * fdot / z
        assert_allclose(bracket_samples(m, vel, GRID), direct, rtol=0, atol=1e-13)


def test_bracket_coefficient_slice_symmetry():
    # Laurent coefficients of the sampled bracket obey c_{-i} = conj(c_{+i})
    # for any conjugate-symmetric velocity vector
    m = PolynomialMap((1.0, 0.2 + 0.1j, 0.1))
    vel = np.array([0.4, 0.1 - 0.2j, 0.05j])
    hat = np.fft.fft(bracket_samples(m, vel, GRID)) / GRID.size
    for i in (1, 2):
        assert_allclose(hat[-i], np.conj(hat[i]), atol=1e-13)


# ----------------------------------------------------------------------
# degeneracy equivalence
# ----------------------------------------------------------------------

def test_degeneracy_equivalence_res_and_det():
    # |Res| < 1e-12 exactly when |det U| < 1e-10 |2 b0^{2n+1}| on a small
    # test set including the reflected-zero configuration |a1| = 1/2
    test_maps = [
        PolynomialMap((1.0, 0.5)),
        PolynomialMap((1.0, 0.5j)),
        PolynomialMap((1.0, 0.3)),
        PolynomialMap((1.0, 0.2, 0.1)),
    ]
    for m in test_maps:
        n = m.degree_plus
        b0 = m.derivative_coeffs()[0]
        res = derivative_reflection_resultant(m)
        det_u = np.linalg.det(bracket_matrix(m))
        lhs = abs(res) < 1e-12
        rhs = abs(det_u) < 1e-10 * abs(2.0 * b0 ** (2 * n + 1))
        assert lhs == rhs

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heleshaw.bracket import (
    bracket_matrix,
    bracket_samples,
    bracket_system,
    conjugate_moment_map,
    derivative_reflection_resultant,
    finite_difference_jacobian,
    jacobian_identity_report,
    meromorphic_resultant,
    moment_power_matrix,
    solve_string_system,
    string_residual,
    sylvester_matrix,
    sylvester_resultant,
    velocities_positive,
)
from heleshaw.errors import DegenerateResultantError
from heleshaw.maps import (
    AbcRationalMap,
    CircleGrid,
    PolynomialMap,
    laurent_slice,
    polynomial_roots,
)

CARDIOID = PolynomialMap((1.0, 0.3))
GRID = CircleGrid(1024)


def random_map(rng, n, scale=0.25):
    coeffs = np.concatenate(
        [[1.0], scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))]
    )
    if coeffs[-1] == 0:
        coeffs[-1] = scale
    return PolynomialMap(tuple(coeffs))


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
        sylvester_resultant([1.0], [1.0, 2.0])


def test_meromorphic_resultant_constants():
    assert meromorphic_resultant([2.0], [3.0]) == 1.0


def test_meromorphic_resultant_cardioid_closed_form():
    # |Res| = 1 - 4|a1|^2; the Sylvester-based convention makes the n=1
    # value come out as 4|a1|^2 - 1 (module header documents the sign)
    for a1 in (0.3, 0.2 + 0.1j):
        m = PolynomialMap((1.0, a1))
        res = derivative_reflection_resultant(m)
        assert_allclose(res, 4.0 * abs(a1) ** 2 - 1.0, rtol=1e-13)


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


def test_meromorphic_resultant_degenerate_inputs():
    with pytest.raises(ValueError):
        meromorphic_resultant([1.0, 1.0], [0.0, 1.0])  # h(inf) = 0
    with pytest.raises(ValueError):
        meromorphic_resultant([0.0, 1.0], [1.0, 1.0])  # pole of h on zero of g


# ----------------------------------------------------------------------
# Jacobian identity
# ----------------------------------------------------------------------

def test_jacobian_identity_cardioid():
    rep = jacobian_identity_report(CARDIOID)
    assert_allclose(rep.det_vu, rep.det_v * np.linalg.det(bracket_matrix(CARDIOID)))
    assert_allclose(abs(rep.det_vu), 1.28, rtol=1e-13)
    assert rep.rel_error < 1e-12
    assert rep.fd_max_abs_err < 1e-6


def test_jacobian_identity_disk():
    rep = jacobian_identity_report(PolynomialMap((0.8,)))
    assert_allclose(rep.det_vu, 2.0 * 0.8, rtol=1e-14)
    assert_allclose(rep.rhs, 2.0 * 0.8, rtol=1e-14)  # n=0: empty resultant = 1
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
        sys = bracket_system(m)
        fd = finite_difference_jacobian(m, 1e-5)
        assert np.max(np.abs(sys.jacobian - fd)) < 1e-6


def test_conjugate_moment_map_consistency():
    # with abar = conj(a) the map reproduces ordinary moments and satisfies
    # M_{-k} = conj(M_k)
    a = np.array([1.0, 0.2 + 0.1j, -0.05j])
    x = np.concatenate([np.conj(a[1:])[::-1], a])
    mv = conjugate_moment_map(x)
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


def test_string_system_conjugate_symmetry():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        m = random_map(rng, n)
        v = solve_string_system(m)
        assert np.max(np.abs(v - np.conj(v[::-1]))) < 1e-12
        assert v[n].imag == 0.0


def test_string_residual_end_to_end():
    v = solve_string_system(CARDIOID)
    res = string_residual(CARDIOID, velocities_positive(v), GRID)
    assert res < 1e-8


def test_string_residual_random_maps():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = random_map(rng, int(rng.integers(1, 4)))
        v = solve_string_system(m)
        assert string_residual(m, velocities_positive(v), GRID) < 1e-8


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
    v = velocities_positive(solve_string_system(CARDIOID))
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
    s = bracket_samples(m, vel, GRID)
    sl = laurent_slice(s, -2, 2)
    for i in (1, 2):
        assert_allclose(sl[-i], np.conj(sl[i]), atol=1e-13)


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

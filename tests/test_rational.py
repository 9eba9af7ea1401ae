import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from heleshaw.errors import PoleProximityError, ResidueError
from heleshaw.rational import (
    RationalFunction,
    pder,
    pmul,
    pval,
    series_div,
    trim,
)



def test_pval_scalar_matches_array_path():
    p = np.array([1.0, -0.5j, 0.25, 2.0 + 1.0j, -0.125])
    for z in (0.0, 0.3 - 0.7j, 1.5j):
        assert_allclose(pval(p, z), pval(p, np.array([z]))[0], rtol=1e-15)
        assert isinstance(pval(p, z), complex)


def test_scalar_call_is_pval_quotient():
    # a point takes pval's scalar path: bitwise its quotient, a Python complex
    rng = np.random.default_rng(5)
    r = RationalFunction(rng.standard_normal(257) + 1j * rng.standard_normal(257),
                         [2.0, -0.5j, 0.25])
    for z in (0.0, 0.3 - 0.7j, np.complex128(-0.9j), np.asarray(0.5 + 0.5j)):
        v = r(z)
        assert isinstance(v, complex)
        assert v == pval(r.num, z) / pval(r.den, z)
    with pytest.raises(PoleProximityError):
        RationalFunction([1.0], [-1.0, 1.0])(1.0)


def test_trim_drops_exact_trailing_zeros():
    assert_allclose(trim([1.0, 2.0, 0.0, 0.0]), [1.0, 2.0])
    assert_allclose(trim([0.0, 0.0]), [0.0])


def test_pval_matches_numpy():
    c = np.array([1.0, -2.0, 0.5j])
    z = np.array([0.3, 1.0 + 1.0j, -2.0])
    assert_allclose(pval(c, z), np.polynomial.polynomial.polyval(z, c))


def test_series_div_geometric():
    t = series_div([1.0], [1.0, -0.5], 5)
    assert_allclose(t, 0.5 ** np.arange(6))


def test_series_div_rejects_zero_constant():
    with pytest.raises(ZeroDivisionError):
        series_div([1.0], [0.0, 1.0], 3)


def dot_series_div(num, den, order):
    """The Taylor recurrence with one numpy dot per coefficient: the
    reference the scalar recurrence of series_div is held to."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    t = np.zeros(order + 1, dtype=complex)
    for i in range(order + 1):
        acc = num[i] if i < len(num) else 0.0
        top = min(i, len(den) - 1)
        if top >= 1:
            acc -= np.dot(den[1 : top + 1], t[i - top : i][::-1])
        t[i] = acc / den[0]
    return t


def seeded_quotient(seed, n_den):
    """num/den with a 3-coefficient num (num[0] = 0 on odd seeds, as in
    c z (z - a)) and den = c prod (z - b_k) over n_den - 1 roots with
    |b_k| in [1.2, 5], c a random complex scale (1 for even seeds)."""
    rng = np.random.default_rng([seed, n_den])
    b = rng.uniform(1.2, 5.0, n_den - 1) * np.exp(2j * np.pi * rng.random(n_den - 1))
    c = 1.0 if seed % 2 == 0 else rng.uniform(0.2, 5.0) * np.exp(2j * np.pi * rng.random())
    num = rng.normal(size=3) + 1j * rng.normal(size=3)
    num[0] *= seed % 2 == 0
    return num, c * np.atleast_1d(np.poly(b))[::-1]


@pytest.mark.parametrize("n_den", [1, 2])
def test_series_div_equals_the_dot_recurrence_bitwise(n_den):
    # one or two denominator coefficients (every polynomial and every
    # series start): one product or none per step, and numpy's division,
    # so the scalar recurrence is numpy's arithmetic bit for bit
    for seed in range(30):
        num, den = seeded_quotient(seed, n_den)
        assert series_div(num, den, 256).tobytes() == dot_series_div(num, den, 256).tobytes()


@pytest.mark.parametrize("n_den", [3, 4, 5])
def test_series_div_is_within_rounding_of_the_dot_recurrence(n_den):
    # longer denominators subtract den[k] t[i-k] one k at a time where the
    # dot sums first.  Both are a triangular Toeplitz solve D t = num, so
    # each lies within gamma_L |D^-1| |D| |t| of the exact t (Higham,
    # Accuracy and Stability of Numerical Algorithms, Thm 8.5), with
    # L = len(den) and gamma_L about L eps: they differ by at most twice
    # that (0.93 eps times |D^-1| |D| |t| measured, at n_den = 4)
    eps = np.finfo(float).eps
    for seed in range(30):
        num, den = seeded_quotient(seed, n_den)
        ref = dot_series_div(num, den, 256)
        inverse = np.abs(dot_series_div([1.0], den, 256))
        scale = np.convolve(inverse, np.convolve(np.abs(den), np.abs(ref)))[:257]
        assert np.all(np.abs(series_div(num, den, 256) - ref) <= 2 * n_den * eps * scale)


def test_series_div_matches_the_geometric_closed_form():
    # 1/(z - b) = -sum z^k / b^(k+1): each step divides by -b once, so t_k
    # is within 2 ulps per step of the 30-digit closed form (0.92 measured)
    eps = np.finfo(float).eps
    k = np.arange(257)
    rng = np.random.default_rng(5)
    for _ in range(30):
        b = rng.uniform(1.2, 5.0) * np.exp(2j * np.pi * rng.random())
        with mpmath.workdps(30):
            exact = np.array([complex(-mpmath.mpc(b) ** -(j + 1)) for j in k])
        t = series_div([1.0], [-b, 1.0], 256)
        assert np.all(np.abs(t - exact) <= 2 * (k + 1) * eps * np.abs(exact))


def test_eval_and_arithmetic():
    r = RationalFunction([0.0, 1.0], [1.0, -0.5])  # z / (1 - z/2)
    assert_allclose(r(0.2), 0.2 / 0.9)
    sq = r * r
    assert_allclose(sq(0.2), (0.2 / 0.9) ** 2)
    assert_allclose((RationalFunction([2.0]) * sq)(0.2), 2.0 * (0.2 / 0.9) ** 2)


def test_eval_on_pole_raises():
    r = RationalFunction([1.0], [-2.0, 1.0])
    with pytest.raises(PoleProximityError):
        r(2.0)


def test_derivative_quotient_rule():
    r = RationalFunction([0.0, 1.0, 0.3], [1.0, -0.4])
    z = 0.3 + 0.2j
    h = 1e-6
    fd = (r(z + h) - r(z - h)) / (2 * h)
    assert_allclose(r.derivative()(z), fd, rtol=1e-8)


def test_reflect_matches_definition_pointwise():
    r = RationalFunction([0.0, 1.0, 0.3j], [1.0, -0.25])
    z = 1.7 * np.exp(0.4j)
    want = np.conj(r(1.0 / np.conj(z)))
    assert_allclose(r.reflect()(z), want, rtol=1e-13)


def test_reflect_involution_random_rationals():
    rng = np.random.default_rng(42)
    for _ in range(25):
        num = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        den = np.concatenate([[1.0], 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))])
        r = RationalFunction(num, den)
        rr = r.reflect().reflect()
        n1, n2 = trim(r.num), trim(rr.num)
        d1, d2 = trim(r.den), trim(rr.den)
        assert_allclose(n2, n1, rtol=1e-13, atol=1e-15)
        assert_allclose(d2, d1, rtol=1e-13, atol=1e-15)


def test_residue_simple_and_double_pole():
    assert_allclose(RationalFunction([1.0], [0.0, 1.0]).residue(0.0), 1.0)
    assert_allclose(RationalFunction([1.0], [0.0, 0.0, 1.0]).residue(0.0), 0.0)
    # off the origin only simple poles are taken: (3 + z)/(z - 0.5)^2 raises
    r = RationalFunction([3.0, 1.0], pmul([-0.5, 1.0], [-0.5, 1.0]))
    with pytest.raises(ResidueError, match="not a simple pole"):
        r.residue(0.5)


def test_residue_at_simple_pole_matches_closed_form():
    # (1 + 2z + z^2 z0)/((z - z0)(z - 3)) has residue (1 + 2 z0 + z0^3)/(z0 - 3) at z0
    for z0 in (0.5, 0.3 - 0.7j, -2.0 + 1.5j):
        r = RationalFunction([1.0, 2.0, z0], pmul([-z0, 1.0], [-3.0, 1.0]))
        assert_allclose(r.residue(z0), (1.0 + 2.0 * z0 + z0**3) / (z0 - 3.0), rtol=1e-14)


def test_residue_at_simple_pole_is_numerator_over_denominator_derivative():
    # each value by pval: the residue is bitwise num(z0) / den'(z0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        z0 = complex(rng.standard_normal(), rng.standard_normal())
        r = RationalFunction(rng.standard_normal(5) + 1j * rng.standard_normal(5),
                             pmul([-z0, 1.0], rng.standard_normal(4)))
        want = complex(np.complex128(pval(r.num, z0)) / pval(pder(r.den), z0))
        assert r.residue(z0) == want


def test_residue_where_the_denominator_does_not_vanish_raises():
    r = RationalFunction([1.0, 2.0], [-0.5, 1.0])
    with pytest.raises(ResidueError, match="does not vanish"):
        r.residue(0.3)


def test_residue_with_cancellation():
    # z/(z * (z - 0.3)): the origin pole cancels, residue at 0.3 is 1
    r = RationalFunction([0.0, 1.0], pmul([0.0, 1.0], [-0.3, 1.0]))
    assert_allclose(r.residue(0.0), 0.0, atol=1e-14)
    assert_allclose(r.residue(0.3), 1.0)


def test_principal_part_at_zero():
    # (1 + 2z)/z^2 = z^{-2} + 2 z^{-1}
    r = RationalFunction([1.0, 2.0], [0.0, 0.0, 1.0])
    coeffs, s = r.principal_part_at_zero()
    assert s == 2
    assert_allclose(coeffs, [2.0, 1.0])  # coeffs[k] multiplies z^{-(k+1)}


def test_taylor_of_rational():
    r = RationalFunction([0.0, 1.0], [1.0, -0.5])  # z/(1 - z/2)
    t = r.taylor(4)
    assert_allclose(t, [0.0, 1.0, 0.5, 0.25, 0.125])

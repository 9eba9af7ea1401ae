import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heleshaw import moments
from heleshaw.errors import QuadratureError, UncancelledPoleError
from heleshaw.maps import (
    AbcRationalMap,
    CircleGrid,
    PolynomialMap,
    TaylorMap,
    circle_values,
    ring_values,
)
from heleshaw.moments import (
    QuadratureData,
    coeffs_to_moments,
    default_moment_count,
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    quadrature_check,
    quadrature_coeffs,
    richardson_moment,
    richardson_moments,
)
from heleshaw.rational import RationalFunction, pval, series_div
from heleshaw.scenarios import (
    make_example_abc,
    make_subcase1,
    make_subcase2,
    quadrature_data,
    subcase2_from_omega,
)
import mp_oracle
from test_scenarios import _GeneralForm, subcase2_general_form

CARDIOID = PolynomialMap((1.0, 0.3))
ABC = AbcRationalMap(0.4, 2.0, 2.0)

# two-node weights for a=0.4, b=2, c=2, computed exactly:
# A = |c|^2 a/b = 4/5;  B = |c|^2 (a-b)(1 - 2b^2 + a b^3)/(b (1-b^2)^2) = 304/225
A_ABC = 0.8
B_ABC = 304.0 / 225.0
NODE_ABC = -1.0 / 15.0  # f(1/conj b) = f(1/2)


def literal_richardson(a, abar, k):
    """The multi-index sum, summed literally over (k+1)-tuples."""
    n = len(a) - 1
    tot = 0.0 + 0.0j
    for js in itertools.product(range(n + 1), repeat=k + 1):
        idx = sum(js) + k
        if idx > n:
            continue
        term = (js[0] + 1) * np.prod([a[j] for j in js]) * abar[idx]
        tot += term
    return tot


# ----------------------------------------------------------------------
# Richardson's sum
# ----------------------------------------------------------------------

def test_richardson_scaled_disk():
    mv = moments_richardson(PolynomialMap((0.8,)), 4)
    assert_allclose(mv[0], 0.64, rtol=1e-15)
    for k in range(1, 5):
        assert mv[k] == 0.0


def test_richardson_cardioid():
    mv = moments_richardson(CARDIOID, 4)
    assert_allclose(mv[0], 1.18, rtol=1e-15)
    assert_allclose(mv[1], 0.3, rtol=1e-15)
    for k in range(2, 5):
        assert_allclose(mv[k], 0.0, atol=1e-16)


def test_richardson_matches_literal_sum():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        a = np.concatenate([[1.0], 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))])
        abar = np.conj(a)
        for k in range(0, 4):
            assert_allclose(
                richardson_moment(a, abar, k),
                literal_richardson(a, abar, k),
                rtol=1e-13,
                atol=1e-15,
            )


def test_richardson_independent_conjugates():
    # degree 1 with a and abar treated as unrelated symbols: M_1 = a0^2 abar_1
    a = np.array([1.3, 0.4 + 0.2j])
    abar = np.array([2.0, 0.5 - 0.3j])
    assert_allclose(richardson_moment(a, abar, 1), a[0] ** 2 * abar[1], rtol=1e-15)


def test_richardson_vanishes_beyond_support():
    mv = moments_richardson(CARDIOID, 8)
    for k in range(2, 9):
        assert mv[k] == 0.0


def per_k_richardson(a, abar, k):
    """The per-k loop richardson_moments replaced: the full power f^k f'
    for every k, then a Python sum against abar."""
    a = np.asarray(a, dtype=complex)
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


def _decaying_coeffs(rng, n, a0=1.0):
    j = np.arange(1, n + 1)
    mag = 0.3 / (j + 1) ** 2 * rng.uniform(0.0, 1.0, n)
    return np.concatenate([[a0], mag * np.exp(2j * np.pi * rng.uniform(size=n))])


def test_richardson_moments_match_per_k_loop():
    # independent a and abar; truncated powers and the matrix product only
    # reorder the same sums, so agreement is at rounding level
    rng = np.random.default_rng(31)
    for n in range(33):
        a = _decaying_coeffs(rng, n, a0=rng.uniform(0.5, 2.0))
        abar = _decaying_coeffs(rng, n, a0=rng.uniform(0.5, 2.0))
        K = n + 3
        got = richardson_moments(a, abar, K)
        want = np.array([per_k_richardson(a, abar, k) for k in range(K + 1)])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, n
        assert np.all(got[n + 1:] == 0.0)
        assert richardson_moment(a, abar, n) == got[n]


def test_batched_power_rows_and_moments_match_single_maps():
    # one leading batch axis: row for row the single-map results, at
    # rounding level (the batch sums in another order than np.convolve);
    # repeated rows of a share their power rows
    rng = np.random.default_rng(33)
    for n in (0, 1, 2, 5, 16, 33):
        a = np.array([_decaying_coeffs(rng, n, a0=rng.uniform(0.5, 2.0))
                      for _ in range(5)])
        a[3] = a[1]
        abar = np.array([_decaying_coeffs(rng, n, a0=rng.uniform(0.5, 2.0))
                         for _ in range(5)])
        for K in (None, 2, n + 3):
            P = moments._power_rows(a, K)
            for row, P1 in zip(a, P):
                want = moments._power_rows(row, K)
                assert P1.shape == want.shape
                assert_allclose(P1, want, rtol=1e-13, atol=1e-16 * np.max(np.abs(want)))
        M = richardson_moments(a, abar, n + 3)
        for row, row_bar, M1 in zip(a, abar, M):
            want = richardson_moments(row, row_bar, n + 3)
            assert_allclose(M1, want, rtol=1e-13, atol=1e-15 * np.max(np.abs(want)))
            assert np.all(M1[n + 1:] == 0.0)


def test_richardson_moments_match_literal_sum():
    rng = np.random.default_rng(32)
    for n in (0, 1, 2, 3):
        a = _decaying_coeffs(rng, n, a0=1.2)
        abar = _decaying_coeffs(rng, n, a0=0.9)
        got = richardson_moments(a, abar, n + 3)
        for k in range(n + 4):
            assert_allclose(got[k], literal_richardson(a, abar, k), rtol=1e-13, atol=1e-15)


def test_real_m0_zeroes_rounding_and_rejects_complex_m0():
    M = moments._real_m0([2.0 + 1e-12j, 0.5 + 0.25j])
    assert M[0] == 2.0 and M[0].imag == 0.0
    assert M[1] == 0.5 + 0.25j
    with pytest.raises(QuadratureError, match="M0 must be real"):
        moments._real_m0([1.0 + 0.5j, 0.0])


# ----------------------------------------------------------------------
# residue route
# ----------------------------------------------------------------------

def test_residue_moments_two_node_family():
    mv = moments_residue(ABC, 4)
    assert_allclose(mv[0], A_ABC + B_ABC, rtol=1e-12)
    assert_allclose(mv[1], B_ABC * NODE_ABC, rtol=1e-12)
    assert_allclose(mv[2], B_ABC * NODE_ABC**2, rtol=1e-12)


def test_residue_moments_geometric_progression():
    mv = moments_residue(ABC, 6)
    for k in range(2, 6):
        lhs = mv[k + 1] * mv[k - 1]
        assert abs(lhs - mv[k] ** 2) < 1e-10 * abs(mv[k] ** 2)


def test_subcase1_moments_vanish():
    m = make_subcase1(2.0, 7.0 - 4.0 * np.sqrt(3.0))
    mv = moments_residue(m, 6)
    assert_allclose(mv[0], 2.0, rtol=1e-12)
    for k in range(1, 7):
        assert abs(mv[k]) < 1e-10


def test_residue_agrees_with_richardson_on_polynomials():
    mv_r = moments_richardson(CARDIOID, 4)
    mv_s = moments_residue(CARDIOID, 4)
    assert np.max(np.abs(mv_r - mv_s)) < 1e-12


def test_residue_matches_richardson_beyond_order_32():
    # the pole of f^k f* f' at the origin has order n + 1 = 41; a fixed
    # order cap of 32 used to raise ResidueError here
    m = PolynomialMap(tuple(_decaying_coeffs(np.random.default_rng(40), 40)))
    rich = moments_richardson(m)
    res = moments_residue(m)
    assert len(rich) == 41
    assert np.max(np.abs(rich - res)) < 1e-10


@pytest.mark.parametrize("M0, B1", [
    (1.0, 0.8), (1.0, 0.85), (1.0, 0.9),
    # a nearly real branch point with |B1| / sqrt(M0) = 0.561
    (1.0065927152264202, 0.562986252943482 + 0.00034869479489148665j),
    (2.0, 0.95 * np.sqrt(2.0) * np.exp(2.1j)),
])
def test_subcase2_higher_moments_vanish(M0, B1):
    # the pole of f* at omega is cancelled by f'(omega) = 0; summed through
    # the expanded f^k f* f' it left |M_k| up to 1e-3
    mv = moments_residue(make_subcase2(M0, B1), 6)
    assert abs(mv[0] - M0) < 1e-12 * M0
    assert max(abs(mv[k]) for k in range(1, 7)) < 1e-13


@pytest.mark.parametrize("a, b", [
    (0.55 * np.exp(0.3j), 1.8 * np.exp(0.3j)),  # 1/conj(b) close to a
    (0.4 * np.exp(-1.0j), 1.2 * np.exp(2.0j)),  # |b| close to 1
])
def test_example_abc_geometric_progression_hard_draws(a, b):
    m = make_example_abc(a, b, 1.3)
    data = quadrature_data(m)
    mv = moments_residue(m, 6)
    (node, B), = data.nodes
    assert_allclose(mv[0], data.c[0] + B, rtol=1e-12)
    for k in range(1, 7):
        assert_allclose(mv[k], B * m.rational()(node)**k, rtol=1e-12)
    assert_allclose(coeffs_to_moments(data, m, 6), mv, rtol=1e-12)
    for k in range(2, 6):
        assert abs(mv[k + 1] * mv[k - 1] - mv[k] ** 2) <= 1e-12 * abs(mv[k]) ** 2


def per_k_residue_moments(m, K):
    """The per-k loop moments_residue replaced: the rational product
    f^k f* f' for every k and its residue at the origin, plus
    f'(q) Res_q f* f(q)^k at each pole q of f* in the disk."""
    r = m.rational()
    fp = r.derivative()
    fstar = r.reflect()
    pts = [q for q in 1.0 / np.conj(m.finite_poles()) if abs(q) < 1.0]
    weights = np.array([fp(q) * fstar.residue(q) for q in pts], dtype=complex)
    images = np.array([r(q) for q in pts], dtype=complex)
    vals = []
    integrand = fstar * fp
    for k in range(K + 1):
        if k > 0:
            integrand = integrand * r
        vals.append(integrand.residue(0j) + np.sum(weights * images**k))
    return np.array(vals, dtype=complex)


def _subcase2_at(ratio, phase, M0=1.0):
    return make_subcase2(M0, ratio * np.sqrt(M0) * np.exp(1j * phase))


def _general_form_at(ratio, phase):
    aw = np.sqrt((np.sqrt(ratio**4 + 8.0 * ratio**2) - ratio**2) / 2.0)
    w = aw * np.exp(1j * phase)
    return _GeneralForm(subcase2_general_form(w, 1.0), 1.0 / np.conj(w))


@pytest.mark.parametrize("m", [
    PolynomialMap(tuple(_decaying_coeffs(np.random.default_rng(60 + n), n)))
    for n in (1, 4, 9, 16, 24, 40, 64)
] + [
    make_example_abc(0.4, 2.0, 2.0),
    make_example_abc(0.2 + 0.1j, 1.7 - 0.4j, 1.3),
    make_example_abc(0.55 * np.exp(0.3j), 1.8 * np.exp(0.3j), 1.3),
    make_example_abc(0.4 * np.exp(-1.0j), 1.2 * np.exp(2.0j), 1.3),
    make_subcase1(2.0, 7.0 - 4.0 * np.sqrt(3.0)),
] + [
    _subcase2_at(ratio, phase) for ratio in (0.2, 0.6, 0.95) for phase in (0.0, 2.9)
] + [
    _general_form_at(ratio, 0.7) for ratio in (0.2, 0.95)
], ids=lambda m: type(m).__name__)
def test_residue_moments_match_per_k_products(m):
    # pp_j coeff_j(f^k) at the origin is the residue of each product f^k f* f'
    K = max(default_moment_count(m), 6)
    want = per_k_residue_moments(m, K)
    got = moments_residue(m, K)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("power", [1, 2])
def test_residue_matches_richardson_at_n200(power):
    # the origin pole of f* f' has order 201 and 171! already overflows a
    # float, so no factorial may enter the moments; with 1/(j+1) decay the
    # moments grow to 1e6
    rng = np.random.default_rng(200)
    j = np.arange(1, 201)
    a = np.concatenate([[1.0], 0.3 / (j + 1) ** power * rng.uniform(0.0, 1.0, 200)
                        * np.exp(2j * np.pi * rng.uniform(size=200))])
    m = PolynomialMap(tuple(a))
    res = moments_residue(m)
    rich = moments_richardson(m)
    assert len(res) == 201
    assert np.max(np.abs(res - rich)) < 1e-12 * max(1.0, np.max(np.abs(rich)))


def _taylor_at_zero(p, count):
    """The first ``count`` Taylor coefficients of the polynomial p at the
    origin, zero-padded."""
    out = np.zeros(count, dtype=complex)
    out[: min(count, len(p))] = p[:count]
    return out


def deflation_residue_at_zero(r):
    """Residue at the origin by general Laurent division: divide the
    denominator by z to the pole order, take the first Taylor coefficients
    of both sides, divide the series."""
    order = 0
    den = r.den
    while den[0] == 0:
        den = den[1:]
        order += 1
    if order == 0:
        return 0j
    tn = _taylor_at_zero(r.num, order)
    td = _taylor_at_zero(den, order)
    return complex(series_div(tn, td, order - 1)[order - 1])


def _origin_integrands(m, K):
    r = m.rational()
    g = m.rational().reflect() * m.derivative_rational()
    for _ in range(K + 1):
        yield g
        g = g * r


@pytest.mark.parametrize("m", [
    PolynomialMap(tuple(_decaying_coeffs(np.random.default_rng(s), n)))
    for s, n in ((41, 1), (42, 4), (43, 9), (44, 16), (45, 24))
] + [
    make_example_abc(0.4, 2.0, 2.0),
    make_example_abc(0.2 + 0.1j, 1.7 - 0.4j, 1.3),
    make_subcase2(1.0, 0.28111),
    make_subcase2(1.7, 0.5 - 0.3j),
], ids=lambda m: type(m).__name__)
def test_origin_residue_matches_deflation_route(m):
    for g in _origin_integrands(m, 6):
        assert g.den[0] == 0  # the reflection puts the pole in exact zeros
        want = deflation_residue_at_zero(g)
        got = g.residue(0.0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# ----------------------------------------------------------------------
# area oracle
# ----------------------------------------------------------------------

def test_area_oracle_unit_disk():
    mv, err = moments_area_oracle(PolynomialMap((1.0,)), 2)
    assert abs(mv[0] - 1.0) < 1e-8
    assert err < 1e-10


def test_area_oracle_matches_richardson():
    mv, _ = moments_area_oracle(CARDIOID, 3)
    ref = moments_richardson(CARDIOID, 3)
    assert np.max(np.abs(mv - ref)) < 1e-6


def test_area_oracle_subcase2_roundtrip():
    m = subcase2_from_omega(0.6, 1.0)
    mv, err = moments_area_oracle(m, 2)
    assert np.max(np.abs(mv - mp_oracle.abc_moments(m, 2))) <= err < 1e-13


def _abc_sweep():
    """Derandomized maps of the c z (z - a)/(z - b) class: |b| from 1.02 to 3
    and |a| from 0.1 to 0.9 with seeded phases, and subcase 2 with
    |B1| / sqrt(M0) from 0.2 to 0.98."""
    rng = np.random.default_rng(36)
    for b in (1.02, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0):
        for a in (0.1, 0.5, 0.9):
            pa, pb = np.exp(2j * np.pi * rng.random(2))
            yield make_example_abc(a * pa, b * pb, 1.0)
    for B1 in (0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.98):
        yield make_subcase2(1.0, B1 * np.exp(2j * np.pi * rng.random()))


@pytest.mark.parametrize("K", [4, 8])
def test_area_oracle_error_within_its_estimate_on_the_abc_class(K):
    # against the 40-digit closed forms the worst error was 0.13 of the
    # estimate (|b| = 3, K = 4, at rounding level); quadrature_check on the
    # same grid rule stays under its 1e-6 bound (at most 1.7e-10, |b| = 1.02)
    for m in _abc_sweep():
        mv, err = moments_area_oracle(m, K)
        assert np.max(np.abs(mv - mp_oracle.abc_moments(m, K))) <= err
        assert max(quadrature_check(m, quadrature_data(m), 2)) < 1e-6


@pytest.mark.parametrize("m, error, old_estimate", [
    (make_example_abc(0.5, 1.05 * np.exp(0.5j), 1.0), 5.85e-9, 5.25e-10),
    (make_example_abc(0.5, 1.1, 1.0), 6.3e-12, 1.9e-12),
])
def test_area_oracle_estimate_covers_the_old_under_reports(m, error, old_estimate):
    # the two-level estimate max|fine - coarse| reported old_estimate beside
    # the true error; the one grid's bound covers its error
    mv, err = moments_area_oracle(m, 4)
    got = np.max(np.abs(mv - mp_oracle.abc_moments(m, 4)))
    assert got <= err and got < 10 * error
    assert err > 10 * old_estimate


def test_quadrature_check_matches_40_digit_point_side():
    # the disk side on the one grid, h = z, against A delta_p0 + B conj(b)^-p
    z = RationalFunction([0.0, 1.0])
    for m in (ABC, make_example_abc(0.3j, 1.2j, 1.0), make_subcase2(1.0, 0.9)):
        nr, nt, _ = moments._disk_size(m, 4, z)
        disk, _ = moments._disk_quadrature(m, 4, nr, nt, z)
        assert np.max(np.abs(disk - mp_oracle.abc_point_side(m, 4))) < 1e-13
        assert max(quadrature_check(m, quadrature_data(m), 4)) < 1e-13


def reference_disk_quadrature(m, K, nr, nt):
    """The disk quadrature written out plainly: Gauss-Legendre nodes built
    afresh, Horner evaluation of f and f', one weighted mean per moment."""
    x, w = np.polynomial.legendre.leggauss(nr)
    rr = 0.5 * (x + 1.0)
    th = 2.0 * np.pi * np.arange(nt) / nt
    zgrid = rr[:, None] * np.exp(1j * th)[None, :]
    weights = 0.5 * w * rr
    r = m.rational()
    fv = r(zgrid)
    dens = np.abs(r.derivative()(zgrid)) ** 2
    out = np.zeros(K + 1, dtype=complex)
    powk = np.ones_like(fv)
    for k in range(K + 1):
        if k > 0:
            powk = powk * fv
        ang = np.sum(powk * dens, axis=1) * (2.0 * np.pi / nt)
        out[k] = np.sum(weights * ang) / np.pi
    return out


def _random_phase_map(n, rng, power=1):
    """a_0 = 1, |a_j| uniform in [0, 0.3/(j+1)**power], uniform phases."""
    j = np.arange(1, n + 1)
    a = 0.3 / (j + 1) ** power * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    return PolynomialMap(tuple(np.concatenate([[1.0], a])))


def test_area_oracle_matches_reference_quadrature():
    # a polynomial map gets one grid, exact for K = n: n + 1 rings and the
    # least power of two above K (n + 1) + n angles; its rounding estimate
    # bounds the gap to the plain quadrature on that grid (at most 0.36 of
    # it here, most of which is numpy's Gauss rule in the reference)
    rng = np.random.default_rng(29)
    for n in range(1, 33):
        m = _random_phase_map(n, rng)
        nr, nt, _ = moments._disk_size(m, n, m.rational())
        assert nr == n + 1 and nt // 2 <= n * (n + 1) + n < nt
        mv, err = moments_area_oracle(m, n)
        assert np.max(np.abs(mv - reference_disk_quadrature(m, n, nr, nt))) <= err


@pytest.mark.parametrize("n, seed, bound", [(48, 7, 2e-11), (64, 7, 2e-10)])
def test_area_oracle_against_40_digit_richardson(n, seed, bound):
    # |a_j| <= 0.3/(j+1) with random phases.  The exact grid is off by
    # 2.9e-13 (n = 48, estimate 7.4e-12) and 8.2e-12 (n = 64, estimate
    # 1.3e-10); the two fixed (96, 256) and (192, 512) grids were off by
    # 2.7e-6 and 5.5, with estimates 4.1 and 6.0e3
    m = _random_phase_map(n, np.random.default_rng(seed))
    area, err = moments_area_oracle(m, n)
    exact = mp_oracle.richardson_moments(m.coeffs, n)
    assert np.max(np.abs(moments_richardson(m, n) - area)) < 1e-6  # richardson_vs_area
    assert np.max(np.abs(area - exact)) <= err < bound


def test_disk_size_exact_for_polynomials_alias_bound_for_poles():
    z = RationalFunction([0.0, 1.0])
    # degree-2 map: f' of degree 1, h = f of degree 2 or h = z; the exact
    # grid has no truncation
    assert moments._disk_size(CARDIOID, 3, CARDIOID.rational()) == (2, 8, 0.0)
    assert moments._disk_size(CARDIOID, 500, z) == (2, 512, 0.0)
    # K = n: 8192 angles up to n = 89, then over the cap
    for n, nt in [(89, 8192), (90, None)]:
        m = PolynomialMap((1.0,) + (0.0,) * (n - 1) + (0.01,))
        if nt:
            assert moments._disk_size(m, n, m.rational()) == (n + 1, nt, 0.0)
        else:
            with pytest.raises(QuadratureError, match="needs 91 x 16384 nodes"):
                moments._disk_size(m, n, m.rational())


def test_disk_size_for_poles_from_the_bernstein_ellipse():
    # fewer rings as the pole moves out, more as K grows; each ring's angular
    # count grows outward, and from |b| = 1.2 on the one grid has fewer
    # nodes than the old coarse (96, 256) level alone
    rings = []
    for b in (1.05, 1.2, 1.5, 2.0, 3.0):
        m = make_example_abc(0.5, b, 1.0)
        nr, nt, bound = moments._disk_size(m, 4, m.rational())
        assert 0 < bound < 1e-12 * np.max(np.abs(moments_residue(m, 4)))
        assert len(nt) == nr and list(nt) == sorted(nt) and nt[0] < nt[-1]
        assert b < 1.2 or sum(nt) < 96 * 256
        rings.append(nr)
    assert rings == sorted(rings, reverse=True) and len(set(rings)) == len(rings)
    m = make_example_abc(0.5, 1.2, 1.0)
    by_k = [moments._disk_size(m, K, m.rational())[0] for K in (0, 2, 4, 8)]
    assert by_k == sorted(by_k) and by_k[0] < by_k[-1]
    # h = z has the pole order 3 of |f'|^2 alone: no more rings than h = f
    z = RationalFunction([0.0, 1.0])
    assert moments._disk_size(m, 8, z)[0] <= by_k[-1]


def _disk_nodes(nr, nt):
    radii, _ = moments._radial_rule(nr)
    return radii[:, None] * np.exp(2j * np.pi * np.arange(nt) / nt)[None, :]


@pytest.mark.parametrize("degree", [7, 40])
def test_ring_values_match_horner(degree):
    # degree 40 > nt = 16 exercises the folding of coefficients mod nt
    rng = np.random.default_rng(degree)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    radii, _ = moments._radial_rule(8)
    exact = pval(c, _disk_nodes(8, 16))
    err = np.max(np.abs(ring_values(RationalFunction(c), radii, CircleGrid(16)) - exact))
    assert err < 1e-13 * np.max(np.abs(c))


def test_disk_values_agree_across_map_kinds():
    # ring and circle values by FFT against Horner at the same nodes
    radii, _ = moments._radial_rule(12)
    zgrid = _disk_nodes(12, 32)
    g = CircleGrid(32)
    for m in (PolynomialMap((1.0, 0.2 - 0.1j, 0.05)),
              TaylorMap((1.0, 0.3, 0.0, 0.01j)),
              AbcRationalMap(0.4j, 1.5j, 2.0),
              make_subcase2(1.0, 0.6j)):
        r = m.rational()
        assert_allclose(ring_values(r, radii, g), r(zgrid), rtol=0, atol=1e-13)
        assert_allclose(ring_values(m.derivative_rational(), radii, g),
                        r.derivative()(zgrid), rtol=0, atol=1e-13)
        assert_allclose(m.boundary_values(g), r(g.nodes), rtol=0, atol=1e-13)
        assert_allclose(m.derivative_on(g), r.derivative()(g.nodes),
                        rtol=0, atol=1e-13)


def test_disk_grid_cached_read_only():
    # the radial rule is cached by nr alone; 1/nt is applied at use
    radii, weights = moments._radial_rule(96)
    again = moments._radial_rule(96)
    assert again[0] is radii and again[1] is weights
    with pytest.raises(ValueError):
        radii[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0
    # the weights integrate 1 over the disk to (1/pi) * area = 1
    assert abs(np.sum(weights) - 1.0) < 1e-14


def test_disk_grid_cannot_be_made_writeable():
    for a in moments._radial_rule(12):
        with pytest.raises(ValueError):
            a.flags.writeable = True


@pytest.mark.parametrize("nr", [1, 25, 41, 65, 96, 192])
def test_polished_radial_rule_matches_40_digit_rule(nr):
    # numpy's small weights are off by up to 1e4 u at nr = 41, 1.4e4 u at
    # nr = 96 and 3.8e5 u at nr = 192; the polished rule is within 3.8 u of
    # the 40-digit one at these nr
    radii, weights = moments._radial_rule(nr)
    want_r, want_w = mp_oracle.disk_gauss_legendre(nr)
    assert_allclose(radii, want_r, rtol=8 * np.finfo(float).eps, atol=0)
    assert_allclose(weights, want_w, rtol=8 * np.finfo(float).eps, atol=0)


def test_disk_quadrature_of_powers_of_z_matches_closed_form():
    # for f' = sum b_j z^j, (1/pi) int_D z^p |f'|^2 dA
    # = sum_j b_j conj(b_(j+p)) / (j + p + 1), which is also c_p p! of the
    # one-point identity (0 for p > n)
    m = PolynomialMap((1.0, 0.3 - 0.1j, 0.05j, -0.02, 0.01 + 0.01j))
    b = m.derivative_coeffs()
    n, P = len(b) - 1, 6
    want = np.array([
        sum(b[j] * np.conj(b[j + p]) / (j + p + 1) for j in range(n + 1 - p))
        for p in range(P + 1)
    ])
    z = RationalFunction([0.0, 1.0])
    assert moments._disk_size(m, P, z) == (5, 16, 0.0)
    got, _ = moments._disk_quadrature(m, P, 5, 16, z)
    assert_allclose(got, want, rtol=0, atol=1e-14)
    data = quadrature_coeffs(m)
    one_point = [data.c[p] * math.factorial(p) if p <= n else 0.0 for p in range(P + 1)]
    assert_allclose(one_point, want, rtol=0, atol=1e-14)
    assert max(quadrature_check(m, data, P)) < 1e-14


def test_angular_nodes_from_nearest_pole():
    # a polynomial's exact grid has one angular count; with a pole each ring
    # has its own, from 4 on the innermost to the outermost's alias need
    z = RationalFunction([0.0, 1.0])
    assert moments._disk_size(CARDIOID, 3, CARDIOID.rational())[1] == 8
    for m, top in [(make_subcase2(1.0, 0.6), 512), (make_example_abc(0.3, 1.5, 1.0), 256),
                   (make_subcase2(1.0, 0.95), 4096), (make_subcase2(1.0, 0.98), 8192)]:
        nt = moments._disk_size(m, 4, m.rational())[1]
        assert nt[0] <= 8 and nt[-1] == top
    # 8192 angles fit the alias factor |p|**-nt of |p| = 1.005 under 1e-12,
    # not that of |p| = 1.001
    assert moments._disk_size(AbcRationalMap(0.4, 1.005, 2.0), 2, z)[1][-1] == 8192
    with pytest.raises(QuadratureError, match="above the cap"):
        moments._disk_size(AbcRationalMap(0.4, 1.001, 2.0), 2, z)


def test_ring_blocks_do_not_change_the_quadrature(monkeypatch):
    # the reference is a 192 x 512 grid as one block; the default block and
    # 8 rings per block must agree with it
    m = PolynomialMap((1.0, 0.3 - 0.1j, 0.05j, -0.02))
    data = quadrature_coeffs(m)
    default = moments._BLOCK_NODES
    with monkeypatch.context() as patch:
        patch.setattr(moments, "_BLOCK_NODES", 192 * 512)
        whole, size = moments._disk_quadrature(m, 4, 192, 512)
        checks = quadrature_check(m, data, 2)
    for block in (default, 8 * 512):
        monkeypatch.setattr(moments, "_BLOCK_NODES", block)
        got, got_size = moments._disk_quadrature(m, 4, 192, 512)
        assert_allclose(got, whole, rtol=0, atol=1e-14 * np.max(np.abs(whole)))
        assert abs(got_size - size) < 1e-14 * size
        assert_allclose(quadrature_check(m, data, 2), checks, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m, K, bound_mb", [
    # subcase2 at |B1| = 0.98 sqrt(M0) gets one grid of 143 rings, 99684
    # nodes with up to 8192 per ring, and circles of up to 32768 nodes for
    # its bound, and peaked at 1.9 MB; the old fine level of 192 x 8192
    # nodes, evaluated whole, at 96 MB
    (make_subcase2(1.0, 0.98), 6, 16),
    # a degree-25 polynomial (n = 24, K = 24) on its exact 25 x 1024 grid
    # peaked at 1.2 MB; the old fine level of 192 x 512 nodes, as one block,
    # at 4.6 MB
    (PolynomialMap((1.0,) + tuple(0.3 / (j + 1)**2 * np.exp(1j * j) for j in range(1, 25))),
     24, 2.5),
    # n = 64, K = 64 at the angular cap: 65 x 8192 nodes in blocks of four
    # rings, peaked at 1.5 MB
    (PolynomialMap((1.0,) + tuple(0.3 / (j + 1)**2 * np.exp(1j * j) for j in range(1, 65))),
     64, 2.5),
], ids=["subcase2", "polynomial-n24", "polynomial-n64"])
def test_area_oracle_memory_is_bounded_near_the_cap(m, K, bound_mb):
    import tracemalloc

    tracemalloc.start()
    try:
        _, err = moments_area_oracle(m, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err < 1e-12
    assert peak < bound_mb * 2**20


def test_pole_near_circle_raises_quadrature_error():
    m = AbcRationalMap(0.4, 1.001, 2.0)
    with pytest.raises(QuadratureError):
        moments_area_oracle(m, 2)
    with pytest.raises(QuadratureError):
        quadrature_check(m, QuadratureData(c=(1.0,)), 0)


def test_three_way_agreement_random_polynomials():
    # degree <= 6, coefficient components in [-1, 1]; maps with f' nearly
    # vanishing on the circle are excluded by the boundary-form precondition
    rng = np.random.default_rng(17)
    done = 0
    while done < 8:
        n = int(rng.integers(1, 7))
        coeffs = rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)
        coeffs[0] = rng.uniform(0.3, 1.0)
        if coeffs[-1] == 0:
            continue
        m = PolynomialMap(tuple(coeffs))
        fp = m.derivative_rational()
        th = np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
        if np.min(np.abs(fp(th))) < 1e-2:
            continue
        K = default_moment_count(m)
        rich = moments_richardson(m, K)
        res = moments_residue(m, K)
        area, _ = moments_area_oracle(m, K)
        assert np.max(np.abs(rich - res)) < 1e-10 * max(1.0, np.max(np.abs(rich)))
        assert np.max(np.abs(rich - area)) < 1e-6
        done += 1


# ----------------------------------------------------------------------
# quadrature coefficients and the c <-> M correspondence
# ----------------------------------------------------------------------

def test_quadrature_coeffs_scaled_disk():
    data = quadrature_coeffs(PolynomialMap((0.7,)))
    assert data.n == 0
    assert_allclose(data.c[0], 0.49, rtol=1e-15)


def test_quadrature_coeffs_subcase2_weight():
    m = subcase2_from_omega(0.6, 1.0)
    data = quadrature_coeffs(m)
    assert data.n == 0
    C = abs(m.c)  # c = C, b = 1/conj(omega)
    want = C**2 * 0.6**2 * (2 - 0.6**2)
    assert_allclose(data.c[0], want, rtol=1e-12)
    assert_allclose(data.c[0], 1.0, rtol=1e-12)  # equals M0 by construction


def test_quadrature_coeffs_cardioid_consistent_with_moments():
    data = quadrature_coeffs(CARDIOID)
    mv = coeffs_to_moments(data, CARDIOID)
    ref = moments_richardson(CARDIOID, data.n)
    assert np.max(np.abs(mv - ref)) < 1e-13


def test_quadrature_coeffs_rejects_two_node_map():
    with pytest.raises(UncancelledPoleError):
        quadrature_coeffs(ABC)


def test_quadrature_coeffs_pole_cancellation_seeded():
    # f* f' keeps the simple pole of f* at 1/conj(b) on every two-node map,
    # and loses it to f'(omega) = 0 on every subcase-2 map
    rng = np.random.default_rng(18)
    for _ in range(40):
        a = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
        b = rng.uniform(1.2, 4.0) * np.exp(2j * np.pi * rng.uniform())
        m = make_example_abc(a, b, rng.uniform(0.5, 2.0))
        with pytest.raises(UncancelledPoleError, match="keeps a pole"):
            quadrature_coeffs(m)
        M0 = rng.uniform(0.5, 2.0)
        B1 = rng.uniform(0.2, 0.9) * np.sqrt(M0) * np.exp(2j * np.pi * rng.uniform())
        assert_allclose(quadrature_coeffs(make_subcase2(M0, B1)).c[0], M0, rtol=1e-10)


def test_conversion_n0():
    data = QuadratureData(c=(0.49,))
    mv = coeffs_to_moments(data, PolynomialMap((0.7,)))
    assert_allclose(mv[0], 0.49)


def test_conversion_degree1_diagonal():
    m = PolynomialMap((0.9, 0.2 + 0.1j))
    data = quadrature_coeffs(m)
    mv = coeffs_to_moments(data, m)
    # M_1 = c_0 * 0 + c_1 * f'(0) = c_1 a_0, and matches Richardson
    assert_allclose(mv[1], data.c[1] * 0.9, rtol=1e-13)
    ref = moments_richardson(m, 1)
    assert_allclose(mv[1], ref[1], rtol=1e-13)


# ----------------------------------------------------------------------
# quadrature identity residuals
# ----------------------------------------------------------------------

def test_quadrature_check_subcase2():
    m = subcase2_from_omega(0.6, 1.0)
    data = quadrature_coeffs(m)
    res = quadrature_check(m, data, 0)
    assert res[0] < 1e-6


def test_quadrature_check_two_point():
    data = quadrature_data(make_example_abc(0.4, 2.0, 2.0))
    res = quadrature_check(ABC, data, 2)
    assert max(res) < 1e-6


def test_quadrature_check_odd_symmetry():
    m = PolynomialMap((1.0,))
    data = quadrature_coeffs(m)
    res = quadrature_check(m, data, 2)
    assert res[2] < 1e-12


def test_residue_moments_reject_boundary_singularity():
    # a pole reflection within 1e-9 of the unit circle invalidates the
    # boundary form
    from heleshaw.errors import HeleShawError

    m = AbcRationalMap(0.4, 1.0 + 1e-10, 2.0)
    with pytest.raises(HeleShawError):
        moments_residue(m, 2)


def test_default_moment_count():
    assert default_moment_count(CARDIOID) == 2
    assert default_moment_count(PolynomialMap((1.0, 0.1, 0.1, 0.1, 0.05))) == 4
    assert default_moment_count(ABC) == 4
    assert default_moment_count(subcase2_from_omega(0.6, 1.0)) == 4


# ----------------------------------------------------------------------
# Richardson's sum as a contour sum on its exact grid
# ----------------------------------------------------------------------

def test_contour_nodes_are_the_least_power_of_two_holding_the_frequencies():
    # N_K >= (K' + 1) L, K' = min(K, L - 1): a product that is a power of
    # two is its own grid, and K past L - 1 adds no nodes
    assert [moments._contour_nodes(L, K) for L, K in
            [(1, 4), (3, 8), (64, 1), (64, 3), (64, 4), (64, 8), (256, 3), (256, 4)]] \
        == [4, 16, 128, 256, 512, 1024, 1024, 2048]


def _drawn_series(family: str, order: int, seed: int) -> TaylorMap:
    """An order-``order`` series: of subcase 2 with M0 in [0.5, 2] and
    |B1| / sqrt(M0) in [0.2, 0.8], of example_abc with |a| in [0.1, 0.3],
    |b| in [1.5, 2] and |c| in [0.5, 2.5], or a ``taylor`` map whose f' has
    |b_1| in [1.2, 1.8] and |b_j| <= 0.5**j after it; uniform phases."""
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * np.pi * rng.random(2))
    if family == "subcase2":
        m0 = 0.5 + 1.5 * rng.random()
        exact = make_subcase2(m0, np.sqrt(m0) * (0.2 + 0.6 * rng.random()) * phase[0])
    elif family == "example_abc":
        exact = make_example_abc((0.1 + 0.2 * rng.random()) * phase[0],
                                 (1.5 + 0.5 * rng.random()) * phase[1],
                                 0.5 + 2.0 * rng.random())
    else:
        j = np.arange(order)
        b = rng.random(order) * 0.5**j * np.exp(2j * np.pi * rng.random(order))
        b[0], b[1] = 1.0, (1.2 + 0.6 * rng.random()) * phase[0]
        return TaylorMap(b / (j + 1))
    return TaylorMap(exact.power_series(order))


def _contour_rounding(m: TaylorMap, K: int) -> np.ndarray:
    """(K + log2 N_K) u max|f|**(k+1) max|f'| for k = 0..K, u the unit
    roundoff: the rounding scale of M_k summed over the N_K contour nodes."""
    grid = CircleGrid(moments._contour_nodes(m.order, K))
    f = circle_values(np.concatenate([[0.0], m.coeffs]), grid)
    fp = circle_values(m.derivative_coeffs(), grid)
    u = np.finfo(float).eps / 2
    return ((K + math.log2(grid.size)) * u * np.max(np.abs(f)) ** np.arange(1, K + 2)
            * np.max(np.abs(fp)))


@pytest.mark.parametrize("family", ["subcase2", "example_abc", "taylor"])
@pytest.mark.parametrize("order", [64, 128, 256])
@pytest.mark.parametrize("K", [1, 4, 8])
def test_contour_sum_is_richardsons_sum_to_rounding(family, order, K):
    # every frequency of f^k conj(f) z f' lies within (-N_K, N_K), so the trapezoidal
    # rule is the contour integral Richardson's sum equals, and the two
    # differ by rounding alone; four seeded maps per case
    for seed in range(4):
        m = _drawn_series(family, order, 100 * order + 10 * K + seed)
        contour = moments._contour_moments(m, K)
        assert contour[0].imag == 0.0
        assert np.all(np.abs(contour - moments_richardson(m, K)) <= _contour_rounding(m, K))


def test_contour_sum_against_40_digit_richardson():
    m = _drawn_series("subcase2", 64, 3)
    exact = mp_oracle.richardson_moments(m.coeffs, 4)
    assert np.all(np.abs(moments._contour_moments(m, 4) - exact) <= _contour_rounding(m, 4))


def test_contour_sum_is_exactly_zero_from_k_equal_to_the_order():
    # f^k z f' starts at z**(k+1) and conj(f) ends at z**-L: no constant term
    # for k >= L, and the sum is not taken there, as Richardson's sum is 0
    m = TaylorMap((1.0, 0.5, -0.4))
    contour = moments._contour_moments(m, 8)
    assert contour[3:].tobytes() == np.zeros(6, dtype=complex).tobytes()
    assert moments_richardson(m, 8)[3:].tobytes() == contour[3:].tobytes()
    assert np.all(np.abs(contour[:3] - moments_richardson(m, 2)) <= _contour_rounding(m, 2))

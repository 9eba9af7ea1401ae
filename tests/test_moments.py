import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heleshaw import moments
from heleshaw.errors import QuadratureError, ResidueError, UncancelledPoleError
from heleshaw.maps import (
    AbcRationalMap,
    CircleGrid,
    PolynomialMap,
    RationalMap,
    TaylorMap,
    ring_values,
)
from heleshaw.moments import (
    QuadratureData,
    coeffs_to_moments,
    default_moment_count,
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    moments_to_coeffs,
    quadrature_check,
    quadrature_coeffs,
    richardson_moment,
    richardson_moments,
)
from heleshaw.rational import RationalFunction, deflate, pval, series_div
from heleshaw.scenarios import (
    make_example_abc,
    make_subcase1,
    make_subcase2,
    subcase2_from_omega,
)

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
    m, data = make_example_abc(a, b, 1.3)
    mv = moments_residue(m, 6)
    assert_allclose(mv[0], data.weight_a + data.weight_b, rtol=1e-12)
    for k in range(1, 7):
        assert_allclose(mv[k], data.weight_b * data.image_b**k, rtol=1e-12)
    for k in range(2, 6):
        assert abs(mv[k + 1] * mv[k - 1] - mv[k] ** 2) <= 1e-12 * abs(mv[k]) ** 2


def test_residue_route_rejects_repeated_pole():
    # a_1 = -1.09/0.6 puts the zero of f' at omega = 0.3, so the map with
    # its double pole at 1/0.3 passes validation
    m = RationalMap((1.0, -1.09 / 0.6), (0.3, 0.3))
    with pytest.raises(ResidueError, match="repeated pole"):
        moments_residue(m, 2)


def _taylor_at_zero(p, count):
    """The first ``count`` Taylor coefficients of the polynomial p at the
    origin, read off as the remainders of repeated deflation by z."""
    out = np.zeros(count, dtype=complex)
    for k in range(count):
        p, out[k] = deflate(p, 0.0)
    return out


def deflation_residue_at_zero(r):
    """Residue at the origin by general Laurent division: deflate the
    denominator by z to the pole order, Taylor-shift both sides by repeated
    deflation, divide the series."""
    order = 0
    den = r.den
    while den[0] == 0:
        den, _ = deflate(den, 0.0)
        order += 1
    if order == 0:
        return 0j
    tn = _taylor_at_zero(r.num, order)
    td = _taylor_at_zero(den, order)
    return complex(series_div(tn, td, order - 1)[order - 1])


def _origin_integrands(m, K):
    r = m.rational()
    g = m.reflection() * m.derivative_rational()
    for _ in range(K + 1):
        yield g
        g = g * r


@pytest.mark.parametrize("m", [
    PolynomialMap(tuple(_decaying_coeffs(np.random.default_rng(s), n)))
    for s, n in ((41, 1), (42, 4), (43, 9), (44, 16), (45, 24))
] + [
    make_subcase2(1.0, 0.28111),
    make_subcase2(1.7, 0.5 - 0.3j),
    make_example_abc(0.4, 2.0, 2.0)[0],
    make_example_abc(0.2 + 0.1j, 1.7 - 0.4j, 1.3)[0],
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
    mv, _ = moments_area_oracle(m, 2)
    assert abs(mv[0] - 1.0) < 1e-6


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


def test_area_oracle_matches_reference_quadrature():
    # polynomial maps keep the (96, 256) / (192, 512) grids
    rng = np.random.default_rng(29)
    for n in range(1, 33):
        j = np.arange(1, n + 1)
        a = 0.3 / (j + 1) * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
        m = PolynomialMap(tuple(np.concatenate([[1.0], a])))
        mv, err = moments_area_oracle(m, n)
        coarse = reference_disk_quadrature(m, n, 96, 256)
        fine = reference_disk_quadrature(m, n, 192, 512)
        scale = np.max(np.abs(fine))
        assert np.max(np.abs(mv - fine)) < 1e-12 * scale
        assert abs(err - np.max(np.abs(fine - coarse))) < 1e-12 * scale


def _disk_nodes(nr, nt):
    radii, _ = moments._disk_grid(nr, nt)
    return radii[:, None] * np.exp(2j * np.pi * np.arange(nt) / nt)[None, :]


@pytest.mark.parametrize("degree", [7, 40])
def test_ring_values_match_horner(degree):
    # degree 40 > nt = 16 exercises the folding of coefficients mod nt
    rng = np.random.default_rng(degree)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    radii, _ = moments._disk_grid(8, 16)
    exact = pval(c, _disk_nodes(8, 16))
    err = np.max(np.abs(ring_values(RationalFunction(c), radii, CircleGrid(16)) - exact))
    assert err < 1e-13 * np.max(np.abs(c))


def test_disk_values_agree_across_map_kinds():
    # ring and circle values by FFT against Horner at the same nodes
    radii, _ = moments._disk_grid(12, 32)
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
    radii, weights = moments._disk_grid(96, 256)
    again = moments._disk_grid(96, 256)
    assert again[0] is radii and again[1] is weights
    with pytest.raises(ValueError):
        radii[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0
    # the weights integrate 1 over the disk to (1/pi) * area = 1
    assert abs(np.sum(weights) * 256 - 1.0) < 1e-14


def test_angular_nodes_from_nearest_pole():
    assert moments._angular_nodes(CARDIOID) == 256
    # the benchmark's ranges: |B1| <= 0.6 sqrt(M0) and |b| >= 1.5
    assert moments._angular_nodes(make_subcase2(1.0, 0.6)) == 256
    assert moments._angular_nodes(make_example_abc(0.3, 1.5, 1.0)[0]) == 256
    # |p| = 1.0174: log(1e12) / log|p| = 1602 nodes
    assert moments._angular_nodes(make_subcase2(1.0, 0.95)) == 2048
    assert moments._angular_nodes(make_subcase2(1.0, 0.98)) == 4096
    # one grid of 8192 angular nodes fits under the cap, its refinement not
    near = AbcRationalMap(0.4, 1.005, 2.0)
    assert moments._angular_nodes(near) == 8192
    with pytest.raises(QuadratureError):
        moments._angular_nodes(near, refine=2)


def test_ring_blocks_do_not_change_the_quadrature(monkeypatch):
    # polynomial grids are one block; 8 rings per block must agree with it
    m = PolynomialMap((1.0, 0.3 - 0.1j, 0.05j, -0.02))
    data = quadrature_coeffs(m)
    tests = [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
    whole = moments._disk_quadrature(m, 4, 96, 256)
    checks = quadrature_check(m, data, tests)
    monkeypatch.setattr(moments, "_BLOCK_NODES", 8 * 256)
    assert_allclose(moments._disk_quadrature(m, 4, 96, 256), whole,
                    rtol=0, atol=1e-14 * np.max(np.abs(whole)))
    assert_allclose(quadrature_check(m, data, tests), checks, rtol=0, atol=1e-14)


def test_area_oracle_memory_is_bounded_near_the_cap():
    # subcase2 at |B1| = 0.98 sqrt(M0) needs 192 x 8192 nodes on the fine
    # level; evaluated whole, that level peaked at 96 MB of arrays
    import tracemalloc

    m = make_subcase2(1.0, 0.98)
    tracemalloc.start()
    try:
        _, err = moments_area_oracle(m, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err < 1e-12
    assert peak < 16 * 2**20


def test_pole_near_circle_raises_quadrature_error():
    m = AbcRationalMap(0.4, 1.001, 2.0)
    with pytest.raises(QuadratureError):
        moments_area_oracle(m, 2)
    with pytest.raises(QuadratureError):
        quadrature_check(m, QuadratureData(c=(1.0,)), [[1.0]])


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
    C = abs(m.numer_coeffs[1]) / 0.6  # |a_1| = C |omega|
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
        m, _ = make_example_abc(a, b, rng.uniform(0.5, 2.0))
        with pytest.raises(UncancelledPoleError, match="keeps a pole"):
            quadrature_coeffs(m)
        M0 = rng.uniform(0.5, 2.0)
        B1 = rng.uniform(0.2, 0.9) * np.sqrt(M0) * np.exp(2j * np.pi * rng.uniform())
        assert_allclose(quadrature_coeffs(make_subcase2(M0, B1)).c[0], M0, rtol=1e-10)


def test_conversion_n0():
    data = QuadratureData(c=(0.49,))
    mv = coeffs_to_moments(data, PolynomialMap((0.7,)))
    assert_allclose(mv[0], 0.49)


def test_conversion_roundtrip_random_degree3():
    rng = np.random.default_rng(23)
    for _ in range(10):
        coeffs = np.concatenate(
            [[rng.uniform(0.5, 1.2)],
             0.25 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))]
        )
        m = PolynomialMap(tuple(coeffs))
        data = quadrature_coeffs(m)
        mv = coeffs_to_moments(data, m)
        back = moments_to_coeffs(mv, m)
        assert_allclose(back.c, data.c, rtol=1e-12, atol=1e-14)


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
    res = quadrature_check(m, data, [[1.0]])
    assert res[0] < 1e-6


def test_quadrature_check_two_point():
    _, data = make_example_abc(0.4, 2.0, 2.0)
    res = quadrature_check(ABC, data, [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]])
    assert max(res) < 1e-6


def test_quadrature_check_odd_symmetry():
    m = PolynomialMap((1.0,))
    data = quadrature_coeffs(m)
    res = quadrature_check(m, data, [[0.0, 0.0, 1.0]])
    assert res[0] < 1e-12


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

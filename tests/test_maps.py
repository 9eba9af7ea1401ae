from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from heleshaw.cli import main
from heleshaw.errors import (
    BranchPointError,
    ConfigError,
    PoleProximityError,
    RootFindingError,
)
from heleshaw import maps
from heleshaw.config import DEFAULT
from heleshaw.maps import (
    AbcRationalMap,
    CircleGrid,
    PolynomialMap,
    TaylorMap,
    branch_points,
    circle_values,
    polynomial_roots,
    ring_values,
    winding_number,
)
from heleshaw.rational import RationalFunction, pval
from heleshaw.scenarios import make_example_abc, make_subcase2

ABC = AbcRationalMap(0.4, 2.0, 2.0)
GRID = CircleGrid(1024)


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        CircleGrid(100)
    with pytest.raises(ValueError):
        CircleGrid(2)


@pytest.mark.parametrize("degree", [5, 255, 1023, 3000])
def test_circle_values_match_horner(degree):
    # degree >= N exercises the folding of coefficients mod N
    rng = np.random.default_rng(degree)
    c = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    c /= np.arange(1, degree + 2)
    g = CircleGrid(1024)
    exact = pval(c, g.nodes)
    err = np.max(np.abs(circle_values(c, g) - exact))
    assert err < 1e-12 * np.max(np.abs(exact))


def _fold_then_scaled_ifft(c, n):
    """circle_values written out: fold mod n into a zero buffer, N * ifft."""
    folded = np.zeros(c.shape[:-1] + (n,), dtype=complex)
    for start in range(0, c.shape[-1], n):
        chunk = c[..., start : start + n]
        folded[..., : chunk.shape[-1]] += chunk
    return n * np.fft.ifft(folded)


@pytest.mark.parametrize("n", [16, 4096])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["1d", "2d"])
@pytest.mark.parametrize("length", ["fewer", "exactly", "more"])
def test_circle_values_bitwise_equal_to_fold_and_scaled_ifft(n, shape, length):
    # the unscaled FFT changes no bit of the values, which keeps evolve
    # artifacts byte-identical
    count = {"fewer": n // 4 + 1, "exactly": n, "more": 2 * n + n // 2 + 3}[length]
    rng = np.random.default_rng(n + count)
    c = rng.standard_normal(shape + (count,)) + 1j * rng.standard_normal(shape + (count,))
    c /= np.arange(1, count + 1)
    assert np.array_equal(circle_values(c, CircleGrid(n)), _fold_then_scaled_ifft(c, n))


def test_ring_values_reject_exact_pole():
    # 1/(z - 1) has its pole at the grid node z = 1: on the unit circle, and
    # on the outer ring of the two
    r = RationalFunction([1.0], [-1.0, 1.0])
    for radii in (1.0, [0.5, 1.0]):
        with pytest.raises(PoleProximityError):
            ring_values(r, radii, CircleGrid(8))
    assert ring_values(r, [0.5, 0.75], CircleGrid(8)).shape == (2, 8)


def test_derivative_on_grid_agrees_across_map_kinds():
    # f' built from derivative_coeffs gives the values of the differentiated
    # rational form bitwise
    rng = np.random.default_rng(11)
    series = TaylorMap((1.0,) + tuple(0.3 * rng.standard_normal(255) / np.arange(2, 257) ** 2))
    for m, g in ((PolynomialMap((1.0, 0.2 - 0.1j, 0.05)), CircleGrid(256)),
                 (TaylorMap((1.0, 0.3, 0.0, 0.01j, 0.0)), CircleGrid(256)),
                 (series, CircleGrid(4096))):
        assert_allclose(m.derivative_on(g), m.derivative_rational()(g.nodes),
                        rtol=0, atol=1e-14)
        via_rational = ring_values(m.rational().derivative(), 1.0, g)
        assert m.derivative_on(g).tobytes() == via_rational.tobytes()


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def test_identity_map_eval():
    assert_allclose(PolynomialMap((1.0,)).rational()(0.5), 0.5)


def test_abc_normalization_and_value():
    f = ABC.rational()
    assert f(0.0) == 0.0
    # direct evaluation of c z (z-a)/(z-b), cross-checked by exact rational
    # arithmetic: 2 * (1/2) * (1/10) / (-3/2) = -1/15
    assert_allclose(f(0.5), -1.0 / 15.0, rtol=1e-15)


def test_abc_parameter_validation():
    # |a| >= 1 is admissible: subcase 2 has |a| > 1 once |omega_1| > 0.618
    for a in (1.0, 1.2, 3.0 + 4.0j):
        m = AbcRationalMap(a, 2.0 * a / abs(a), 2.0)  # f'(0) = a c / b = |a|
        assert m.a0 == pytest.approx(abs(a), rel=1e-15)
    with pytest.raises(ValueError):
        AbcRationalMap(0.0, 2.0, 2.0)  # a = 0
    with pytest.raises(ValueError):
        AbcRationalMap(0.4, 0.9, 2.0)  # |b| < 1
    with pytest.raises(ValueError):
        AbcRationalMap(0.4, 1.0, 2.0)  # |b| = 1
    with pytest.raises(ValueError):
        AbcRationalMap(0.4, 2.0, 2.0j)  # f'(0) not real
    with pytest.raises(ValueError):
        AbcRationalMap(0.4, 2.0, -2.0)  # f'(0) negative


def test_example_abc_family_keeps_a_inside_the_disk(capsys):
    # the example_abc family alone asks 0 < |a| < 1, as a config error
    with pytest.raises(ConfigError, match=r"need 0 < \|a\| < 1 < \|b\|"):
        make_example_abc(1.2, 2.0, 2.0)
    assert main(["scenario", "example_abc", "--a=1.2", "--b=2", "--c-magnitude=2"]) == 2
    assert capsys.readouterr().err == (
        "config error: need 0 < |a| < 1 < |b|, got |a|=1.2, |b|=2.0\n")


def test_polynomial_map_invariants():
    with pytest.raises(ValueError):
        PolynomialMap((-1.0,))
    with pytest.raises(ValueError):
        PolynomialMap((1.0j,))
    with pytest.raises(ValueError):
        PolynomialMap((1.0, 0.0))  # vanishing leading coefficient


def test_rational_map_finite_poles_are_denominator_roots():
    # the pole sits at b = 1/conj(omega_1); the conjugate is a different
    # point unless omega_1 is real
    from heleshaw.scenarios import subcase2_from_omega

    m = subcase2_from_omega(0.6 * np.exp(0.7j), 1.0)
    den = m.rational().den
    (p,) = m.finite_poles()
    assert abs(pval(den, p)) < 1e-14
    assert abs(p - 1.0 / np.conj(0.6 * np.exp(0.7j))) < 1e-14


@pytest.mark.parametrize("kind", ["polynomial", "taylor"])
def test_map_coefficients_are_read_only_arrays(kind):
    # the map keeps its own read-only complex array: neither writing to it
    # nor mutating the caller's input afterwards changes the map
    x = np.array([1.0, 0.3 - 0.1j, 0.05j])
    m = (PolynomialMap if kind == "polynomial" else TaylorMap)(x)
    a = m.coeffs
    before = a.copy()
    assert isinstance(a, np.ndarray) and a.dtype == complex
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 2.0
    x[...] = 0.123
    assert np.array_equal(a, before)
    assert type(m.a0) is float


def test_read_only_arrays_cannot_be_made_writeable():
    # each array is backed by immutable bytes: neither it nor its base can
    # have its writeable flag switched back on
    for a in (PolynomialMap((1.0, 0.3)).coeffs, TaylorMap((1.0, 0.2j)).coeffs):
        with pytest.raises(ValueError):
            a.flags.writeable = True
        assert not isinstance(a.base, np.ndarray)
        assert not a.flags.writeable


def test_derivative_coeffs_on_circle_equal_derivative_on():
    # series_velocity samples f' by circle_values of its coefficients,
    # string_residual through derivative_on: the two agree exactly
    rng = np.random.default_rng(5)
    tail = 0.3 * (rng.standard_normal(255) + 1j * rng.standard_normal(255))
    series = TaylorMap(np.concatenate([[1.0], tail / np.arange(2, 257) ** 2]))
    for m, g in ((series, CircleGrid(4096)),
                 (PolynomialMap((1.0, 0.2 - 0.1j, 0.05)), CircleGrid(256))):
        sampled = circle_values(m.derivative_coeffs(), g)
        assert np.array_equal(sampled, m.derivative_on(g))


# ----------------------------------------------------------------------
# derivative
# ----------------------------------------------------------------------

def test_derivative_of_identity():
    fp = PolynomialMap((1.0,)).derivative_rational()
    z = np.exp(1j * np.linspace(0, 2, 5))
    assert_allclose(fp(z), np.ones(5), atol=1e-15)


def test_derivative_coefficients_scale():
    m = PolynomialMap((1.0, 0.3))
    assert_allclose(m.derivative_coeffs(), [1.0, 0.6])


def test_abc_derivative_closed_form():
    fp = ABC.derivative_rational()
    for z in (0.3 + 0.1j, -0.5, 0.9j):
        want = 2.0 * (z**2 - 2 * 2.0 * z + 0.4 * 2.0) / (z - 2.0) ** 2
        assert_allclose(fp(z), want, rtol=1e-13)


# ----------------------------------------------------------------------
# reflection
# ----------------------------------------------------------------------

def test_reflect_scaled_identity():
    fs = PolynomialMap((0.7,)).rational().reflect()
    assert_allclose(fs(2.0), 0.7 / 2.0, rtol=1e-15)


def test_reflect_abc_closed_form():
    fs = ABC.rational().reflect()
    for z in (0.3 + 0.1j, 1.5, -0.7j):
        want = 2.0 * (1 - 0.4 * z) / (z * (1 - 2.0 * z))
        assert_allclose(fs(z), want, rtol=1e-13)


def test_reflect_quadratic_with_imaginary_coeff():
    # f = z + 0.3i z^2  ->  f* = 1/z - 0.3i/z^2, checked through Laurent
    # coefficients recovered from circle samples
    m = PolynomialMap((1.0, 0.3j))
    g = CircleGrid(64)
    hat = np.fft.fft(m.rational().reflect()(g.nodes)) / g.size  # hat[-k] multiplies z^-k
    assert_allclose(hat[-1], 1.0, atol=1e-14)
    assert_allclose(hat[-2], -0.3j, atol=1e-14)
    assert_allclose(hat[0], 0.0, atol=1e-14)


def test_reflect_involution_on_maps():
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = np.concatenate(
            [[1.0], 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))]
        )
        r = PolynomialMap(tuple(coeffs)).rational()
        back = r.reflect().reflect()
        assert_allclose(back.num[: len(r.num)], r.num, rtol=1e-13, atol=1e-16)


def test_reflection_equals_conjugate_on_circle():
    for m in (ABC, PolynomialMap((1.0, 0.25, 0.1j))):
        fv = m.boundary_values(GRID)
        fsv = m.rational().reflect()(GRID.nodes)
        scale = np.max(np.abs(fv))
        assert np.max(np.abs(fsv - np.conj(fv))) < 1e-12 * scale


# ----------------------------------------------------------------------
# residues
# ----------------------------------------------------------------------

def test_residue_basic_poles():
    assert_allclose(RationalFunction([1.0], [0.0, 1.0]).residue(0.0), 1.0)
    assert_allclose(
        RationalFunction([1.0], [0.0, 0.0, 1.0]).residue(0.0), 0.0, atol=1e-15
    )


def test_residue_two_node_weights():
    # residues of f* f' at 0 and 1/conj(b) are the quadrature weights
    integ = ABC.rational().reflect() * ABC.derivative_rational()
    assert_allclose(integ.residue(0.0), 0.8, rtol=1e-13)
    assert_allclose(integ.residue(0.5), 304.0 / 225.0, rtol=1e-13)


# ----------------------------------------------------------------------
# roots
# ----------------------------------------------------------------------

def test_derivative_zero_closed_form():
    # zeros of z^2 - 2 b z + a b at b (1 +- sqrt(1 - a/b)), a=0.4, b=2
    roots = polynomial_roots([0.8, -4.0, 1.0])
    want = np.array([2 * (1 - np.sqrt(0.8)), 2 * (1 + np.sqrt(0.8))])
    assert_allclose(np.sort(roots.real), want, rtol=1e-14)
    assert_allclose(roots.imag, 0.0, atol=1e-14)


def test_linear_roots():
    assert_allclose(polynomial_roots([-0.5, 1.0]), [0.5])
    assert_allclose(polynomial_roots([1.0, 0.6]), [-1.0 / 0.6], rtol=1e-15)


def test_degree_zero_rejected():
    with pytest.raises(RootFindingError):
        polynomial_roots([3.0])


def test_roots_residual_bound_up_to_degree_12():
    rng = np.random.default_rng(11)
    for deg in range(2, 13):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        roots = polynomial_roots(c)
        scale = np.max(np.abs(c))
        vals = np.abs(np.polynomial.polynomial.polyval(roots, c))
        assert np.max(vals) < 1e-10 * scale


def test_roots_continuation_matching():
    prev = np.array([0.5, -0.5], dtype=complex)
    # same roots slightly moved, listed in swapped order by magnitude tie
    roots = maps._match_previous(
        polynomial_roots([(-0.51 + 0.01j) * (0.49), 0.51 + 0.01j - 0.49, 1.0]), prev)
    # p = (z - 0.49)(z + 0.51 - 0.01j)
    assert abs(roots[0] - 0.49) < 0.05
    assert abs(roots[1] + 0.51) < 0.05


def test_roots_matching_keeps_complex_roots_for_real_seeds():
    near = np.array([0.5, -0.5])
    roots = np.array([-0.51 - 0.02j, 0.49 + 0.01j])
    out = maps._match_previous(roots, near)
    assert out.dtype == complex
    assert_allclose(out, [0.49 + 0.01j, -0.51 - 0.02j], rtol=0, atol=0)


def test_roots_modulus_then_argument_order():
    roots = polynomial_roots(np.poly([-0.5, 0.5j, 0.5])[::-1])
    mods = np.abs(roots)
    assert np.all(np.diff(mods) > -1e-12)


# ----------------------------------------------------------------------
# winding numbers
# ----------------------------------------------------------------------

def test_winding_unit_circle():
    w = GRID.nodes
    idx, res = winding_number(w, 0.0)
    assert idx == 1 and res < 1e-12
    idx, res = winding_number(w, 3.0)
    assert idx == 0 and res < 1e-12


def test_winding_rejects_point_on_curve():
    with pytest.raises(PoleProximityError):
        winding_number(GRID.nodes, 1.0)


def test_winding_residual_spectral():
    # an analytic, non-circular boundary still yields residual ~ machine eps
    m = PolynomialMap((1.0, 0.2, 0.05j))
    idx, res = winding_number(m.boundary_values(GRID), 0.01 + 0.02j)
    assert idx == 1
    assert res < 1e-6


def test_winding_under_resolution_raises(monkeypatch):
    from heleshaw.errors import UnderResolvedError

    # tighten the residual bound to force the diagnostic path
    monkeypatch.setattr(maps, "DEFAULT", replace(DEFAULT, winding_residual_max=1e-18))
    m = PolynomialMap((1.0, 0.2, 0.05j))
    with pytest.raises(UnderResolvedError):
        winding_number(m.boundary_values(CircleGrid(16)), 0.3 + 0.3j)


# ----------------------------------------------------------------------
# branch-point structure guards
# ----------------------------------------------------------------------

def test_no_interior_derivative_zero_for_cardioid():
    # f' = 1 + 0.6 z vanishes at -5/3, outside the disk
    assert len(branch_points(PolynomialMap((1.0, 0.3)))) == 0


def test_multiple_zero_rejected():
    # f' = (z - 0.3)^2 -> f = 0.09 z - 0.3 z^2 + z^3/3
    m = PolynomialMap((0.09, -0.3, 1.0 / 3.0))
    with pytest.raises(BranchPointError):
        branch_points(m)


def test_zero_near_circle_rejected():
    # f' = 1 + z/(1 - 1e-8): zero within the boundary margin
    r = 1.0 - 1e-8
    m = PolynomialMap((1.0, 1.0 / (2 * r)))
    with pytest.raises(BranchPointError):
        branch_points(m)


def _counted_roots(monkeypatch):
    calls = []
    real = maps.polynomial_roots

    def counted(coeffs, *args, **kwargs):
        calls.append(len(coeffs) - 1)
        return real(coeffs, *args, **kwargs)

    monkeypatch.setattr(maps, "polynomial_roots", counted)
    return calls


def test_continuation_raises_for_zero_within_margin(monkeypatch):
    # f' = (1 + z)(1 - 2z): a zero at 1/2 and one on the circle.  With a
    # wide margin both argument-principle counts are resolved, they differ,
    # and the continuation raises without any companion-matrix roots.
    m = PolynomialMap((1.0, -0.5, -2.0 / 3.0))
    calls = _counted_roots(monkeypatch)
    with monkeypatch.context() as wide:
        wide.setattr(maps, "DEFAULT", replace(DEFAULT, branch_boundary_margin=0.3))
        with pytest.raises(BranchPointError, match="within 0.3"):
            branch_points(m, near=[0.5])
    assert calls == []
    # at the default margin the counts are not resolved; the companion
    # fallback rejects the zero on the circle just the same
    with pytest.raises(BranchPointError):
        branch_points(m, near=[0.5])
    assert calls == [2]


def test_continuation_with_wrong_count_falls_back(monkeypatch):
    from heleshaw.scenarios import subcase2_from_omega

    m = TaylorMap(tuple(subcase2_from_omega(0.5 * np.exp(0.4j), 1.0).power_series(64)))
    companion = branch_points(m).omegas
    calls = _counted_roots(monkeypatch)
    assert_allclose(branch_points(m, near=companion).omegas, companion,
                    rtol=1e-12)
    assert calls == []
    out = branch_points(m, near=[companion[0], 0.1]).omegas
    assert calls == [63]
    assert_allclose(out, companion, rtol=1e-12)


def _moved_zeros(monkeypatch, shift):
    """Make :func:`branch_points` take the zeros of f' moved by ``shift``."""
    real = maps._derivative_zeros
    monkeypatch.setattr(maps, "_derivative_zeros",
                        lambda fp, near: real(fp, near) + shift)


_PHASE = np.exp(0.7j)


@pytest.mark.parametrize("build", [
    lambda: make_subcase2(1.0, 0.2 * _PHASE),
    lambda: make_subcase2(1.0, 0.6 * _PHASE),
    lambda: make_subcase2(1.0, 0.95 * _PHASE),
    lambda: make_example_abc(0.3, 1.5, 1.0),
    lambda: TaylorMap(make_subcase2(1.0, 0.3 * _PHASE).power_series(64)),
    lambda: TaylorMap(make_subcase2(1.0, 0.3 * _PHASE).power_series(256)),
], ids=["subcase2-0.2", "subcase2-0.6", "subcase2-0.95", "example_abc",
        "series-64", "series-256"])
def test_a_zero_of_fprime_moved_by_1e_8_fails_the_residual_test(monkeypatch, build):
    # omega is certified on the numerator N of f' = N/D: true zeros from
    # either route sit far below the bar, and a moved one fails it on exact
    # and series maps alike
    m = build()
    num = m.rational().derivative().num
    bound = DEFAULT.root_residual * np.max(np.abs(num))
    bp = branch_points(m)
    assert len(bp) == 1
    for omegas in (bp.omegas, branch_points(m, near=bp.omegas).omegas):
        assert np.max(np.abs(pval(num, omegas))) < 1e-3 * bound
    _moved_zeros(monkeypatch, 1e-8)
    for near in (None, bp.omegas):
        with pytest.raises(BranchPointError, match="does not vanish"):
            branch_points(m, near=near)


# ----------------------------------------------------------------------
# zero counts of f': one sampled circle, or the two rings
# ----------------------------------------------------------------------

def _count_routes(m):
    """The sampled and the ring zero counts of the numerator of m's f'."""
    num = m.rational().derivative().num
    grid = maps._count_grid(num)
    return maps._sampled_count(num, grid), maps._ring_count(num, grid)


def _seeded_series(family: str, order: int, seed: int):
    """An order-``order`` series of the family and the zeros of f' it
    continues: the exact map's for subcase2 (|B1| / sqrt(M0) in [0.2, 0.6])
    and example_abc (|a| in [0.1, 0.3], |b| in [1.5, 2]), the companion
    matrix's for a ``taylor`` map whose f' has |b_1| in [1.2, 1.8] and
    |b_j| <= 0.5**j after it."""
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * np.pi * rng.random(3))
    if family == "subcase2":
        m0 = 0.5 + 1.5 * rng.random()
        exact = make_subcase2(m0, np.sqrt(m0) * (0.2 + 0.4 * rng.random()) * phase[0])
    elif family == "example_abc":
        exact = make_example_abc((0.1 + 0.2 * rng.random()) * phase[0],
                                 (1.5 + 0.5 * rng.random()) * phase[1],
                                 0.5 + 2.0 * rng.random())
    else:
        j = np.arange(order)
        b = rng.random(order) * 0.5**j * np.exp(2j * np.pi * rng.random(order))
        b[0], b[1] = 1.0, (1.2 + 0.6 * rng.random()) * phase[0]
        m = TaylorMap(b / (j + 1))
        return m, branch_points(m).omegas
    return TaylorMap(exact.power_series(order)), branch_points(exact).omegas


@settings(max_examples=24)
@given(family=st.sampled_from(["subcase2", "example_abc", "taylor"]),
       order=st.sampled_from([64, 256]),
       seed=st.integers(0, 2**32 - 1))
def test_sampled_count_equals_ring_count_and_omegas_stay_bitwise(family, order, seed):
    # the sampled bound holds on these series, so one FFT counts the zeros
    # of f'; the count is the rings', and Newton polishes the same starts,
    # so the omegas and their images are bit for bit the ring route's
    m, near = _seeded_series(family, order, seed)
    sampled, ring = _count_routes(m)
    assert sampled == ring == len(near)
    with mock.patch.object(maps, "polynomial_roots", side_effect=AssertionError), \
            mock.patch.object(maps, "winding_number", side_effect=AssertionError):
        fast = branch_points(m, near=near)
    with mock.patch.object(maps, "_sampled_count", return_value=None), \
            mock.patch.object(maps, "polynomial_roots", side_effect=AssertionError):
        rings = branch_points(m, near=near)
    assert fast.omegas.tobytes() == rings.omegas.tobytes()
    assert fast.values.tobytes() == rings.values.tobytes()


@pytest.mark.parametrize("a, b, order, share", [
    (0.3, 1.3, 64, 0.64),
    (0.3, 1.2, 256, 0.94),
    (0.6, 1.1, 256, 0.26),
])
def test_rings_count_where_the_sampled_bound_fails(monkeypatch, a, b, order, share):
    # a truncation of f' whose coefficients decay only like |b|**-j: min |N|
    # on the circle is ``share`` of the sampled bound, so the two rings
    # count, and the continuation still needs no companion matrix
    exact = make_example_abc(a, b, 1.0)
    m = TaylorMap(exact.power_series(order))
    num = m.rational().derivative().num
    grid = maps._count_grid(num)
    j = np.arange(1, len(num))
    slope = np.sum(j * np.abs(num[1:]) * (1.0 + DEFAULT.branch_boundary_margin) ** (j - 1))
    bound = (DEFAULT.branch_boundary_margin + 2.0 * np.pi / grid.size) * slope
    assert np.min(np.abs(circle_values(num, grid))) / bound == pytest.approx(share, abs=0.01)
    assert _count_routes(m) == (None, 1)
    seeds = branch_points(exact).omegas
    calls = _counted_roots(monkeypatch)
    bp = branch_points(m, near=seeds)
    assert calls == [] and len(bp) == 1


@pytest.mark.parametrize("radius", [1.0 - 0.5e-6, 1.0 + 0.5e-6])
def test_a_zero_within_the_margin_fails_the_sampled_bound_and_raises(radius):
    # f' = (1 - 2z)(1 - z/radius): a zero at 1/2 and one within the
    # boundary margin of the circle, inside or outside it.  The samples
    # bound no count, and the rings and then the companion matrix reject it
    b = np.convolve([1.0, -2.0], [1.0, -1.0 / radius])
    m = PolynomialMap(b / np.arange(1, 4))
    num = m.rational().derivative().num
    assert maps._sampled_count(num, maps._count_grid(num)) is None
    for near in ([0.5], [0.5, radius]):
        with pytest.raises(BranchPointError):
            branch_points(m, near=near)


def test_simple_zero_gate_reads_f_second_derivative(monkeypatch):
    # at a zero of N, f'' = N'/D: the gate passes just below |f''(omega)|
    # and raises just above it
    m = make_subcase2(1.0, 0.6 * _PHASE)
    fp = m.rational().derivative()
    (omega,) = branch_points(m).omegas
    fpp = abs(fp.derivative()(omega))
    monkeypatch.setattr(maps, "DEFAULT", replace(DEFAULT, branch_simple_min=0.999 * fpp))
    branch_points(m)
    monkeypatch.setattr(maps, "DEFAULT", replace(DEFAULT, branch_simple_min=1.001 * fpp))
    with pytest.raises(BranchPointError, match="not simple"):
        branch_points(m)


# ----------------------------------------------------------------------
# points by one power product
# ----------------------------------------------------------------------

def _horner_bound(c, w):
    """4 L u sum_j |c_j| |w|**j, L = len(c), u the unit roundoff, at each w."""
    w = np.atleast_1d(w)
    powers = np.abs(w)[None, :] ** np.arange(len(c))[:, None]
    return 4 * len(c) * (np.finfo(float).eps / 2) * (np.abs(c) @ powers)


def test_power_values_agree_with_horner():
    # the omegas' evaluator against pval's scalar Horner loop, on random
    # coefficients without decay at points up to the boundary margin
    rng = np.random.default_rng(20)
    radius = 1.0 - DEFAULT.branch_boundary_margin
    worst = 0.0
    for length in range(1, 258):
        c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        w = radius * np.sqrt(rng.random(4)) * np.exp(2j * np.pi * rng.random(4))
        got = maps._power_values(maps._stacked([c]), w)[0]
        want = np.array([pval(c, complex(x)) for x in w])
        worst = max(worst, np.max(np.abs(got - want) / _horner_bound(c, w)))
    assert worst <= 1.0


def test_power_values_of_rows_of_unequal_length():
    # each row is zero-padded to the longest, so each keeps its own degree
    rows = ([1.0, 2.0], [0.5j], [1.0, 0.0, -3.0])
    w = np.array([0.5, -0.25j])
    assert_allclose(maps._power_values(maps._stacked(rows), w),
                    [[2.0, 1.0 - 0.5j], [0.5j, 0.5j], [0.25, 1.1875]], rtol=1e-15)
    assert maps._power_values(maps._stacked(rows), np.zeros(0)).shape == (3, 0)


def test_newton_from_a_critical_point_overflows_quietly_and_stalls():
    # N = 1 - 4 z^2 + 1e-3 z^63 has N' = 0 near 0: the first step lands near
    # 1e11, where z^63 overflows; the run stalls to None, as Horner's did,
    # with no overflow warning
    c = np.zeros(64, dtype=complex)
    c[0], c[2], c[63] = 1.0, -4.0, 1e-3
    dc = np.arange(1, 64) * c[1:]
    assert maps._newton_zero(maps._stacked((c, dc)), 1e-12) is None


def _horner_branch_points(m, near):
    """Omegas and images by scalar Horner loops: each of ``near`` Newton
    polished on the numerator N of f' by pval's N and N' until |N| counts
    as a root, then one more step, and f = num/den at each by pval."""
    r = m.rational()
    num = r.derivative().num
    dnum = np.arange(1, len(num)) * num[1:]
    small = DEFAULT.root_residual * np.max(np.abs(num))
    omegas = []
    for w in near:
        w = complex(w)
        for _ in range(50):
            v, d = pval(num, w), pval(dnum, w)
            w -= v / d
            if abs(v) <= small:
                break
        omegas.append(w)
    return np.array(omegas), np.array([r(w) for w in omegas])


@pytest.mark.parametrize("order, continued", [(None, False), (None, True), (256, True)])
def test_branch_points_by_power_products_match_the_horner_loops(order, continued):
    # the exact subcase-2 map (companion roots, or continued from 1e-3 off
    # them, as from an earlier snapshot) and its order-256 series continued
    # the same way: the omegas and images agree with the Horner loops within
    # 4 L u sum_j |c_j| |w|**j of N (over |N'(w)| for an omega) and of f's
    # numerator and denominator
    exact = make_subcase2(1.0, 0.3 * _PHASE)
    seeds = branch_points(exact).omegas
    m = exact if order is None else TaylorMap(exact.power_series(order))
    near = seeds + 1e-3 if continued else None
    bp = branch_points(m, near=near)
    r = m.rational()
    num = r.derivative().num
    omegas, values = _horner_branch_points(m, near if continued else bp.omegas)
    if continued:
        slope = np.abs(pval(np.arange(1, len(num)) * num[1:], omegas))
        assert np.all(np.abs(bp.omegas - omegas) <= _horner_bound(num, omegas) / slope)
    else:
        assert bp.omegas.tobytes() == seeds.tobytes()
    den = np.abs(pval(r.den, omegas))
    quotient = (_horner_bound(r.num, omegas) + np.abs(values) * _horner_bound(r.den, omegas)) / den
    assert len(bp) == 1 and np.all(np.abs(bp.values - values) <= quotient)


def test_taylor_map_tail_energy():
    coeffs = [1.0] + [0.0] * 62 + [1e-3]
    m = TaylorMap(tuple(coeffs))
    assert m.tail_energy() > 1e-7
    m2 = TaylorMap(tuple([1.0] + [0.0] * 63))
    assert m2.tail_energy() == 0.0

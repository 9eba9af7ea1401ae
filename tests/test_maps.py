from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heleshaw.errors import (
    BranchPointError,
    PoleProximityError,
    RootFindingError,
)
from heleshaw import maps
from heleshaw.config import DEFAULT
from heleshaw.maps import (
    AbcRationalMap,
    CircleGrid,
    PolynomialMap,
    RationalMap,
    TaylorMap,
    circle_values,
    polynomial_roots,
    ring_values,
    simple_derivative_zeros_in_disk,
    winding_number,
)
from heleshaw.rational import RationalFunction, pval

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
    assert_allclose(PolynomialMap((1.0,))(0.5), 0.5)


def test_abc_normalization_and_value():
    assert ABC(0.0) == 0.0
    # direct evaluation of c z (z-a)/(z-b), cross-checked by exact rational
    # arithmetic: 2 * (1/2) * (1/10) / (-3/2) = -1/15
    assert_allclose(ABC(0.5), -1.0 / 15.0, rtol=1e-15)


def test_eval_near_pole_raises():
    with pytest.raises(PoleProximityError):
        ABC(2.0 + 1e-12)


def test_abc_parameter_validation():
    with pytest.raises(ValueError):
        AbcRationalMap(1.2, 2.0, 2.0)  # |a| >= 1
    with pytest.raises(ValueError):
        AbcRationalMap(0.4, 0.9, 2.0)  # |b| <= 1
    with pytest.raises(ValueError):
        AbcRationalMap(0.4, 2.0, 2.0j)  # f'(0) not positive


def test_polynomial_map_invariants():
    with pytest.raises(ValueError):
        PolynomialMap((-1.0,))
    with pytest.raises(ValueError):
        PolynomialMap((1.0j,))
    with pytest.raises(ValueError):
        PolynomialMap((1.0, 0.0))  # vanishing leading coefficient


def test_rational_map_consistency_check():
    # storing a pole reflection whose conjugate is not a zero of f'
    with pytest.raises(ValueError):
        RationalMap((1.0, 0.1), (0.5,))


def test_rational_map_finite_poles_are_denominator_roots():
    # poles sit at 1/pole_reflections[j]; the conjugate is a different point
    # unless the reflection is real
    from heleshaw.scenarios import subcase2_from_omega

    m = subcase2_from_omega(0.6 * np.exp(0.7j), 1.0)
    den = m.rational().den
    (p,) = m.finite_poles()
    assert abs(pval(den, p)) < 1e-14
    assert abs(p - 1.0 / np.conj(0.6 * np.exp(0.7j))) < 1e-14


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
    fs = PolynomialMap((0.7,)).reflection()
    assert_allclose(fs(2.0), 0.7 / 2.0, rtol=1e-15)


def test_reflect_abc_closed_form():
    fs = ABC.reflection()
    for z in (0.3 + 0.1j, 1.5, -0.7j):
        want = 2.0 * (1 - 0.4 * z) / (z * (1 - 2.0 * z))
        assert_allclose(fs(z), want, rtol=1e-13)


def test_reflect_quadratic_with_imaginary_coeff():
    # f = z + 0.3i z^2  ->  f* = 1/z - 0.3i/z^2, checked through Laurent
    # coefficients recovered from circle samples
    m = PolynomialMap((1.0, 0.3j))
    g = CircleGrid(64)
    hat = np.fft.fft(m.reflection()(g.nodes)) / g.size  # hat[-k] multiplies z^-k
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
        fsv = m.reflection()(GRID.nodes)
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
    integ = ABC.reflection() * ABC.derivative_rational()
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
    assert len(simple_derivative_zeros_in_disk(PolynomialMap((1.0, 0.3)))) == 0


def test_multiple_zero_rejected():
    # f' = (z - 0.3)^2 -> f = 0.09 z - 0.3 z^2 + z^3/3
    m = PolynomialMap((0.09, -0.3, 1.0 / 3.0))
    with pytest.raises(BranchPointError):
        simple_derivative_zeros_in_disk(m)


def test_zero_near_circle_rejected():
    # f' = 1 + z/(1 - 1e-8): zero within the boundary margin
    r = 1.0 - 1e-8
    m = PolynomialMap((1.0, 1.0 / (2 * r)))
    with pytest.raises(BranchPointError):
        simple_derivative_zeros_in_disk(m)


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
            simple_derivative_zeros_in_disk(m, near=[0.5])
    assert calls == []
    # at the default margin the counts are not resolved; the companion
    # fallback rejects the zero on the circle just the same
    with pytest.raises(BranchPointError):
        simple_derivative_zeros_in_disk(m, near=[0.5])
    assert calls == [2]


def test_continuation_with_wrong_count_falls_back(monkeypatch):
    from heleshaw.scenarios import subcase2_from_omega

    m = TaylorMap(tuple(subcase2_from_omega(0.5 * np.exp(0.4j), 1.0).power_series(64)))
    companion = simple_derivative_zeros_in_disk(m)
    calls = _counted_roots(monkeypatch)
    assert_allclose(simple_derivative_zeros_in_disk(m, near=companion), companion,
                    rtol=1e-12)
    assert calls == []
    out = simple_derivative_zeros_in_disk(m, near=[companion[0], 0.1])
    assert calls == [63]
    assert_allclose(out, companion, rtol=1e-12)


def test_taylor_map_tail_energy():
    coeffs = [1.0] + [0.0] * 62 + [1e-3]
    m = TaylorMap(tuple(coeffs))
    assert m.tail_energy() > 1e-7
    m2 = TaylorMap(tuple([1.0] + [0.0] * 63))
    assert m2.tail_energy() == 0.0

"""Property tests over admissible polynomial maps.

Maps f = z + sum_j a_j z**(j+1) with n <= 24 and |a_j| <= 0.3 / (j+1), the
range of the verification benchmark; f' may vanish inside the disk (the
non-univalent case) but is kept away from the unit circle.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heleshaw.bracket import _string_solve, derivative_reflection_resultant
from heleshaw.maps import CircleGrid, PolynomialMap
from heleshaw.moments import (
    coeffs_to_moments,
    default_moment_count,
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    moments_to_coeffs,
    quadrature_coeffs,
)

GRID = CircleGrid(256)


@st.composite
def polynomial_maps(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    mags = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
    j = np.arange(1, n + 1)
    a = 0.3 / (j + 1) * np.asarray(mags) * np.exp(1j * np.asarray(phases))
    assume(a[-1] != 0)
    m = PolynomialMap(tuple(np.concatenate([[1.0], a])))
    assume(np.min(np.abs(m.derivative_on(GRID))) > 1e-3)
    return m


@settings(max_examples=30)
@given(m=polynomial_maps())
def test_three_way_moment_agreement(m):
    K = default_moment_count(m)
    rich = moments_richardson(m, K).as_array()
    scale = max(1.0, float(np.max(np.abs(rich))))
    res = moments_residue(m, K).as_array()
    assert np.max(np.abs(rich - res)) < 1e-10 * scale
    area, _ = moments_area_oracle(m, K)
    assert np.max(np.abs(rich - area.as_array())) < 1e-6 * scale


@settings(max_examples=30)
@given(m=polynomial_maps())
def test_coefficient_moment_round_trip(m):
    data = quadrature_coeffs(m)
    mv = coeffs_to_moments(data, m)
    rich = moments_richardson(m, data.n).as_array()
    assert np.max(np.abs(mv.as_array() - rich)) < 1e-10 * max(1.0, np.max(np.abs(rich)))
    back = moments_to_coeffs(mv, m)
    c = np.asarray(data.c)
    assert np.max(np.abs(np.asarray(back.c) - c)) < 1e-10 * max(1.0, np.max(np.abs(c)))


@settings(max_examples=30)
@given(m=polynomial_maps(), r=st.floats(0.5, 2.0), t=st.floats(0.0, 2 * np.pi))
def test_reflection_is_an_involution(m, r, t):
    R = m.rational()
    back = m.reflection().reflect()
    z = r * np.exp(1j * t)
    assert abs(back(z) - R(z)) < 1e-12 * max(1.0, abs(R(z)))
    assert np.array_equal(back.num, R.num) and np.array_equal(back.den, R.den)


@settings(max_examples=40)
@given(m=polynomial_maps())
def test_resultant_from_det_w_matches_sylvester(m):
    # det W = 2 b0^(2n+1) Res(f', f'*), against the Sylvester determinant
    want = derivative_reflection_resultant(m)
    assert abs(_string_solve(m.derivative_coeffs()).resultant - want) <= 1e-12 * abs(want)

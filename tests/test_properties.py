"""Property tests over admissible polynomial maps.

Maps f = a0 z + sum_j a_j z**(j+1) with a0 in {0.5, 1, 2}, n <= 32 and
|a_j| <= 0.3 a0 / (j+1), beyond the range of the verification benchmark;
f' may vanish inside the disk (the non-univalent case) but is kept away
from the unit circle.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heleshaw.bracket import (
    _string_solve,
    derivative_reflection_resultant,
    jacobian_identity_report,
    log_rel_error,
)
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
def polynomial_maps(draw, max_n=32, a0=st.sampled_from([0.5, 1.0, 2.0])):
    n = draw(st.integers(1, max_n))
    a0 = draw(a0)
    mags = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
    j = np.arange(1, n + 1)
    a = 0.3 * a0 / (j + 1) * np.asarray(mags) * np.exp(1j * np.asarray(phases))
    assume(a[-1] != 0)
    m = PolynomialMap(tuple(np.concatenate([[a0], a])))
    assume(np.min(np.abs(m.derivative_on(GRID))) > 1e-3)
    return m


@settings(max_examples=30)
@given(m=polynomial_maps())
def test_three_way_moment_agreement(m):
    K = default_moment_count(m)
    rich = moments_richardson(m, K)
    scale = max(1.0, float(np.max(np.abs(rich))))
    res = moments_residue(m, K)
    assert np.max(np.abs(rich - res)) < 1e-10 * scale
    area, _ = moments_area_oracle(m, K)
    assert np.max(np.abs(rich - area)) < 1e-6 * scale


@settings(max_examples=30)
@given(m=polynomial_maps())
def test_coefficient_moment_round_trip(m):
    data = quadrature_coeffs(m)
    mv = coeffs_to_moments(data, m)
    rich = moments_richardson(m, data.n)
    assert np.max(np.abs(mv - rich)) < 1e-10 * max(1.0, np.max(np.abs(rich)))
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


@settings(max_examples=60)
@given(m=polynomial_maps())
def test_jacobian_determinant_identity(m):
    # det V + det U against 2 a0^(n^2+3n+1) Res, and det U against both of
    # its closed forms: Res read from det W, and 2 b0 det S
    rep = jacobian_identity_report(m, fd_step=None)
    assert rep.rel_error < 1e-10
    assert log_rel_error(rep.log_det_u, rep.log_det_u_closed) < 1e-10
    assert log_rel_error(rep.log_det_u_sylvester, rep.log_det_u) < 1e-10

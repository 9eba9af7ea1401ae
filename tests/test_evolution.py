from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from heleshaw import bracket, evolution, maps

from heleshaw.errors import (
    ConfigError,
    CuspError,
    DegenerateResultantError,
    NormalizationError,
    TruncationError,
)
from heleshaw.evolution import (
    EvolutionState,
    branch_points,
    poisson_schwarz,
    run_evolution,
    step_polynomial,
    step_taylor_fixed_branch,
)
from heleshaw.maps import (
    CircleGrid,
    PolynomialMap,
    TaylorMap,
    circle_values,
    simple_derivative_zeros_in_disk,
)
from heleshaw.moments import moments_richardson
from heleshaw.scenarios import ScenarioSpec, make_subcase2, subcase2_from_omega
from test_bracket import _shell_scale, decaying_map

CARDIOID = PolynomialMap((1.0, 0.3))

# subcase-2 oracle constants for omega_1 = 0.6, M0 = 1 (exact closed forms):
# C = 1/(0.6 sqrt(1.64)), B1 = 0.36/sqrt(1.64)
B1_SUB2 = 0.2811127713994909


# ----------------------------------------------------------------------
# Poisson-Schwarz extension
# ----------------------------------------------------------------------

def test_herglotz_identity_map():
    g = CircleGrid(256)
    P = poisson_schwarz(PolynomialMap((1.0,)), g)
    assert_allclose(P[0], 0.5, atol=1e-14)
    assert np.max(np.abs(P[1:])) < 1e-14


def test_herglotz_scaled_disk():
    g = CircleGrid(256)
    r = 0.7
    P = poisson_schwarz(PolynomialMap((r,)), g)
    assert_allclose(P[0], 1.0 / (2.0 * r**2), atol=1e-14)


def test_herglotz_boundary_match_cardioid():
    g = CircleGrid(256)
    P = poisson_schwarz(CARDIOID, g)
    target = 1.0 / (2.0 * np.abs(CARDIOID.derivative_rational()(g.nodes)) ** 2)
    assert np.max(np.absolute(np.real(circle_values(P, g)) - target)) < 1e-10
    assert P[0].imag == 0.0


def test_herglotz_spectral_convergence():
    e = []
    for n in (128, 256):
        g = CircleGrid(n)
        P = poisson_schwarz(CARDIOID, g)
        target = 1.0 / (2.0 * np.abs(CARDIOID.derivative_rational()(g.nodes)) ** 2)
        e.append(np.max(np.abs(np.real(circle_values(P, g)) - target)))
    assert e[1] <= e[0]
    assert e[1] < 1e-10


def test_herglotz_positive_real_part():
    g = CircleGrid(256)
    P = poisson_schwarz(CARDIOID, g)
    assert np.min(np.real(circle_values(P, g))) > 0.0


def test_herglotz_boundary_match_all_scenario_maps():
    from heleshaw.scenarios import make_example_abc, make_subcase1

    g = CircleGrid(256)
    maps = [
        PolynomialMap((1.0,)),
        CARDIOID,
        make_example_abc(0.4, 2.0, 2.0)[0],
        make_subcase1(2.0, 7.0 - 4.0 * np.sqrt(3.0)),
        subcase2_from_omega(0.6, 1.0),
    ]
    for m in maps:
        P = poisson_schwarz(m, g)
        target = 1.0 / (2.0 * np.abs(m.derivative_rational()(g.nodes)) ** 2)
        assert np.max(np.abs(np.real(circle_values(P, g)) - target)) < 1e-10


def test_cusp_detected():
    g = CircleGrid(256)
    # |a1| = 1/2 puts a zero of f' on the unit circle
    with pytest.raises(CuspError):
        poisson_schwarz(PolynomialMap((1.0, 0.5)), g)


# ----------------------------------------------------------------------
# branch points
# ----------------------------------------------------------------------

def test_branch_points_empty_for_cardioid():
    assert len(branch_points(CARDIOID)) == 0


def test_branch_points_empty_for_disk():
    assert len(branch_points(PolynomialMap((1.0,)))) == 0


def test_branch_point_subcase2():
    m = subcase2_from_omega(0.6, 1.0)
    bp = branch_points(m)
    assert len(bp) == 1
    assert_allclose(bp.omegas[0], 0.6, rtol=1e-12)
    assert_allclose(bp.values[0], B1_SUB2, rtol=1e-10)


def test_branch_point_residue_route_agreement():
    # the cross-check inside branch_points asserts the residue of
    # f f''/f' equals f(omega) to 1e-9; it always runs
    m = subcase2_from_omega(0.35 + 0.25j, 1.5)
    bp = branch_points(m)
    assert len(bp) == 1


@pytest.mark.parametrize("modulus", [0.85, 0.9, 0.95])
@pytest.mark.parametrize("phase", [0.0, -2.9])
def test_branch_residue_cross_check_near_the_circle(modulus, phase):
    # |omega_1| -> 1 as |B1| -> sqrt(M0): the residue of f f''/f' must stay
    # within the 1e-9 cross-check instead of failing on uncancelled poles
    b1 = modulus * np.exp(1j * phase)
    bp = branch_points(make_subcase2(1.0, b1))
    assert len(bp) == 1
    assert abs(bp.values[0] - b1) < 1e-10


@settings(max_examples=8)
@given(
    m0=st.floats(0.5, 2.0),
    ratio=st.floats(0.05, 0.8),
    phase=st.floats(-np.pi, np.pi),
)
def test_continuation_matches_companion_on_series(m0, ratio, phase):
    # seed from the exact map, step the order-256 series once, then continue
    exact = make_subcase2(m0, ratio * np.sqrt(m0) * np.exp(1j * phase))
    seeds = simple_derivative_zeros_in_disk(exact)
    state = EvolutionState(0.0, TaylorMap(tuple(exact.power_series(256))))
    state = step_taylor_fixed_branch(state, 1e-3, grid=CircleGrid(4096))
    companion = simple_derivative_zeros_in_disk(state.map)
    with mock.patch.object(maps, "polynomial_roots", side_effect=AssertionError):
        continued = simple_derivative_zeros_in_disk(state.map, near=seeds)
    assert len(continued) == len(companion) == 1
    assert abs(continued[0] - companion[0]) < 1e-12


def test_branch_points_continuation_order():
    # two interior zeros of f': f' = (z - w1)(z - w2) with w1 w2 real > 0
    w1 = 0.3 + 0.2j
    w2 = 0.12 / w1
    m = PolynomialMap((0.12, -(w1 + w2) / 2.0, 1.0 / 3.0))
    bp = branch_points(m)
    assert len(bp) == 2
    # continuation keeps the caller's ordering
    prev = bp.omegas[::-1].copy()
    bp2 = branch_points(m, near=prev)
    np.testing.assert_allclose(bp2.omegas, prev, rtol=1e-12)


# ----------------------------------------------------------------------
# polynomial stepper
# ----------------------------------------------------------------------

def test_disk_growth_closed_form():
    state = EvolutionState(0.0, PolynomialMap((1.0,)))
    for _ in range(10):
        state = step_polynomial(state, 0.01)
    assert abs(state.map.coeffs[0].real - np.sqrt(1.1)) < 1e-10


def test_polynomial_step_preserves_degree_and_normalization():
    state = EvolutionState(0.0, CARDIOID)
    state = step_polynomial(state, 1e-3)
    assert state.map.degree_plus == 1
    assert state.map.coeffs[0].imag == 0.0


def test_backward_step_toward_degeneracy_raises():
    # sucking fluid out drives |a1| toward 1/2 where Res(f',f'*) = 0; the
    # stepper must stop instead of tunneling through the singular shell
    state = EvolutionState(0.0, PolynomialMap((1.0, 0.49)))
    with pytest.raises(DegenerateResultantError):
        for _ in range(200):
            state = step_polynomial(state, -2e-5)


def test_step_error_estimate_scales_like_dt5():
    # one full step against two half steps: the difference is the local
    # error, which scales like dt^5 for RK4
    def one_vs_two_halves(dt):
        state = EvolutionState(0.0, CARDIOID)
        full = step_polynomial(state, dt)
        half = step_polynomial(step_polynomial(state, 0.5 * dt), 0.5 * dt)
        return np.max(np.abs(np.subtract(full.map.coeffs, half.map.coeffs)))

    e1 = one_vs_two_halves(0.05)
    e2 = one_vs_two_halves(0.025)
    assert e1 > 0
    assert 14.0 < e1 / e2 < 45.0  # local error halving gains ~2^5


def test_rk4_order_on_disk():
    # halving dt cuts the closed-form error by ~2^4
    def err(dt):
        state = EvolutionState(0.0, PolynomialMap((1.0,)))
        for _ in range(int(round(1.0 / dt))):
            state = step_polynomial(state, dt)
        return abs(state.map.coeffs[0].real - np.sqrt(2.0))

    ratio = err(0.1) / err(0.05)
    assert 12.0 < ratio < 20.0


# ----------------------------------------------------------------------
# series stepper
# ----------------------------------------------------------------------

def test_modes_agree_on_univalent_polynomial():
    g = CircleGrid(512)
    sp = EvolutionState(0.0, CARDIOID)
    stt = EvolutionState(0.0, TaylorMap(tuple(CARDIOID.power_series(64))))
    for _ in range(20):
        sp = step_polynomial(sp, 1e-3)
        stt = step_taylor_fixed_branch(stt, 1e-3, grid=g)
    padded = np.zeros(64, dtype=complex)
    padded[:2] = sp.map.coeffs
    assert np.max(np.abs(padded - np.asarray(stt.map.coeffs))) < 1e-10


def test_taylor_step_conserves_moments():
    g = CircleGrid(1024)
    m = TaylorMap(tuple(subcase2_from_omega(0.6, 1.0).power_series(64)))
    state = EvolutionState(0.0, m)
    base = moments_richardson(m, 4)
    for _ in range(10):
        state = step_taylor_fixed_branch(state, 1e-3, grid=g)
    mv = moments_richardson(state.map, 4)
    assert abs(mv[0] - base[0] - 0.01) < 1e-8
    assert np.max(np.abs(mv[1:] - base[1:])) < 1e-8


def test_taylor_truncation_guard():
    # a map whose series barely fits order 8 trips the tail-energy check
    m = subcase2_from_omega(0.9, 1.0)
    coeffs = m.power_series(8)
    state = EvolutionState(0.0, TaylorMap(tuple(coeffs)))
    with pytest.raises(TruncationError):
        step_taylor_fixed_branch(state, 1e-3, grid=CircleGrid(256))


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def test_run_disk_scenario():
    spec = ScenarioSpec(family="disk", horizon=0.1, dt=1e-3,
                        output_times=(0.05, 0.1))
    res = run_evolution(spec)
    assert res.completed
    assert len(res.states) == 3
    for s in res.states:
        assert abs(s.map.coeffs[0].real - np.sqrt(1.0 + s.t)) < 1e-10
        assert s.diagnostics.string_residual < 1e-10


def test_run_cardioid_conservation():
    spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.3)},
                        horizon=0.1, dt=1e-3, output_times=(0.1,))
    res = run_evolution(spec)
    assert res.completed
    last = res.states[-1]
    mv = last.diagnostics.moments
    assert abs(mv[1] - 0.3) < 1e-8
    assert abs(mv[2]) < 1e-8
    assert abs(mv[0] - 1.18 - 0.1) < 1e-8


def test_run_subcase2_matches_closed_family():
    spec = ScenarioSpec(family="subcase2", params={"M0": 1.0, "B1": B1_SUB2},
                        horizon=0.05, dt=1e-3,
                        output_times=(0.01, 0.02, 0.03, 0.04, 0.05))
    res = run_evolution(spec)
    assert res.completed
    for s in res.states:
        exact = make_subcase2(1.0 + s.t, B1_SUB2).power_series(64)
        err = np.max(np.abs(np.asarray(s.map.coeffs) - exact))
        assert err < 1e-6
        assert s.diagnostics.max_branch_drift < 1e-7


def test_series_run_finds_roots_only_on_the_exact_map(monkeypatch):
    # branch points are seeded from the exact map (a degree-2 numerator of
    # f') and continued on the order-256 series at every snapshot
    degrees = []
    real = maps.polynomial_roots

    def counted(coeffs, *args, **kwargs):
        degrees.append(len(maps.trim(coeffs)) - 1)
        return real(coeffs, *args, **kwargs)

    monkeypatch.setattr(maps, "polynomial_roots", counted)
    spec = ScenarioSpec(family="subcase2", params={"M0": 1.0, "B1": B1_SUB2},
                        horizon=0.002, dt=1e-3, grid_n=4096, taylor_order=256)
    res = run_evolution(spec)
    assert res.completed
    assert len(res.states) == 2
    assert res.states[-1].diagnostics.max_branch_drift < 1e-12
    assert degrees == [2]


def test_polynomial_run_computes_each_resultant_once(monkeypatch):
    # each accepted map is solved once, by one real string matrix W: at the
    # end of the step that makes it (the initial map at its snapshot).  Its
    # det W gives Res(f', f'*) for the jump test and its velocities serve
    # the snapshot and the next step's first stage, so k steps take 4k + 1
    # real solves, and no Sylvester determinant or complex U.  The RK4
    # stages solve bare coefficient arrays: only the initial map and each
    # step's end map are built as PolynomialMaps, k + 1 of them
    solved, built = [], []
    real, real_init = bracket._string_matrix, PolynomialMap.__post_init__

    def counted(b):
        solved.append(tuple(b))
        return real(b)

    def counted_init(self):
        built.append(self)
        real_init(self)

    monkeypatch.setattr(bracket, "_string_matrix", counted)
    monkeypatch.setattr(PolynomialMap, "__post_init__", counted_init)
    for name in ("sylvester_matrix", "derivative_reflection_resultant", "bracket_matrix"):
        monkeypatch.setattr(bracket, name, mock.Mock(side_effect=AssertionError(name)))
    every_step = tuple(round(k * 1e-3, 12) for k in range(1, 13))
    for output_times in ((0.005,), every_step):
        solved.clear()
        built.clear()
        spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.3, 0.05j)},
                            horizon=0.012, dt=1e-3, output_times=output_times)
        res = run_evolution(spec)
        assert res.completed
        assert len(solved) == 4 * 12 + 1
        assert len(built) == 12 + 1
    accepted = [tuple(s.map.derivative_coeffs()) for s in res.states]
    assert len(set(accepted)) == 13
    assert all(solved.count(b) == 1 for b in accepted)


def test_step_raises_when_its_end_map_fails_the_gate(monkeypatch):
    # the end map's solve is the one made in the step (the input state
    # carries its own); rejected there, it raises from this step once the
    # jump test has passed, not from the next step's first stage.  The
    # three inner stages are the step's first three solves
    carried = bracket._string_solve(CARDIOID.derivative_coeffs())
    state = EvolutionState(0.0, CARDIOID, resultant=carried)
    assert step_polynomial(state, 1e-3).resultant.velocities is not None
    solved = []

    def rejected(b):
        solved.append(b)
        solve = bracket._string_solve(b)
        return replace(solve, velocities=None) if len(solved) == 4 else solve

    monkeypatch.setattr(evolution, "_string_solve", rejected)
    with pytest.raises(DegenerateResultantError, match="string system singular"):
        step_polynomial(state, 1e-3)
    assert len(solved) == 4


CONE = "stage left the admissible coefficient cone: "


def test_polynomial_step_leaving_the_cone_is_a_normalization_error():
    # at dt = -5 the second stage leaves the cone; at dt = -1.05 every stage
    # stays inside and only the end map leaves it
    state = EvolutionState(0.0, PolynomialMap((1.0,)))
    with pytest.raises(NormalizationError) as err:
        step_polynomial(state, -5.0)
    assert str(err.value) == CONE + "a0 must be positive, got (-0.25+0j)"
    with pytest.raises(NormalizationError, match=f"^{CONE}a0 must be positive, got "):
        step_polynomial(state, -1.05)


@pytest.mark.parametrize("dt", [-5.0, -0.6])
def test_series_step_leaving_the_cone_is_a_normalization_error(dt):
    # a stage leaves the cone at dt = -5, the end map at dt = -0.6
    state = EvolutionState(0.0, TaylorMap((1.0, 0.1) + (0.0,) * 14))
    with pytest.raises(NormalizationError, match=f"^{CONE}a0 must be positive, got "):
        step_taylor_fixed_branch(state, dt, CircleGrid(256))


# Stop outcomes of 20 steps (dt = 1e-3, a snapshot after each) from
# (1 - eps) of the shell scale: (n = 1 outcome, n = 4 outcome), each the
# stop class and the snapshot count.  Read on the implementation that took
# Res(f', f'*) from a Sylvester determinant and folded the complex U.
NEAR_SHELL_STOPS = {
    1e-1: (("completed", 21), ("completed", 21)),
    3e-2: (("completed", 21), ("completed", 21)),
    1e-2: (("completed", 21), ("DegenerateResultantError", 1)),
    3e-3: (("DegenerateResultantError", 1), ("DegenerateResultantError", 1)),
    1e-3: (("DegenerateResultantError", 1), ("DegenerateResultantError", 1)),
    3e-4: (("DegenerateResultantError", 1), ("DegenerateResultantError", 1)),
    1e-4: (("DegenerateResultantError", 1), ("DegenerateResultantError", 1)),
}


def test_near_shell_stop_outcomes_are_pinned():
    a4 = np.asarray(decaying_map(np.random.default_rng(704), 4).coeffs)
    s4 = _shell_scale(a4)
    every_step = tuple(round(k * 1e-3, 12) for k in range(1, 21))
    for eps, want in NEAR_SHELL_STOPS.items():
        starts = ((1.0, 0.5 - eps), tuple(np.concatenate([[1.0], s4 * (1 - eps) * a4[1:]])))
        for coeffs, (stop, count) in zip(starts, want):
            spec = ScenarioSpec(family="polynomial", params={"coeffs": coeffs},
                                horizon=0.02, dt=1e-3, output_times=every_step)
            res = run_evolution(spec)
            assert res.stop_reason.split(":")[0] == stop, (eps, coeffs)
            assert len(res.states) == count, (eps, coeffs)


def test_backward_run_stops_at_the_pinned_step():
    # suction from (1, 0.3) runs into the shell near t* = -0.1129; the step
    # from t = -0.112 is the first to fail, on a resultant jump
    state = EvolutionState(0.0, CARDIOID)
    for _ in range(112):
        state = step_polynomial(state, -1e-3)
    with pytest.raises(DegenerateResultantError, match="jumped"):
        step_polynomial(state, -1e-3)
    assert_allclose(state.t, -0.112, rtol=0, atol=1e-12)


def test_negative_dt_rejected_at_spec_level():
    with pytest.raises(ConfigError):
        ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.49)},
                     horizon=0.5, dt=-1e-3)


def test_run_near_degeneracy_stops_cleanly_when_under_resolved():
    # at |a1| = 0.4999 the coefficient velocity scales like 1/Res ~ 1e3, so
    # dt = 1e-3 cannot resolve the initial transient; the driver must stop
    # with the typed reason instead of tunneling through the singular shell
    spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.4999)},
                        horizon=0.01, dt=1e-3)
    res = run_evolution(spec)
    assert not res.completed
    assert "DegenerateResultantError" in res.stop_reason


def test_run_raises_for_degenerate_initial_map():
    # a typed failure at the initial map raises; only failures after step 0
    # become the stop reason
    spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.5)},
                        horizon=0.01, dt=1e-3)
    with pytest.raises(DegenerateResultantError, match="Res"):
        run_evolution(spec)


def test_run_moderately_close_to_degeneracy_completes_forward():
    # at |a1| = 0.45 the flow is stiff but resolvable; forward evolution
    # moves away from the shell and completes
    spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.45)},
                        horizon=0.01, dt=1e-3)
    res = run_evolution(spec)
    assert res.completed


def test_run_validates_output_times():
    with pytest.raises(ConfigError):
        run_evolution(
            ScenarioSpec(family="disk", horizon=0.1, dt=1e-3,
                         output_times=(0.0155,))
        )


def test_moment_drift_column_small_along_run():
    spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.3)},
                        horizon=0.05, dt=1e-3,
                        output_times=(0.01, 0.02, 0.03, 0.04, 0.05))
    res = run_evolution(spec)
    for s in res.states:
        assert s.diagnostics.max_moment_drift < 1e-7
        assert abs(s.diagnostics.moments[0] - 1.18 - s.t) < 1e-8

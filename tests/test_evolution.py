from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    poisson_schwarz,
    run_evolution,
    series_velocity,
    step_polynomial,
    step_taylor_fixed_branch,
)
from heleshaw.maps import (
    CircleGrid,
    PolynomialMap,
    TaylorMap,
    branch_points,
    circle_values,
)
from heleshaw.moments import moments_richardson
from heleshaw.scenarios import ScenarioSpec, make_subcase2, subcase2_from_omega
from test_bracket import _shell_scale, decaying_map
from test_properties import polynomial_maps

CARDIOID = PolynomialMap((1.0, 0.3))

# subcase-2 oracle constants for omega_1 = 0.6, M0 = 1 (exact closed forms):
# C = 1/(0.6 sqrt(1.64)), B1 = 0.36/sqrt(1.64)
B1_SUB2 = 0.2811127713994909


# ----------------------------------------------------------------------
# Poisson-Schwarz extension
# ----------------------------------------------------------------------

def test_herglotz_identity_map():
    g = CircleGrid(256)
    P = poisson_schwarz(PolynomialMap((1.0,)).derivative_on(g))
    assert_allclose(P[0], 0.5, atol=1e-14)
    assert np.max(np.abs(P[1:])) < 1e-14


def test_herglotz_scaled_disk():
    g = CircleGrid(256)
    r = 0.7
    P = poisson_schwarz(PolynomialMap((r,)).derivative_on(g))
    assert_allclose(P[0], 1.0 / (2.0 * r**2), atol=1e-14)


def test_herglotz_boundary_match_cardioid():
    g = CircleGrid(256)
    P = poisson_schwarz(CARDIOID.derivative_on(g))
    target = 1.0 / (2.0 * np.abs(CARDIOID.derivative_rational()(g.nodes)) ** 2)
    assert np.max(np.absolute(np.real(circle_values(P, g)) - target)) < 1e-10
    assert P[0].imag == 0.0


def test_herglotz_spectral_convergence():
    e = []
    for n in (128, 256):
        g = CircleGrid(n)
        P = poisson_schwarz(CARDIOID.derivative_on(g))
        target = 1.0 / (2.0 * np.abs(CARDIOID.derivative_rational()(g.nodes)) ** 2)
        e.append(np.max(np.abs(np.real(circle_values(P, g)) - target)))
    assert e[1] <= e[0]
    assert e[1] < 1e-10


def test_herglotz_positive_real_part():
    g = CircleGrid(256)
    P = poisson_schwarz(CARDIOID.derivative_on(g))
    assert np.min(np.real(circle_values(P, g))) > 0.0


def test_herglotz_boundary_match_all_scenario_maps():
    from heleshaw.scenarios import make_example_abc, make_subcase1

    g = CircleGrid(256)
    maps = [
        PolynomialMap((1.0,)),
        CARDIOID,
        make_example_abc(0.4, 2.0, 2.0),
        make_subcase1(2.0, 7.0 - 4.0 * np.sqrt(3.0)),
        subcase2_from_omega(0.6, 1.0),
    ]
    for m in maps:
        P = poisson_schwarz(m.derivative_on(g))
        target = 1.0 / (2.0 * np.abs(m.derivative_rational()(g.nodes)) ** 2)
        assert np.max(np.abs(np.real(circle_values(P, g)) - target)) < 1e-10


def test_cusp_detected():
    g = CircleGrid(256)
    # |a1| = 1/2 puts a zero of f' on the unit circle
    with pytest.raises(CuspError):
        poisson_schwarz(PolynomialMap((1.0, 0.5)).derivative_on(g))


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
    # branch_points certifies omega on the numerator of f' (|N(omega)|
    # under root_residual max|N|, |f''(omega)| over branch_simple_min);
    # it always runs
    m = subcase2_from_omega(0.35 + 0.25j, 1.5)
    bp = branch_points(m)
    assert len(bp) == 1


@pytest.mark.parametrize("modulus", [0.85, 0.9, 0.95])
@pytest.mark.parametrize("phase", [0.0, -2.9])
def test_branch_residue_cross_check_near_the_circle(modulus, phase):
    # |omega_1| -> 1 as |B1| -> sqrt(M0): the zero must still pass the
    # certificate on the numerator of f', and f(omega) must return B1
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
    seeds = branch_points(exact).omegas
    state = EvolutionState(0.0, TaylorMap(tuple(exact.power_series(256))))
    state = step_taylor_fixed_branch(state, 1e-3, grid=CircleGrid(4096))
    companion = branch_points(state.map).omegas
    with mock.patch.object(maps, "polynomial_roots", side_effect=AssertionError):
        continued = branch_points(state.map, near=seeds).omegas
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


@settings(max_examples=30)
@given(m=polynomial_maps())
def test_polynomial_velocity_keeps_a0_exactly_real(m):
    # the real solve's x[0] is the velocity of a0, so an RK4 step never
    # moves Im a0 off 0, and no end-of-step gate is needed
    solve = bracket._string_solve(m.derivative_coeffs())
    assume(solve.velocities is not None)
    assert solve.velocities[m.degree_plus].imag == 0.0


def test_series_velocity_keeps_a0_exactly_real():
    # adot_0 = b_0 p_0, a product of two real numbers
    m = TaylorMap(make_subcase2(1.0, B1_SUB2).power_series(256))
    velocity, _ = series_velocity(m.derivative_coeffs(), CircleGrid(4096))
    assert velocity[0].imag == 0.0


def test_backward_step_toward_degeneracy_raises():
    # sucking fluid out drives |a1| toward 1/2 where Res(f',f'*) = 0; the
    # stepper must stop instead of tunneling through the singular shell
    state = EvolutionState(0.0, PolynomialMap((1.0, 0.49)))
    with pytest.raises(DegenerateResultantError):
        for _ in range(200):
            state = step_polynomial(state, -2e-5)


def rk4_reference(a, t, dt):
    """The polynomial string flow integrated to t by fixed RK4 steps of dt,
    each stage in the polynomial cone with the gated string velocities: the
    oracle of the continuation stepper."""
    a = maps._polynomial_cone(a)
    weights = np.arange(1, len(a) + 1)

    def velocity(x):
        return bracket._string_solve(maps._polynomial_cone(x) * weights).gated()[len(x) - 1:]

    for _ in range(round(t / dt)):
        k1 = velocity(a)
        k2 = velocity(a + 0.5 * dt * k1)
        k3 = velocity(a + 0.5 * dt * k2)
        k4 = velocity(a + dt * k3)
        a = a + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return a


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_continuation_matches_the_rk4_reference(n):
    # RK4's global error against one continuation step to t = 0.1 falls
    # like dt^4 (16x per halving) until it reaches rounding
    m = decaying_map(np.random.default_rng(n), n)
    end = step_polynomial(EvolutionState(0.0, m), 0.1).map.coeffs
    coarse, fine = (np.max(np.abs(rk4_reference(m.coeffs, 0.1, dt) - end))
                    for dt in (1e-2, 5e-3))
    assert coarse / fine >= 12.0
    assert fine < 1e-10


def test_continuation_on_disk_closed_form():
    state = EvolutionState(0.0, PolynomialMap((1.0,)))
    for t in (0.1, 1.0):
        assert abs(step_polynomial(state, t).map.coeffs[0] - np.sqrt(1.0 + t)) < 1e-14


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


def test_string_and_series_velocities_agree_exactly_when_univalent():
    # with f' free of zeros in the closed disk the string flow keeps the
    # branch points (there are none) and a polynomial of degree n + 1, so
    # z f' P truncated to n + 1 coefficients is the string velocity; with
    # zeros inside, the string flow moves them and the fixed-branch flow
    # does not.  Zeros are kept 0.02 from the circle, so 1/|f'|^2 decays
    # like 0.98^k, to 1e-18 at the 2048th mode of a 4096 grid (a 256 grid
    # aliases to about 2e-8).  Measured: at most 5.7e-16 apart without
    # zeros inside, at least 0.12 apart with them
    grid = CircleGrid(4096)
    counts = [0, 0]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 15
        j = np.arange(1, n + 1)
        scale = rng.uniform(0.1, 0.6) if seed % 2 == 0 else rng.uniform(0.6, 1.5)
        a = scale / (j + 1) * rng.uniform(0.0, 1.0, n)
        m = PolynomialMap(tuple(np.concatenate(
            [[1.0], a * np.exp(2j * np.pi * rng.uniform(size=n))])))
        b = m.derivative_coeffs()
        radii = np.abs(np.roots(b[::-1]))
        if np.min(np.abs(radii - 1.0)) < 0.02:
            continue
        gap = np.max(np.abs(bracket._string_solve(b).gated()[n:] - series_velocity(b, grid)[0]))
        inside = bool(np.any(radii < 1.0))
        counts[inside] += 1
        if inside:
            assert gap >= 1e-3, (seed, gap)
        else:
            assert gap <= 1e-12, (seed, gap)
    assert min(counts) >= 10, counts


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


FIVE_OUTPUTS = (0.01, 0.02, 0.03, 0.04, 0.05)


def subcase2_run(r, output_times, order=256):
    """The series run of subcase 2 from M0 = 1, B1 = r e^(0.7i) to t = 0.05
    at dt = 1e-3, and its largest distance from the closed-form family
    make_subcase2(1 + t, B1) over the snapshots."""
    b1 = r * np.exp(0.7j)
    spec = ScenarioSpec(family="subcase2", params={"M0": 1.0, "B1": b1}, horizon=0.05,
                        dt=1e-3, output_times=output_times, taylor_order=order,
                        grid_n=4096)
    res = run_evolution(spec)
    err = max(np.max(np.abs(np.asarray(s.map.coeffs)
                            - make_subcase2(1.0 + s.t, b1).power_series(order)))
              for s in res.states)
    return res, err


@pytest.mark.parametrize("output_times", [FIVE_OUTPUTS, ()], ids=["five", "one"])
@pytest.mark.parametrize("r", [0.3, 0.6])
def test_controlled_series_run_tracks_the_closed_form(r, output_times):
    # dt is the output grid: the run steps from one output time to the
    # next, over five intervals of 0.01 or one of 0.05, and stays within
    # 1e-12 of the family (3.5e-16 to 9.9e-15 measured)
    res, err = subcase2_run(r, output_times)
    assert res.completed
    assert len(res.states) == 1 + max(len(output_times), 1)
    assert err <= 1e-12


def counted_tries(monkeypatch):
    """The step sizes of the Dormand-Prince steps tried, in order."""
    attempts = []
    real = evolution._dormand_prince

    def counted(a, h, k1, velocity):
        attempts.append(h)
        return real(a, h, k1, velocity)

    monkeypatch.setattr(evolution, "_dormand_prince", counted)
    return attempts


def test_series_run_reuses_the_last_stage(monkeypatch):
    # an accepted step's 7th stage is the velocity of its end map, with
    # the samples of f' it was made from: it is the next step's first stage
    # and the snapshot's string velocity, so five steps without a rejection
    # take 1 + 5 * 6 velocity evaluations
    calls = []
    real = evolution.series_velocity

    def counted(b, grid):
        calls.append(b)
        return real(b, grid)

    monkeypatch.setattr(evolution, "series_velocity", counted)
    res, _ = subcase2_run(0.3, FIVE_OUTPUTS)
    assert res.completed
    assert len(calls) == 1 + 5 * 6
    for s in res.states:
        velocity, _ = real(s.map.derivative_coeffs(), CircleGrid(4096))
        assert np.array_equal(s.velocity, velocity)


def test_near_cusp_series_run_needs_the_error_control(monkeypatch):
    # at |B1| = 0.9 one step of 0.05 leaves coefficient energy above the
    # tail gate.  The controller halves it (18 steps rejected, measured)
    # and completes, as close to the family as fixed RK4 steps of 1e-3
    # came (9.9e-8, the order-256 truncation error; 1.9e-7 over five
    # snapshots).  Without the error test the one step is accepted, and
    # the tail gate stops the run (tail energy 6.2e-10)
    attempts = counted_tries(monkeypatch)
    res, err = subcase2_run(0.9, ())
    assert res.completed
    assert err <= 1.9e-7
    assert len(attempts) > 1 and min(attempts) < 0.05
    monkeypatch.setattr(evolution, "_SERIES_TOL", np.inf)
    res, _ = subcase2_run(0.9, ())
    assert res.stop_reason.startswith("TruncationError: relative tail energy")
    assert len(res.states) == 1


def test_series_run_nearer_the_cusp_needs_order_512():
    # at |B1| = 0.95 the order-256 truncation of the initial map already
    # fails the tail gate (1.1e-8), which raises at the initial map; at
    # order 512 the controlled run completes within its truncation error
    # (1.7e-8, as with fixed RK4 steps of 1e-3)
    with pytest.raises(TruncationError, match="relative tail energy"):
        subcase2_run(0.95, ())
    res, err = subcase2_run(0.95, (), order=512)
    assert res.completed
    assert err <= 1e-7


def test_series_step_raises_after_the_last_halving(monkeypatch):
    # with a target no estimate meets, each try is rejected and its first
    # half tried next: after _MAX_HALVINGS halvings the step raises,
    # naming the time it was tried from, its estimate and the target
    attempts = counted_tries(monkeypatch)
    monkeypatch.setattr(evolution, "_SERIES_TOL", 0.0)
    state = EvolutionState(0.25, TaylorMap(make_subcase2(1.0, B1_SUB2).power_series(64)))
    with pytest.raises(TruncationError, match=r"^no step from t = 0\.25 down to 2\.441e-07 "
                       r"was accepted \(error estimate \d\.\d{3}e-\d\d exceeds 0\.000e\+00\)$"):
        step_taylor_fixed_branch(state, 1e-3, CircleGrid(1024))
    assert attempts == [1e-3 / 2**k for k in range(evolution._MAX_HALVINGS + 1)]


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


@pytest.mark.parametrize("family, params", [
    ("subcase2", {"M0": 1.0, "B1": B1_SUB2}),
    ("taylor", {"coeffs": (1.0, 0.5, -0.4)}),
])
def test_t0_snapshot_reads_the_base_moments_and_branch_points(family, params):
    # the initial map's moments and branch points are computed once: the
    # t = 0 snapshot reads them, so its moments are the base bit for bit
    # and its branch drift is exactly 0; each later snapshot computes both
    spec = ScenarioSpec(family=family, params=params, horizon=0.002, dt=1e-3,
                        output_times=(0.001,))
    with mock.patch.object(evolution, "branch_points", wraps=branch_points) as bp, \
            mock.patch.object(evolution, "moments_richardson",
                              wraps=moments_richardson) as mr:
        res = run_evolution(spec)
    assert res.completed and len(res.states) == 3
    d = res.states[0].diagnostics
    assert d.moments.tobytes() == res.base_moments.tobytes()
    assert d.branch_drift.tobytes() == np.zeros(1).tobytes()
    # the exact map's seeds (subcase2 only), the base and two snapshots
    assert bp.call_count == (4 if family == "subcase2" else 3)
    assert mr.call_count == 3


@pytest.mark.parametrize("family, params", [
    *(("subcase2", {"M0": 1.0, "B1": r * np.exp(0.7j)}) for r in (0.2, 0.4, 0.6)),
    *(("example_abc", {"a": 0.3, "b": b, "c_magnitude": 1.0}) for b in (1.3, 1.5)),
    ("taylor", {"coeffs": (1.0, 0.5, -0.4)}),
])
def test_series_snapshot_residual_reads_the_carried_fprime(family, params):
    # an accepted state carries the samples of f' its last stage formed (the
    # t = 0 snapshot those of its own velocity call), so a snapshot's
    # string residual is one circle_values, of fdot, and no derivative_on.
    # It equals string_residual on the state's map and velocity bit for
    # bit, and the snapshot drops the samples
    spec = ScenarioSpec(family=family, params=params, horizon=0.02, dt=1e-3,
                        output_times=(0.01,), grid_n=4096, taylor_order=256)
    with mock.patch.object(maps.AnalyticMap, "derivative_on",
                           side_effect=AssertionError("derivative_on")) as deriv, \
            mock.patch.object(bracket, "circle_values", wraps=circle_values) as cv:
        res = run_evolution(spec)
    assert res.completed and len(res.states) == 3
    assert deriv.call_count == 0
    assert cv.call_count == len(res.states)
    for s in res.states:
        assert s._fprime is None
        assert s.diagnostics.string_residual == bracket.string_residual(
            s.map, s.velocity, CircleGrid(4096))


def test_polynomial_run_computes_each_resultant_once(monkeypatch):
    # each accepted map is solved once, by one real string solve: at the
    # end of the step that makes it (the initial map at its snapshot).  Its
    # det W gives the sign of Res(f', f'*) and its velocities serve the
    # snapshot and the next step's predictor, so k steps take k + 1 solves,
    # and no Sylvester determinant or complex U.  Polynomial mode steps from
    # one kept time to the next, and the Newton iterates are bare
    # coefficient arrays: only the initial map and each step's end map are
    # built as PolynomialMaps, k + 1 of them
    solved, built = [], []
    real, real_init = evolution._string_solve, PolynomialMap.__post_init__

    def counted(b):
        solved.append(tuple(b))
        return real(b)

    def counted_init(self):
        built.append(self)
        real_init(self)

    monkeypatch.setattr(evolution, "_string_solve", counted)
    monkeypatch.setattr(PolynomialMap, "__post_init__", counted_init)
    for name in ("sylvester_matrix", "derivative_reflection_resultant", "bracket_matrix"):
        monkeypatch.setattr(bracket, name, mock.Mock(side_effect=AssertionError(name)))
    every_step = tuple(round(k * 1e-3, 12) for k in range(1, 13))
    for output_times, steps in (((0.005,), 2), (every_step, 12)):
        solved.clear()
        built.clear()
        spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.3, 0.05j)},
                            horizon=0.012, dt=1e-3, output_times=output_times)
        res = run_evolution(spec)
        assert res.completed
        assert len(solved) == steps + 1
        assert len(built) == steps + 1
    accepted = [tuple(s.map.derivative_coeffs()) for s in res.states]
    assert len(set(accepted)) == 13
    assert all(solved.count(b) == 1 for b in accepted)


def test_small_steps_take_two_newton_iterations(monkeypatch):
    # at h = 1e-3 the predictor a + h v is off by O(h^2); the first Newton
    # update leaves O(h^4), and the second, smaller by about h^2, shows that
    # the error left, about u^2 / (u_prev - u), is below the rounding floor.
    # Each iteration evaluates M once, and the target M(a(0)) + t e_0 is
    # carried from step to step, so only the first step evaluates M at its
    # start (M_0..M_n; the snapshots take M_0..M_4): 12 steps take
    # 1 + 2 * 12 evaluations, and M stays at the target to rounding
    evaluated = []
    newton_rows = bracket._moments_and_rows
    richardson = evolution.moments_richardson

    def counted_iteration(a, abar):
        evaluated.append(a)
        return newton_rows(a, abar)

    def counted_start(m, K=None):
        if K == m.degree_plus:
            evaluated.append(m.coeffs)
        return richardson(m, K)

    monkeypatch.setattr(bracket, "_moments_and_rows", counted_iteration)
    monkeypatch.setattr(evolution, "moments_richardson", counted_start)
    every_step = tuple(round(k * 1e-3, 12) for k in range(1, 13))
    spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.3, 0.05j)},
                        horizon=0.012, dt=1e-3, output_times=every_step,
                        diagnostic_moments=4)
    res = run_evolution(spec)
    assert res.completed
    assert len(evaluated) == 1 + 2 * 12
    assert max(s.diagnostics.max_moment_drift for s in res.states) < 1e-14


def test_step_raises_when_its_end_map_fails_the_gate(monkeypatch):
    # the end map's solve is the one made in the step (the input state
    # carries its own); a step whose end map the gate rejects is halved, and
    # when every end map down to the last halving is rejected the step
    # raises, with no state returned: one solve per attempt
    carried = bracket._string_solve(CARDIOID.derivative_coeffs())
    state = EvolutionState(0.0, CARDIOID, resultant=carried)
    assert step_polynomial(state, 1e-3).resultant.velocities is not None
    solved = []

    def rejected(b):
        solved.append(b)
        return replace(bracket._string_solve(b), velocities=None)

    monkeypatch.setattr(evolution, "_string_solve", rejected)
    with pytest.raises(DegenerateResultantError,
                       match=r"\(string system singular at the end map\)"):
        step_polynomial(state, 1e-3)
    assert len(solved) == evolution._MAX_HALVINGS + 1


def test_step_to_a_map_across_the_shell_is_rejected(monkeypatch):
    # an end map whose Res(f', f'*) has the other sign than the start's lies
    # across the singular shell, however small its correction: every halving
    # is rejected, and the step raises
    carried = bracket._string_solve(CARDIOID.derivative_coeffs())
    state = EvolutionState(0.0, CARDIOID, resultant=carried)

    def across(b):
        solve = bracket._string_solve(b)
        solve.__dict__["log_resultant"] = solve.log_resultant + 1j * np.pi
        return solve

    monkeypatch.setattr(evolution, "_string_solve", across)
    with pytest.raises(DegenerateResultantError, match=r"\(Res\(f', f'\*\) changed sign\)"):
        step_polynomial(state, 1e-3)


def test_polynomial_step_leaving_the_cone_is_rejected():
    # the disk's M0 = a0^2 cannot fall below 0: at h = -5 the predictor
    # leaves the cone, and no halving of the step finds a map, so it fails
    # with the reason of its last, smallest attempt.  At h = -1.05 that
    # attempt asks for M0 < 0, and a Newton iterate leaves the cone
    state = EvolutionState(0.0, PolynomialMap((1.0,)))
    with pytest.raises(DegenerateResultantError, match="no step from t = "):
        step_polynomial(state, -5.0)
    with pytest.raises(DegenerateResultantError,
                       match=r"\(a Newton iterate failed: a0 must be positive, got "):
        step_polynomial(state, -1.05)
    assert_allclose(step_polynomial(state, -0.75).map.coeffs, [0.5], rtol=0, atol=1e-15)


CONE = "stage left the admissible coefficient cone: "


@pytest.mark.parametrize("dt", [-5.0, -0.6])
def test_series_step_leaving_the_cone_is_a_normalization_error(dt):
    # at dt = -5 the second stage leaves the cone; at dt = -0.6 the error
    # test rejects the step, and a stage of one of its halved steps leaves
    # it.  A cone exit raises at once: it is never a rejected step
    state = EvolutionState(0.0, TaylorMap((1.0, 0.1) + (0.0,) * 14))
    with pytest.raises(NormalizationError, match=f"^{CONE}a0 must be positive, got "):
        step_taylor_fixed_branch(state, dt, CircleGrid(256))


# Stop outcomes of 20 steps (dt = 1e-3, a snapshot after each) from
# (1 - eps) of the shell scale: (n = 1 outcome, n = 4 outcome), each the
# stop class and the snapshot count, read on the continuation stepper.
# The runs that stop do so because no halving of the first step keeps its
# correction within a quarter of |h v|: the flow leaves the shell like
# sqrt(t - t*), and t - t* is below the smallest step.
NEAR_SHELL_STOPS = {
    1e-1: (("completed", 21), ("completed", 21)),
    3e-2: (("completed", 21), ("completed", 21)),
    1e-2: (("completed", 21), ("completed", 21)),
    3e-3: (("completed", 21), ("completed", 21)),
    1e-3: (("completed", 21), ("completed", 21)),
    3e-4: (("completed", 21), ("DegenerateResultantError", 1)),
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


def test_corrector_accepts_updates_at_the_rounding_floor_of_w():
    # 1e-5 inside the shell scale |W|_F |W^-1|_F is 4.1e5: from starts 1e-9
    # off the map, Newton's updates fall to about cond eps, far above
    # 4 eps max|a_j|, and stop shrinking.  The corrector accepts them there,
    # within cond eps of the map, where a fixed 4 eps bound would report
    # that Newton did not converge
    a = np.asarray(decaying_map(np.random.default_rng(704), 4).coeffs)
    a = np.concatenate([[1.0], _shell_scale(a) * (1 - 1e-5) * a[1:]])
    cond = bracket._string_solve(a * np.arange(1, 6)).cond
    assert cond > 1e5
    target = moments_richardson(PolynomialMap(a), 4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        off = 1e-9 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        off[0] = off[0].real
        end = evolution._corrected(a + off, target, cond)
        assert not isinstance(end, str), end
        assert np.max(np.abs(end - a)) < cond * np.finfo(float).eps


def test_backward_run_stops_at_the_pinned_step():
    # suction from (1, 0.3) runs into the shell at t* = 6 (M1/4)^(2/3) - M0
    # = -0.1129320; the step from t = -0.112 is the first to fail, when no
    # halving of it is accepted
    state = EvolutionState(0.0, CARDIOID)
    for _ in range(112):
        state = step_polynomial(state, -1e-3)
    with pytest.raises(DegenerateResultantError, match="no step from t = -0.1129"):
        step_polynomial(state, -1e-3)
    assert_allclose(state.t, -0.112, rtol=0, atol=1e-12)


def test_no_state_is_accepted_past_the_fold():
    # n = 2 from (1, 0.3, 0.05i) under suction folds at t* = -0.0777759
    # (Newton on M(a) = M(a(0)) + t e_0 with Res(f', f'*) = 0, t unknown),
    # where no real solution continues: the step that would cross must fail
    state = EvolutionState(0.0, PolynomialMap((1.0, 0.3, 0.05j)))
    with pytest.raises(DegenerateResultantError):
        for _ in range(100):
            state = step_polynomial(state, -1e-3)
            assert state.t > -0.0777759
    assert_allclose(state.t, -0.077, rtol=0, atol=1e-12)


def test_near_shell_runs_stop_typed():
    # starts 1e-4 and 1e-6 inside the shell scale, where the first step
    # meets the singular shell: a Newton iterate that leaves the cone is a
    # rejected step, so a run completes or stops on DegenerateResultantError,
    # never on NormalizationError or a bare ValueError
    for eps in (1e-4, 1e-6):
        for n in (2, 3):
            for seed in range(20):
                a = np.asarray(decaying_map(np.random.default_rng(seed), n).coeffs)
                start = np.concatenate([[1.0], _shell_scale(a) * (1 - eps) * a[1:]])
                spec = ScenarioSpec(family="polynomial", params={"coeffs": tuple(start)},
                                    horizon=0.02, dt=1e-3)
                stop = run_evolution(spec).stop_reason.split(":")[0]
                assert stop in ("completed", "DegenerateResultantError"), (eps, n, seed)


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

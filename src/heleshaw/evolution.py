"""Hele-Shaw evolution of disk maps in string-normalized time.

Time is normalized so that dM_0/dt = 1 with all higher moments conserved,
i.e. the flow realizes d/dt = d/dM_0 and the bracket satisfies
{f, f*}_t = 1.  The classical Polubarinova-Galin normalization
Re[fdot conj(z f')] = 1 corresponds to dM_0/dt = 2; a solution in that time
variable tau is obtained from ours by f_PG(tau) = f(2 tau).

Two steppers:

* :func:`step_polynomial` continues f, a polynomial of fixed degree, from
  one output time to the next: the string velocity predicts, and Newton's
  method on M_0..M_n corrects.  Branch points move implicitly.
* :func:`step_taylor_fixed_branch` continues a truncated power series from
  one output time to the next by error-controlled Dormand-Prince 5(4)
  steps, with fdot = z f'(z) P(z), P the Poisson-Schwarz (Herglotz)
  extension of the boundary data 1/(2 |f'|^2).  Since fdot vanishes at
  every zero of f' the branch-point images B_j = f(omega_j) stay fixed;
  their drift is measured and reported, never enforced.

So ``dt`` is the output-time grid in both modes, not a step size.

Series mode works on the circle grid: f' is sampled by one inverse FFT of
its coefficients (:func:`heleshaw.maps.circle_values`), :func:`poisson_schwarz`
takes P from those samples, and :func:`series_velocity` is the one velocity
function.  Each Dormand-Prince stage is one call of it, and the last stage
of an accepted step is the velocity of its end map, which the state carries
to the next step's first stage and to the snapshot diagnostics, with the
samples of f' it formed: the snapshot's string residual is one FFT of fdot
against them, and the snapshot drops them (a step reads the velocity).  Branch
points (:func:`heleshaw.maps.branch_points`) are found once, from the
exact map before truncation, and then continued: at each later snapshot
Newton's method polishes the previous omegas on the coefficients of f', and
the argument principle certifies the zero count, on one sampled circle where
its bound holds and on the circles of radius 1 -/+ branch_boundary_margin
where it does not.  A count that differs between the two circles (a zero at
the boundary) raises :class:`BranchPointError`; a count that changed, or a
Newton run that does not converge, falls back to companion-matrix roots for
that snapshot.  The t = 0 snapshot reads the initial map's moments and
branch points, which the run computes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .config import DEFAULT
from .errors import (
    ConfigError,
    CuspError,
    DegenerateResultantError,
    HeleShawError,
    NormalizationError,
    TruncationError,
)
from .maps import (
    AnalyticMap,
    CircleGrid,
    PolynomialMap,
    TaylorMap,
    _normalized,
    _polynomial_cone,
    branch_points,
    circle_values,
)
from .moments import moments_richardson
from .bracket import _bracket, _newton_update, _string_solve, _StringSolve, string_residual

__all__ = [
    "poisson_schwarz",
    "EvolutionState",
    "StepDiagnostics",
    "step_polynomial",
    "step_taylor_fixed_branch",
    "EvolutionResult",
    "run_evolution",
]


# ----------------------------------------------------------------------
# Poisson-Schwarz integral
# ----------------------------------------------------------------------

def poisson_schwarz(fpv: np.ndarray, n_modes: int | None = None) -> np.ndarray:
    """Coefficients p_0, p_1, ... of the analytic extension P of the
    boundary data 1/(2 |f'|^2): Re P = 1/(2 |f'|^2) on the unit circle.

    ``fpv`` holds f' at the N nodes of a :class:`CircleGrid`.
    P(z) = (1/2 pi) int rho(theta) (w + z)/(w - z) dtheta with w = e^{i theta}
    and rho = 1/(2|f'|^2); in Fourier terms p_0 = rho_hat_0 (real) and
    p_m = 2 rho_hat_m for 1 <= m < N/2.  Spectrally accurate for f' analytic
    and zero-free on the circle.
    """
    modulus = np.abs(fpv)
    small = float(np.min(modulus))
    if small < DEFAULT.cusp_min_derivative:
        raise CuspError(f"min |f'| = {small:.3e} on the circle (cusp forming)")
    rho = 1.0 / (2.0 * modulus**2)
    top = len(fpv) // 2 - 1
    n_modes = top if n_modes is None else min(n_modes, top)
    hat = np.fft.rfft(rho)[: n_modes + 1] / len(fpv)
    coeffs = 2.0 * hat
    coeffs[0] = hat[0].real
    return coeffs


# ----------------------------------------------------------------------
# states and steppers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StepDiagnostics:
    """Per-snapshot moment values and deviations from the conserved ones."""

    moments: np.ndarray
    moment_drift: np.ndarray
    branch_drift: np.ndarray
    string_residual: float

    @property
    def max_moment_drift(self) -> float:
        return float(np.max(self.moment_drift)) if self.moment_drift.size else 0.0

    @property
    def max_branch_drift(self) -> float:
        return float(np.max(self.branch_drift)) if self.branch_drift.size else 0.0


@dataclass(frozen=True)
class EvolutionState:
    """A map at time t, with its snapshot diagnostics once annotated.

    A :class:`PolynomialMap` state carries its gated string solve in
    ``resultant`` once a step or snapshot has made it: its velocities serve
    the snapshot and the next step's predictor, its det W the sign of
    Res(f', f'*).  Without one, the map is solved and gated on first use.
    A stepped polynomial state also carries ``target``, the M_0..M_n its map
    was solved for: M(a) at the first step's start plus the time stepped,
    so a run's corrector aims at M(a(0)) + t e_0 and Newton's residuals do
    not accumulate from step to step.

    A :class:`TaylorMap` state carries ``velocity``, its
    :func:`series_velocity` on the run's grid, once a step or snapshot has
    made it; the next series step takes it as its first stage.  A stepped
    one also carries ``_fprime``, the samples of f' that velocity was made
    from, for its snapshot's string residual, and the snapshot drops them;
    a state without them (t = 0) takes both from one velocity call.
    """

    t: float
    map: AnalyticMap
    diagnostics: StepDiagnostics | None = None
    resultant: _StringSolve | None = field(default=None, compare=False, repr=False)
    target: np.ndarray | None = field(default=None, compare=False, repr=False)
    velocity: np.ndarray | None = field(default=None, compare=False, repr=False)
    _fprime: np.ndarray | None = field(default=None, compare=False, repr=False)


def _admissible(make, a):
    """``make(a)`` for the coefficients of a series stage or step's end;
    coefficients outside the admissible cone raise NormalizationError."""
    try:
        return make(a)
    except ValueError as exc:
        raise NormalizationError(
            f"stage left the admissible coefficient cone: {exc}"
        ) from exc


def _series_map(coeffs) -> TaylorMap:
    """The :class:`TaylorMap` of ``coeffs``; TruncationError past its tail gate."""
    m = _admissible(TaylorMap, coeffs)
    tail = m.tail_energy()
    if tail > DEFAULT.tail_energy:
        raise TruncationError(
            f"relative tail energy {tail:.3e} exceeds {DEFAULT.tail_energy}; "
            "increase the series order"
        )
    return m


#: Newton iterations, largest correction / |h v| and halvings of a step
_NEWTON_ITERATIONS, _MAX_CORRECTION, _MAX_HALVINGS = 8, 0.25, 12

#: largest accepted max|y5 - y4| of a series step, relative to max|a_j|
_SERIES_TOL = 1e-12


def _corrected(a: np.ndarray, target: np.ndarray, cond: float) -> np.ndarray | str:
    """Newton's method on M_0..M_n(a) = target from ``a``, or why it failed;
    each iteration takes :func:`heleshaw.bracket._newton_update`, one solve
    on V U.

    With u the update size and floor = eps max|a_j|, an iterate is accepted
    when u <= 4 floor; when Newton contracts and the error it leaves,
    about u^2 / (u_prev - u), is that small; or when u no longer shrinks
    and is within max(cond, 4) floor, the rounding floor of a solve on W
    whose |W|_F |W^-1|_F is ``cond``.
    """
    last = np.inf
    try:
        a = _polynomial_cone(a)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(_NEWTON_ITERATIONS):
                step = _newton_update(a, target)
                a = _polynomial_cone(a + step)
                u = np.max(np.abs(step))
                floor = np.finfo(float).eps * np.max(np.abs(a))
                if u >= last:
                    if u <= max(cond, 4.0) * floor:
                        return a
                elif u <= 4 * floor or (last < np.inf and u * u <= 4 * floor * (last - u)):
                    return a
                last = u
    except (ValueError, ArithmeticError) as exc:
        return f"a Newton iterate failed: {exc}"
    return f"Newton did not converge in {_NEWTON_ITERATIONS} iterations"


def _halving(attempt, state: EvolutionState, h: float, error,
             halvings: int = 0) -> EvolutionState:
    """``state`` continued by h in one step of ``attempt``, or else in two of
    h/2.  ``attempt(state, h)`` gives the state at t + h, or why it rejected
    the step; after ``_MAX_HALVINGS`` halvings a rejection raises ``error``
    naming the time the step was tried from."""
    out = attempt(state, h)
    if not isinstance(out, str):
        return out
    if halvings == _MAX_HALVINGS:
        raise error(f"no step from t = {state.t:.9g} down to {h:.3e} was accepted ({out})")
    half = _halving(attempt, state, 0.5 * h, error, halvings + 1)
    return _halving(attempt, half, 0.5 * h, error, halvings + 1)


def _continued(state: EvolutionState, h: float) -> EvolutionState | str:
    """``state`` continued by h in one polynomial step, or why not."""
    m = state.map
    solve0 = state.resultant or _string_solve(m.derivative_coeffs())
    predictor = h * solve0.gated()[m.degree_plus :]
    start = state.target
    if start is None:
        start = moments_richardson(m, m.degree_plus)
    target = np.concatenate([[start[0].real + h], start[1:]])
    a = _corrected(m.coeffs + predictor, target, solve0.cond)
    if isinstance(a, str):
        return a
    if np.max(np.abs(a - m.coeffs - predictor)) > _MAX_CORRECTION * np.max(np.abs(predictor)):
        return f"the correction exceeds {_MAX_CORRECTION} |h v|"
    solve1 = _string_solve(a * np.arange(1, len(a) + 1))
    if solve1.log_resultant.imag != solve0.log_resultant.imag:
        return "Res(f', f'*) changed sign"
    if solve1.velocities is None:
        return "string system singular at the end map"
    return EvolutionState(state.t + h, PolynomialMap(a), resultant=solve1, target=target)


def step_polynomial(state: EvolutionState, h: float) -> EvolutionState:
    """The fixed-degree polynomial string flow continued from t to t + h.

    The end map solves M(a) = M(a(t)) + h e_0, with M(a(t)) the state's
    carried ``target`` when it has one; the Jacobian V U is invertible off
    the Res(f', f'*) = 0 shell.  The carried string velocity v predicts
    a + h v, and :func:`_corrected` corrects it.  The step is
    taken as two of h/2 when the corrector fails, its correction exceeds
    ``_MAX_CORRECTION`` |h v|, Res changes sign, or the end map fails the
    gate of :func:`heleshaw.bracket.solve_string_system`, and after
    ``_MAX_HALVINGS`` halvings raises :class:`DegenerateResultantError`.
    """
    if not isinstance(state.map, PolynomialMap):
        raise TypeError("polynomial stepper needs a PolynomialMap state")
    return _halving(_continued, state, h, DegenerateResultantError)


#: the Dormand & Prince (1980) 5(4) pair: rows of stages 2..7, the last
#: row being the 5th-order weights, so the 7th stage is the end's velocity
_DP_STAGES = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
#: weights of y5 - y4, the 5th- less the 4th-order solution
_DP_ERROR = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                      22 / 525, -1 / 40))


def _dormand_prince(a: np.ndarray, h: float, k1: np.ndarray, velocity):
    """One Dormand-Prince 5(4) step of h from ``a``, whose velocity is k1:
    the 5th-order end, the 7th stage (its velocity and f') and max|y5 - y4|."""
    ks = np.empty((7, len(a)), dtype=complex)
    ks[0] = k1
    for i, row in enumerate(_DP_STAGES, start=1):
        end = a + h * (row @ ks[:i])
        ks[i], fp = velocity(end)
    return end, ks[6], fp, abs(h) * float(np.max(np.abs(_DP_ERROR @ ks)))


def _series_continued(state: EvolutionState, h: float, velocity) -> EvolutionState | str:
    """``state``, which carries its velocity, continued by h in one
    Dormand-Prince step, or why the step's error estimate rejects it."""
    a = state.map.coeffs
    end, k7, fp, estimate = _dormand_prince(a, h, state.velocity, velocity)
    target = _SERIES_TOL * float(np.max(np.abs(a)))
    if estimate > target:
        return f"error estimate {estimate:.3e} exceeds {target:.3e}"
    return EvolutionState(state.t + h, _series_map(end), velocity=k7, _fprime=fp)


def step_taylor_fixed_branch(state: EvolutionState, h: float,
                             grid: CircleGrid) -> EvolutionState:
    """The fixed-branch-point flow in series space continued from t to t + h.

    The velocity is the truncation of fdot = z f' P to the series order
    (:func:`series_velocity` on ``grid``); each stage's cone is a0 real
    positive, and a stage outside it raises :class:`NormalizationError`.
    One Dormand-Prince 5(4) step of h is tried, with the state's carried
    ``velocity`` as its first stage when it has one.  Its 5th-order end is
    accepted when max|y5 - y4| <= ``_SERIES_TOL`` max|a_j|; otherwise the
    step is taken as two of h/2, and after ``_MAX_HALVINGS`` halvings it
    raises :class:`TruncationError`.  The accepted end is tail-checked by
    :func:`_series_map`, so a series order too low for the flow raises
    :class:`TruncationError` too.  The new state carries its velocity, the
    step's last stage, and that stage's samples of f'.
    """
    m = state.map
    if not isinstance(m, TaylorMap):
        raise TypeError("series stepper needs a TaylorMap state")
    weights = np.arange(1, m.order + 1)

    def velocity(x):
        return series_velocity(_admissible(_normalized, x) * weights, grid)

    if state.velocity is None:
        state = replace(state, velocity=velocity(m.coeffs)[0])
    return _halving(partial(_series_continued, velocity=velocity), state, h, TruncationError)


def series_velocity(b: np.ndarray, grid: CircleGrid) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient velocities adot_j of fdot = z f' P, truncated to the
    order len(b), from f''s coefficients b_j = (j+1) a_j, and f' on the
    grid, sampled by one :func:`heleshaw.maps.circle_values`.

    Only p_0..p_{order-1} reach the kept coefficients, so P is built with
    that many modes and the product is an exact convolution of coefficients.
    """
    fp = circle_values(b, grid)
    return np.convolve(b, poisson_schwarz(fp, n_modes=len(b) - 1))[: len(b)], fp


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionResult:
    """Snapshots at the requested output times plus the stop disposition."""

    states: tuple
    stop_reason: str
    base_moments: np.ndarray
    base_branch_values: np.ndarray

    @property
    def completed(self) -> bool:
        return self.stop_reason == "completed"


#: no horizon holds more intervals of dt; a horizon past it is a config
#: error, not an output grid too large to hold
_MAX_STEPS = 10**7


def _steps_for(t: float, dt: float, what: str) -> int:
    ratio = t / dt
    if not math.isfinite(ratio):
        raise ConfigError(f"{what} = {t} over dt = {dt} is not a finite step count")
    k = round(ratio)
    if abs(k * dt - t) > 1e-9:
        raise ConfigError(f"{what} = {t} is not a multiple of dt = {dt}")
    return k


def run_evolution(spec) -> EvolutionResult:
    """Run the scenario's evolution, collecting snapshots and diagnostics.

    Accepts a :class:`heleshaw.scenarios.ScenarioSpec`.  A
    :class:`PolynomialMap` starting map evolves in polynomial mode, any
    other map in series mode, from its truncation to ``taylor_order``
    coefficients.  ``dt`` is the output-time grid: both modes step from one
    kept time (0, the output times, the horizon) to the next, polynomial
    mode by continuation and series mode by error-controlled steps.  A
    horizon or output time that is no whole, finite number of ``dt``, or a
    horizon of more than ``_MAX_STEPS`` of them, raises :class:`ConfigError`
    before any work.  A typed failure (degeneracy, cusp, truncation, branch
    trouble) at the initial map (its series truncation, base moments,
    branch points or first snapshot) raises.  One in a step, or in the
    snapshot after it, stops the run cleanly: the exception class name and
    message become the stop reason and the snapshots so far are returned.
    The t = 0 snapshot reads the base moments and branch points, so its
    moment and branch drifts are exactly 0.
    """
    n_steps = _steps_for(spec.horizon, spec.dt, "horizon")
    out_steps = {_steps_for(t, spec.dt, "output time") for t in spec.output_times}
    if n_steps > _MAX_STEPS:
        raise ConfigError(f"horizon = {spec.horizon} over dt = {spec.dt} is "
                          f"{n_steps:.3g} steps, above the cap {_MAX_STEPS}")
    if not all(0 <= k <= n_steps for k in out_steps):
        raise ConfigError("output time outside [0, horizon]")
    out_steps |= {0, n_steps}
    m = spec.initial
    series = not isinstance(m, PolynomialMap)
    grid = CircleGrid(spec.grid_n)
    seeds = None
    if series and not isinstance(m, TaylorMap):
        # the exact map's f' has a low-degree numerator, so its zeros seed
        # the continuation on the truncated series cheaply
        seeds = branch_points(m).omegas
        m = _series_map(m.power_series(spec.taylor_order))

    K = spec.diagnostic_moments
    base = moments_richardson(m, K)
    bp = branch_points(m, near=seeds) if series else None
    base_branch = bp.values if series else np.zeros(0, dtype=complex)
    prev_omegas = None

    def annotate(state: EvolutionState, mv=None, bpt=None) -> EvolutionState:
        """``state`` with its snapshot diagnostics; ``mv`` and ``bpt``, when
        given, are its moments and branch points, already computed."""
        nonlocal prev_omegas
        if mv is None:
            mv = moments_richardson(state.map, K)
        expected = base.copy()
        expected[0] += state.t
        drift = np.abs(mv - expected)
        if series:
            if bpt is None:
                bpt = branch_points(state.map, near=prev_omegas)
            prev_omegas = bpt.omegas
            bdrift = (
                np.abs(bpt.values - base_branch)
                if len(bpt) == len(base_branch)
                else np.full(max(len(base_branch), 1), np.inf)
            )
            vel, fp, solve = state.velocity, state._fprime, None
            if fp is None:
                vel, fp = series_velocity(state.map.derivative_coeffs(), grid)
            sres = float(np.max(np.abs(_bracket(fp, vel, grid) - 1.0)))  # string_residual on fp
        else:
            bdrift = np.zeros(0)
            solve = state.resultant or _string_solve(state.map.derivative_coeffs())
            vel = solve.gated()[state.map.degree_plus:]
            sres = string_residual(state.map, vel, grid)
        return replace(state, diagnostics=StepDiagnostics(mv, drift, bdrift, sres),
                       resultant=solve, velocity=vel if series else None, _fprime=None)

    state = annotate(EvolutionState(0.0, m), base, bp)
    states = [state]
    stop = "completed"
    step = partial(step_taylor_fixed_branch, grid=grid) if series else step_polynomial
    for k in sorted(out_steps - {0}):
        t = round(k * spec.dt, 12)
        try:
            state = annotate(replace(step(state, t - state.t), t=t))
            states.append(state)
        except HeleShawError as exc:
            stop = f"{type(exc).__name__}: {exc}"
            break
    return EvolutionResult(tuple(states), stop, base, base_branch)

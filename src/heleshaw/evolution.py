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
* :func:`step_taylor_fixed_branch` takes fixed RK4 steps (:func:`_rk4`) of
  a truncated power series with fdot = z f'(z) P(z), P the Poisson-Schwarz
  (Herglotz) extension of the boundary data 1/(2 |f'|^2).  Since fdot
  vanishes at every zero of f' the branch-point images B_j = f(omega_j)
  stay fixed; their drift is measured and reported, never enforced.

Series mode works on the circle grid: f' is sampled by one inverse FFT of
its coefficients (:func:`heleshaw.maps.circle_values`), :func:`poisson_schwarz`
takes P from those samples, and :func:`series_velocity` is the one velocity
function, shared by the RK4 stages and the snapshot diagnostics.  Branch
points are found once, from the exact map before truncation, and then
continued: at each snapshot Newton's method polishes the previous omegas on
the coefficients of f', and the argument principle on the circles of radius
1 -/+ branch_boundary_margin certifies the zero count.  A count that
differs between the two circles (a zero at the boundary) raises
:class:`BranchPointError`; a count that changed, or a Newton run that does
not converge, falls back to companion-matrix roots for that snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .config import DEFAULT
from .errors import (
    BranchPointError,
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
    circle_values,
    simple_derivative_zeros_in_disk,
)
from .moments import moments_richardson
from .rational import RationalFunction, pder, pmul, psub
from .bracket import _newton_update, _string_solve, _StringSolve, string_residual

__all__ = [
    "poisson_schwarz",
    "BranchPointSet",
    "branch_points",
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
    small = float(np.min(np.abs(fpv)))
    if small < DEFAULT.cusp_min_derivative:
        raise CuspError(f"min |f'| = {small:.3e} on the circle (cusp forming)")
    rho = 1.0 / (2.0 * np.abs(fpv) ** 2)
    hat = np.fft.rfft(rho) / len(fpv)
    top = len(fpv) // 2 - 1
    n_modes = top if n_modes is None else min(n_modes, top)
    coeffs = np.zeros(n_modes + 1, dtype=complex)
    coeffs[0] = hat[0].real
    coeffs[1:] = 2.0 * hat[1 : n_modes + 1]
    return coeffs


# ----------------------------------------------------------------------
# branch points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BranchPointSet:
    """Zeros omega_j of f' in the disk with their images B_j = f(omega_j)."""

    omegas: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.omegas)


def branch_points(m: AnalyticMap, near=None) -> BranchPointSet:
    """Branch points of the map: simple zeros of f' inside the unit disk.

    Each image is computed both directly as f(omega_j) and as the residue of
    f f'' / f' at omega_j; disagreement beyond 1e-9 raises, since it means
    the zero is not resolved.  Pass the previous zeros as ``near`` to
    continue them along an evolution (see
    :func:`heleshaw.maps.simple_derivative_zeros_in_disk`).
    """
    omegas = simple_derivative_zeros_in_disk(m, near=near)
    if omegas.size == 0:
        return BranchPointSet(omegas, np.zeros(0, dtype=complex))
    r = m.rational()
    direct = np.asarray([r(w) for w in omegas], dtype=complex)
    # f = P/Q, f' = N1/Q**2 and f'' = M2/Q**3, so f f''/f' = P M2/(Q**2 N1)
    # in lowest terms.  Forming it as (f * f'') / f' instead leaves extra
    # powers of Q in numerator and denominator: a cluster of uncancelled
    # zeros at the poles of f that ruins the residue near |omega| = 1.
    P, Q = r.num, r.den
    N1 = psub(pmul(pder(P), Q), pmul(P, pder(Q)))
    M2 = psub(pmul(pder(N1), Q), 2.0 * pmul(N1, pder(Q)))
    integrand = RationalFunction(pmul(P, M2), pmul(pmul(Q, Q), N1))
    scale = max(float(np.max(np.abs(direct))), 1.0)
    for w, bv in zip(omegas, direct):
        res = integrand.residue(w)
        if abs(res - bv) > 1e-9 * scale:
            raise BranchPointError(
                f"branch value mismatch at {w}: f(omega) = {bv}, "
                f"residue = {res}"
            )
    return BranchPointSet(omegas, direct)


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
    """

    t: float
    map: AnalyticMap
    diagnostics: StepDiagnostics | None = None
    resultant: _StringSolve | None = field(default=None, compare=False, repr=False)
    target: np.ndarray | None = field(default=None, compare=False, repr=False)


def _rk4(a: np.ndarray, dt: float, cone, velocity) -> np.ndarray:
    """One RK4 step from ``a``.  Each stage's coefficients pass
    ``_admissible(cone, .)`` and give ``velocity(b)`` for b_j = (j+1) a_j,
    whose 0th entry is exactly real: Im a0 stays exactly 0."""
    weights = np.arange(1, len(a) + 1)

    def stage(x):
        return velocity(_admissible(cone, x) * weights)

    k1 = stage(a)
    k2 = stage(a + 0.5 * dt * k1)
    k3 = stage(a + 0.5 * dt * k2)
    k4 = stage(a + dt * k3)
    return a + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _admissible(make, a):
    """``make(a)`` for the coefficients of a series RK4 stage or step's end;
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


#: Newton iterations, largest correction / |h v| and halvings of a polynomial step
_NEWTON_ITERATIONS, _MAX_CORRECTION, _MAX_HALVINGS = 8, 0.25, 12


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


def _continued(state: EvolutionState, h: float, halvings: int) -> EvolutionState:
    """``state`` continued by h in one step, or else in two of h/2."""
    m = state.map
    solve0 = state.resultant or _string_solve(m.derivative_coeffs())
    predictor = h * solve0.gated()[m.degree_plus :]
    start = state.target
    if start is None:
        start = moments_richardson(m, m.degree_plus)
    target = np.concatenate([[start[0].real + h], start[1:]])
    a = _corrected(m.coeffs + predictor, target, solve0.cond)
    if isinstance(a, str):
        why = a
    elif np.max(np.abs(a - m.coeffs - predictor)) > _MAX_CORRECTION * np.max(np.abs(predictor)):
        why = f"the correction exceeds {_MAX_CORRECTION} |h v|"
    else:
        solve1 = _string_solve(a * np.arange(1, len(a) + 1))
        if solve1.log_resultant.imag != solve0.log_resultant.imag:
            why = "Res(f', f'*) changed sign"
        elif solve1.velocities is None:
            why = "string system singular at the end map"
        else:
            return EvolutionState(state.t + h, PolynomialMap(a), resultant=solve1, target=target)
    if halvings == _MAX_HALVINGS:
        raise DegenerateResultantError(
            f"no step from t = {state.t:.9g} down to {h:.3e} was accepted ({why})")
    return _continued(_continued(state, 0.5 * h, halvings + 1), 0.5 * h, halvings + 1)


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
    return _continued(state, h, 0)


def step_taylor_fixed_branch(state: EvolutionState, dt: float,
                             grid: CircleGrid) -> EvolutionState:
    """One RK4 step of the fixed-branch-point flow in series space.

    The velocity is the truncation of fdot = z f' P to the series order
    (:func:`series_velocity`); a stage's cone is a0 real positive.  The new
    state is tail-checked by :func:`_series_map`: a series order too low for
    the step raises :class:`TruncationError`.
    """
    m = state.map
    if not isinstance(m, TaylorMap):
        raise TypeError("series stepper needs a TaylorMap state")
    anew = _rk4(m.coeffs, dt, _normalized, partial(series_velocity, grid=grid))
    return EvolutionState(state.t + dt, _series_map(anew))


def series_velocity(b: np.ndarray, grid: CircleGrid) -> np.ndarray:
    """Coefficient velocities adot_j of fdot = z f' P, truncated to the
    order len(b), from f''s coefficients b_j = (j+1) a_j, sampled on the
    grid by one :func:`heleshaw.maps.circle_values`.

    Only p_0..p_{order-1} reach the kept coefficients, so P is built with
    that many modes and the product is an exact convolution of coefficients.
    """
    p = poisson_schwarz(circle_values(b, grid), n_modes=len(b) - 1)
    return np.convolve(b, p)[: len(b)]


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


#: no horizon holds more steps of dt (six hours of order-256 series steps);
#: a horizon past it is a config error, not a loop that never returns
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
    coefficients; series mode steps by ``dt``, polynomial mode from one
    kept time (0, the output times, the horizon) to the next.  A horizon or
    output time that is no whole, finite number of steps of ``dt``, or a
    horizon of more than ``_MAX_STEPS`` of them, raises :class:`ConfigError`
    before any work.  A typed failure (degeneracy, cusp, truncation, branch
    trouble) at the initial map (its series truncation, base moments,
    branch points or first snapshot) raises.  One in a step, or in the
    snapshot after it, stops the run cleanly: the exception class name and
    message become the stop reason and the snapshots so far are returned.
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
        seeds = simple_derivative_zeros_in_disk(m)
        m = _series_map(m.power_series(spec.taylor_order))

    K = spec.diagnostic_moments
    base = moments_richardson(m, K)
    if series:
        bp = branch_points(m, near=seeds)
        base_branch = bp.values
        prev_omegas = bp.omegas
    else:
        base_branch = np.zeros(0, dtype=complex)
        prev_omegas = None

    def annotate(state: EvolutionState) -> EvolutionState:
        nonlocal prev_omegas
        mv = moments_richardson(state.map, K)
        expected = base.copy()
        expected[0] += state.t
        drift = np.abs(mv - expected)
        if series:
            bpt = branch_points(state.map, near=prev_omegas)
            prev_omegas = bpt.omegas
            bdrift = (
                np.abs(bpt.values - base_branch)
                if len(bpt) == len(base_branch)
                else np.full(max(len(base_branch), 1), np.inf)
            )
            vel = series_velocity(state.map.derivative_coeffs(), grid)
            solve = None
        else:
            bdrift = np.zeros(0)
            solve = state.resultant or _string_solve(state.map.derivative_coeffs())
            vel = solve.gated()[state.map.degree_plus:]
        sres = string_residual(state.map, vel, grid)
        return replace(state, diagnostics=StepDiagnostics(mv, drift, bdrift, sres),
                       resultant=solve)

    state = annotate(EvolutionState(0.0, m))
    states = [state]
    stop = "completed"
    ends = range(1, n_steps + 1) if series else sorted(out_steps - {0})
    for k in ends:
        try:
            if series:
                state = step_taylor_fixed_branch(state, spec.dt, grid=grid)
            else:
                state = step_polynomial(state, round(k * spec.dt, 12) - state.t)
            state = replace(state, t=round(k * spec.dt, 12))
            if k in out_steps:
                states.append(annotate(state))
        except HeleShawError as exc:
            stop = f"{type(exc).__name__}: {exc}"
            break
    return EvolutionResult(tuple(states), stop, base, base_branch)

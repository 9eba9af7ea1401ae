"""Hele-Shaw evolution of disk maps in string-normalized time.

Time is normalized so that dM_0/dt = 1 with all higher moments conserved,
i.e. the flow realizes d/dt = d/dM_0 and the bracket satisfies
{f, f*}_t = 1.  The classical Polubarinova-Galin normalization
Re[fdot conj(z f')] = 1 corresponds to dM_0/dt = 2; a solution in that time
variable tau is obtained from ours by f_PG(tau) = f(2 tau).

Two steppers, both fixed-step RK4:

* :func:`step_polynomial` keeps f a polynomial of fixed degree and advances
  the coefficients with the velocities from the bracket linear system.
  Branch points move implicitly.
* :func:`step_taylor_fixed_branch` advances a truncated power series with
  fdot = z f'(z) P(z), P the Poisson-Schwarz (Herglotz) extension of the
  boundary data 1/(2 |f'|^2).  Since fdot vanishes at every zero of f' the
  branch-point images B_j = f(omega_j) stay fixed; their drift is measured
  and reported, never enforced.

Series mode works on the circle grid: f' is sampled by one inverse FFT of
its coefficients (:func:`heleshaw.maps.ring_values`), P comes from the FFT
of 1/(2 |f'|^2), and :func:`series_velocity` is the one velocity function,
shared by the RK4 stages and the snapshot diagnostics.  Branch points are
found once, from the exact map before truncation, and then continued: at
each snapshot Newton's method polishes the previous omegas on the
coefficients of f', and the argument principle on the circles of radius
1 -/+ branch_boundary_margin certifies the zero count.  A count that
differs between the two circles (a zero at the boundary) raises
:class:`BranchPointError`; a count that changed, or a Newton run that does
not converge, falls back to companion-matrix roots for that snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    _polynomial_cone,
    simple_derivative_zeros_in_disk,
)
from .moments import moments_richardson
from .rational import RationalFunction, pder, pmul, psub
from .bracket import _string_solve, _StringSolve, string_residual

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

def poisson_schwarz(m: AnalyticMap, grid: CircleGrid,
                    n_modes: int | None = None) -> np.ndarray:
    """Coefficients p_0, p_1, ... of the analytic extension P of the
    boundary data 1/(2 |f'|^2): Re P = 1/(2 |f'|^2) on the unit circle.

    P(z) = (1/2 pi) int rho(theta) (w + z)/(w - z) dtheta with w = e^{i theta}
    and rho = 1/(2|f'|^2); in Fourier terms p_0 = rho_hat_0 (real) and
    p_m = 2 rho_hat_m for m >= 1.  Spectrally accurate for f' analytic and
    zero-free on the circle.
    """
    fpv = m.derivative_on(grid)
    small = float(np.min(np.abs(fpv)))
    if small < DEFAULT.cusp_min_derivative:
        raise CuspError(f"min |f'| = {small:.3e} on the circle (cusp forming)")
    rho = 1.0 / (2.0 * np.abs(fpv) ** 2)
    hat = np.fft.rfft(rho) / grid.size
    if n_modes is None:
        n_modes = grid.size // 2 - 1
    n_modes = min(n_modes, grid.size // 2 - 1)
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

    When ``map`` is a :class:`PolynomialMap`, ``resultant`` carries its
    string solve (its velocities, Res(f', f'*) and |W|_F |W^-1|_F) once a
    step or a snapshot has made it, so the map is solved once: its
    velocities serve both the snapshot and the next step's first RK4 stage,
    and its resultant the next step's jump test.  A carried solve has
    passed the gate of :func:`heleshaw.bracket.solve_string_system`; a state
    without one is solved from ``map.derivative_coeffs()`` and gated on
    first use.
    """

    t: float
    map: AnalyticMap
    diagnostics: StepDiagnostics | None = None
    resultant: _StringSolve | None = field(default=None, compare=False, repr=False)


def _rk4(a: np.ndarray, dt: float, deriv, k1: np.ndarray) -> np.ndarray:
    k2 = deriv(a + 0.5 * dt * k1)
    k3 = deriv(a + 0.5 * dt * k2)
    k4 = deriv(a + dt * k3)
    return a + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _normalization_checked(a: np.ndarray) -> np.ndarray:
    """``a``, if Im a0 is within rounding; the map built from it then makes
    a0 exactly real (:func:`heleshaw.maps._normalized`)."""
    drift = abs(a[0].imag)
    if drift > DEFAULT.normalization_drift:
        raise NormalizationError(
            f"Im a0 = {drift:.3e} after step; the exact flow preserves "
            "normalization, so this indicates a broken step"
        )
    return a


def _admissible(make, a):
    """``make(a)`` for the coefficients of an RK4 stage or of the step's end;
    coefficients outside the admissible cone raise NormalizationError."""
    try:
        return make(a)
    except ValueError as exc:
        raise NormalizationError(
            f"stage left the admissible coefficient cone: {exc}"
        ) from exc


def step_polynomial(state: EvolutionState, dt: float) -> EvolutionState:
    """One RK4 step of the fixed-degree polynomial string flow.

    A stage works on the coefficient array: the cone check of
    :class:`PolynomialMap`, b_j = (j+1) a_j, then one gated real solve
    (:func:`heleshaw.bracket._string_solve`).  Only the end map is built.

    Besides the conditioning check inside the linear solve, the step guards
    against tunneling through the Res(f', f'*) = 0 shell: the resultant
    vanishes like sqrt(t* - t) at the blow-up time, so a fixed step can jump
    across the singular set without ever landing on it.  A step that moves
    the resultant by more than its own magnitude is rejected as degenerate.

    The end map is solved once, at the end of the step: its det W gives the
    resultant for that jump test, which runs first, and then its solve
    must pass the gate, so a step raises :class:`DegenerateResultantError`
    when its end map fails the gate.  The new state carries that solve,
    whose velocities are the next step's first stage.
    """
    m = state.map
    if not isinstance(m, PolynomialMap):
        raise TypeError("polynomial stepper needs a PolynomialMap state")
    n = m.degree_plus
    weights = np.arange(1, n + 2)

    def deriv(a):
        return _string_solve(_admissible(_polynomial_cone, a) * weights).gated()[n:]

    a = np.asarray(m.coeffs, dtype=complex)
    solve0 = state.resultant or _string_solve(m.derivative_coeffs())
    k1 = solve0.gated()[n:]
    anew = _normalization_checked(_rk4(a, dt, deriv, k1))
    newmap = _admissible(PolynomialMap, anew)
    solve1 = _string_solve(newmap.derivative_coeffs())
    # |Res1 - Res0| > (|Res0| + |Res1|) / 2, divided by |Res0|
    ratio = np.exp(solve1.log_resultant - solve0.log_resultant)
    if abs(ratio - 1.0) > 0.5 * (1.0 + abs(ratio)):
        raise DegenerateResultantError(
            f"Res(f', f'*) jumped from {solve0.resultant:.3e} to "
            f"{solve1.resultant:.3e} in one step; "
            "the flow crossed or skirted the degenerate shell"
        )
    solve1.gated()
    return EvolutionState(state.t + dt, newmap, resultant=solve1)


def step_taylor_fixed_branch(state: EvolutionState, dt: float,
                             grid: CircleGrid) -> EvolutionState:
    """One RK4 step of the fixed-branch-point flow in series space.

    The velocity is the truncation of fdot = z f' P to the series order.
    The new state is tail-checked: if the relative energy in the trailing
    coefficients exceeds tolerance the series order is insufficient.
    """
    m = state.map
    if not isinstance(m, TaylorMap):
        raise TypeError("series stepper needs a TaylorMap state")

    def deriv(a):
        return series_velocity(_admissible(TaylorMap, a), grid)

    a = np.asarray(m.coeffs, dtype=complex)
    anew = _normalization_checked(_rk4(a, dt, deriv, deriv(a)))
    newmap = _admissible(TaylorMap, anew)
    tail = newmap.tail_energy()
    if tail > DEFAULT.tail_energy:
        raise TruncationError(
            f"relative tail energy {tail:.3e} exceeds {DEFAULT.tail_energy}; "
            "increase the series order"
        )
    return EvolutionState(state.t + dt, newmap)


def series_velocity(m: TaylorMap, grid: CircleGrid) -> np.ndarray:
    """Coefficient velocities adot_j of fdot = z f' P, truncated to the order.

    Only p_0..p_{order-1} reach the kept coefficients, so P is built with
    that many modes and the product is an exact convolution of coefficients.
    """
    p = poisson_schwarz(m, grid, n_modes=m.order - 1)
    return np.convolve(m.derivative_coeffs(), p)[: m.order]


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
    coefficients.  A horizon or output time that is no whole, finite
    number of steps raises :class:`ConfigError` before any work.  A typed
    failure (degeneracy, cusp, truncation, branch trouble) at the initial
    map (its series truncation, base moments, branch points or first
    snapshot) raises.  One in a step, or in the snapshot after it, stops
    the run cleanly: the exception class name and message become the stop
    reason and the snapshots collected so far are returned.
    """
    n_steps = _steps_for(spec.horizon, spec.dt, "horizon")
    out_steps = {_steps_for(t, spec.dt, "output time") for t in spec.output_times}
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
        m = TaylorMap(tuple(m.power_series(spec.taylor_order)))
        tail = m.tail_energy()
        if tail > DEFAULT.tail_energy:
            raise TruncationError(
                f"initial series tail energy {tail:.3e} exceeds {DEFAULT.tail_energy}"
            )

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
            vel = series_velocity(state.map, grid)
            solve = None
        else:
            bdrift = np.zeros(0)
            solve = state.resultant or _string_solve(state.map.derivative_coeffs())
            vel = solve.gated()[state.map.degree_plus:]
        sres = string_residual(state.map, vel, grid)
        return EvolutionState(
            state.t,
            state.map,
            StepDiagnostics(mv, drift, bdrift, sres),
            resultant=solve,
        )

    state = annotate(EvolutionState(0.0, m))
    states = [state]
    stop = "completed"
    for k in range(1, n_steps + 1):
        try:
            if series:
                state = step_taylor_fixed_branch(state, spec.dt, grid=grid)
            else:
                state = step_polynomial(state, spec.dt)
            state = replace(state, t=round(k * spec.dt, 12))
            if k in out_steps:
                states.append(annotate(state))
        except HeleShawError as exc:
            stop = f"{type(exc).__name__}: {exc}"
            break
    return EvolutionResult(tuple(states), stop, base, base_branch)

"""String-equation and Hele-Shaw evolution toolkit for disk maps.

The package computes harmonic moments of images of analytic disk maps,
assembles the coefficient-to-moment Jacobian and its determinant identity,
solves the string equation {f, f*} = 1 for polynomial maps, and integrates
Hele-Shaw (Laplacian-growth) evolution in two modes: a fixed-degree
polynomial mode, and a truncated-series mode that keeps the branch points
B_j = f(omega_j) fixed, for series starts and a class of rational maps.
"""

from .maps import (
    AbcRationalMap,
    AnalyticMap,
    CircleGrid,
    PolynomialMap,
    TaylorMap,
    branch_points,
    polynomial_roots,
    winding_number,
)
from .moments import (
    QuadratureData,
    coeffs_to_moments,
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    quadrature_check,
    quadrature_coeffs,
)
from .bracket import (
    bracket_matrix,
    bracket_samples,
    jacobian_identity_report,
    moment_power_matrix,
    solve_string_system,
    string_residual,
)
from .evolution import (
    EvolutionState,
    poisson_schwarz,
    run_evolution,
    step_polynomial,
    step_taylor_fixed_branch,
)
from .rational import RationalFunction
from .scenarios import (
    ScenarioSpec,
    make_example_abc,
    make_subcase1,
    make_subcase2,
    verify_scenario,
)

__all__ = [
    "AbcRationalMap",
    "AnalyticMap",
    "CircleGrid",
    "EvolutionState",
    "PolynomialMap",
    "QuadratureData",
    "RationalFunction",
    "ScenarioSpec",
    "TaylorMap",
    "branch_points",
    "bracket_matrix",
    "bracket_samples",
    "coeffs_to_moments",
    "jacobian_identity_report",
    "make_example_abc",
    "make_subcase1",
    "make_subcase2",
    "moment_power_matrix",
    "moments_area_oracle",
    "moments_residue",
    "moments_richardson",
    "poisson_schwarz",
    "polynomial_roots",
    "quadrature_check",
    "quadrature_coeffs",
    "run_evolution",
    "solve_string_system",
    "step_polynomial",
    "step_taylor_fixed_branch",
    "string_residual",
    "verify_scenario",
    "winding_number",
]

__version__ = "0.1.0"

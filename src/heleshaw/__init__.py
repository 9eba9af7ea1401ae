"""String-equation and Hele-Shaw evolution toolkit for disk maps.

The package computes harmonic moments of images of analytic disk maps,
assembles the coefficient-to-moment Jacobian and its determinant identity,
solves the string equation {f, f*} = 1 for polynomial maps, and integrates
Hele-Shaw (Laplacian-growth) evolution with fixed branch points for a class
of rational maps.
"""

from .config import DEFAULT, Tolerances
from .maps import (
    AbcRationalMap,
    AnalyticMap,
    CircleGrid,
    LaurentSlice,
    PolynomialMap,
    RationalMap,
    TaylorMap,
    eval_map,
    laurent_slice,
    polynomial_roots,
    winding_number,
)
from .moments import (
    MomentVector,
    QuadratureData,
    coeffs_to_moments,
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    moments_to_coeffs,
    quadrature_check,
    quadrature_coeffs,
)
from .bracket import (
    BracketSystem,
    bracket_matrix,
    bracket_samples,
    bracket_system,
    jacobian_identity_report,
    meromorphic_resultant,
    moment_power_matrix,
    solve_string_system,
    string_residual,
    sylvester_resultant,
)
from .evolution import (
    BranchPointSet,
    EvolutionState,
    HerglotzFunction,
    branch_points,
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
    "DEFAULT",
    "Tolerances",
    "AbcRationalMap",
    "AnalyticMap",
    "BracketSystem",
    "BranchPointSet",
    "CircleGrid",
    "EvolutionState",
    "HerglotzFunction",
    "LaurentSlice",
    "MomentVector",
    "PolynomialMap",
    "QuadratureData",
    "RationalFunction",
    "RationalMap",
    "ScenarioSpec",
    "TaylorMap",
    "branch_points",
    "bracket_matrix",
    "bracket_samples",
    "bracket_system",
    "coeffs_to_moments",
    "eval_map",
    "jacobian_identity_report",
    "laurent_slice",
    "make_example_abc",
    "make_subcase1",
    "make_subcase2",
    "meromorphic_resultant",
    "moment_power_matrix",
    "moments_area_oracle",
    "moments_residue",
    "moments_richardson",
    "moments_to_coeffs",
    "poisson_schwarz",
    "polynomial_roots",
    "quadrature_check",
    "quadrature_coeffs",
    "run_evolution",
    "solve_string_system",
    "step_polynomial",
    "step_taylor_fixed_branch",
    "string_residual",
    "sylvester_resultant",
    "verify_scenario",
    "winding_number",
]

__version__ = "0.1.0"

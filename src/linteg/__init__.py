"""Energy- and invariant-conserving Runge-Kutta integrators built on discrete line integrals."""

from .analysis import (
    DriftReport,
    cost_ratio,
    drift_report,
    drift_slope,
    estimate_orders,
    max_norm_error,
    reference_solution,
)
from .integrators import (
    ConfigError,
    MethodConfig,
    NonConvergence,
    StepWorkspace,
    Trajectory,
    elim_step,
    hbvm_step,
    integrate,
)
from .polybasis import (
    gauss_rule,
    integral_table,
    legendre_table,
    xi_coefficient,
)
from .problems import (
    HamiltonianProblem,
    InvariantSet,
    apply_structure,
    kepler_invariants,
    kepler_problem,
    polynomial_oscillator,
)
from .tableau import (
    TableauMatrices,
    build_hbvm_tableau,
    tableau_to_json,
    xhat_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DriftReport",
    "HamiltonianProblem",
    "InvariantSet",
    "MethodConfig",
    "NonConvergence",
    "StepWorkspace",
    "TableauMatrices",
    "Trajectory",
    "apply_structure",
    "build_hbvm_tableau",
    "cost_ratio",
    "drift_report",
    "drift_slope",
    "elim_step",
    "estimate_orders",
    "gauss_rule",
    "hbvm_step",
    "integral_table",
    "integrate",
    "kepler_invariants",
    "kepler_problem",
    "legendre_table",
    "max_norm_error",
    "polynomial_oscillator",
    "reference_solution",
    "tableau_to_json",
    "xhat_matrix",
    "xi_coefficient",
]

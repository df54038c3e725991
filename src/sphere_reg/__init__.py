"""Two-parameter regularization of ill-posed problems on the sphere.

Pipeline: sample data on a product cubature rule, reduce noise by
penalized least-squares smoothing (parameter lambda), invert the
degree-diagonal forward operator with spectral regularization (parameter
alpha), and pick both parameters by a nested quasi-optimality search.
"""

from .collocation import (
    CollocationParams,
    composite_norm_bound,
    invert_regularized,
    two_step_solve,
)
from .errors import NumericalError, SphereRegError, ValidationError
from .experiments import (
    FIGURE1_CASES,
    ExperimentCase,
    LeaderSummary,
    TrialResult,
    leader_following_summary,
    penalty_from_symbol,
    relative_sup_error,
    run_case,
    simulate_problem,
)
from .harmonics import basis_matrix, harmonic_blocks, legendre_table, sph_harm_matrix
from .operators import (
    HarmonicCoefficients,
    SphericalSymbol,
    analyze,
    apply_forward,
    symbol_preset,
    synthesize,
)
from .quadrature import CubatureRule, LineRule, gauss_legendre, sphere_rule
from .selection import (
    EvalGrid,
    ParameterGrid,
    ParameterPick,
    SelectionResult,
    TwoStepSelection,
    default_eval_grid,
    expand_grid,
    select_single,
    select_two_step,
    sup_norm,
)
from .smoothing import PenaltyWeights, SmoothingParams, smooth, smooth_oracle

__version__ = "0.1.0"

__all__ = [
    "CollocationParams",
    "CubatureRule",
    "EvalGrid",
    "ExperimentCase",
    "FIGURE1_CASES",
    "HarmonicCoefficients",
    "LeaderSummary",
    "LineRule",
    "NumericalError",
    "ParameterGrid",
    "ParameterPick",
    "PenaltyWeights",
    "SelectionResult",
    "SmoothingParams",
    "SphereRegError",
    "SphericalSymbol",
    "TrialResult",
    "TwoStepSelection",
    "ValidationError",
    "analyze",
    "apply_forward",
    "basis_matrix",
    "composite_norm_bound",
    "default_eval_grid",
    "expand_grid",
    "gauss_legendre",
    "harmonic_blocks",
    "invert_regularized",
    "leader_following_summary",
    "legendre_table",
    "penalty_from_symbol",
    "relative_sup_error",
    "run_case",
    "select_single",
    "select_two_step",
    "simulate_problem",
    "smooth",
    "smooth_oracle",
    "sph_harm_matrix",
    "sphere_rule",
    "sup_norm",
    "symbol_preset",
    "synthesize",
    "two_step_solve",
]

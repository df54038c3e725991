"""Two-parameter regularization of ill-posed problems on the sphere.

Pipeline: sample data on a product cubature rule, reduce noise by
penalized least-squares smoothing (parameter lambda), invert the
degree-diagonal forward operator with spectral regularization (parameter
alpha), and pick both parameters by a nested quasi-optimality search.
"""

from .collocation import (
    CollocationParams,
    FilterFunction,
    composite_norm_bound,
    cosine_filter,
    filtered_projection,
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
from .harmonics import (
    DegreeIndex,
    SpherePoint,
    UnitVector,
    basis_matrix,
    eval_basis,
    flat_index,
    harmonic_blocks,
    legendre,
    legendre_table,
    sph_harm,
    sph_harm_matrix,
)
from .operators import (
    HarmonicCoefficients,
    SmoothnessWeights,
    SphericalSymbol,
    analyze,
    apply_forward,
    sobolev_norm,
    symbol_preset,
    synthesize,
)
from .quadrature import CubatureRule, LineRule, gauss_legendre, integrate, sphere_rule
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
from .smoothing import PenaltyWeights, SmoothingParams, kernel, smooth, smooth_oracle

__version__ = "0.1.0"

__all__ = [
    "CollocationParams",
    "CubatureRule",
    "DegreeIndex",
    "EvalGrid",
    "ExperimentCase",
    "FIGURE1_CASES",
    "FilterFunction",
    "HarmonicCoefficients",
    "LeaderSummary",
    "LineRule",
    "NumericalError",
    "ParameterGrid",
    "ParameterPick",
    "PenaltyWeights",
    "SelectionResult",
    "SmoothingParams",
    "SmoothnessWeights",
    "SpherePoint",
    "SphereRegError",
    "SphericalSymbol",
    "TrialResult",
    "TwoStepSelection",
    "UnitVector",
    "ValidationError",
    "analyze",
    "apply_forward",
    "basis_matrix",
    "composite_norm_bound",
    "cosine_filter",
    "default_eval_grid",
    "eval_basis",
    "expand_grid",
    "filtered_projection",
    "flat_index",
    "gauss_legendre",
    "harmonic_blocks",
    "integrate",
    "invert_regularized",
    "kernel",
    "leader_following_summary",
    "legendre",
    "legendre_table",
    "penalty_from_symbol",
    "relative_sup_error",
    "run_case",
    "select_single",
    "select_two_step",
    "simulate_problem",
    "smooth",
    "smooth_oracle",
    "sobolev_norm",
    "sph_harm",
    "sph_harm_matrix",
    "sphere_rule",
    "sup_norm",
    "symbol_preset",
    "synthesize",
    "two_step_solve",
]

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
    leader_following_summary,
    penalty_from_symbol,
    run_case,
    simulate_problem,
)
from .harmonics import basis_matrix
from .operators import (
    HarmonicCoefficients,
    SphericalSymbol,
    analyze,
    apply_forward,
    symbol_preset,
    synthesize,
)
from .quadrature import CubatureRule, gauss_legendre, sphere_rule
from .selection import (
    EvalGrid,
    ParameterGrid,
    default_eval_grid,
    select_single,
    select_two_step,
    sup_norm,
)
from .smoothing import PenaltyWeights, SmoothingParams, smooth

__version__ = "0.1.0"

__all__ = [
    "CollocationParams",
    "CubatureRule",
    "EvalGrid",
    "ExperimentCase",
    "FIGURE1_CASES",
    "HarmonicCoefficients",
    "NumericalError",
    "ParameterGrid",
    "PenaltyWeights",
    "SmoothingParams",
    "SphereRegError",
    "SphericalSymbol",
    "ValidationError",
    "analyze",
    "apply_forward",
    "basis_matrix",
    "composite_norm_bound",
    "default_eval_grid",
    "gauss_legendre",
    "invert_regularized",
    "leader_following_summary",
    "penalty_from_symbol",
    "run_case",
    "select_single",
    "select_two_step",
    "simulate_problem",
    "smooth",
    "sphere_rule",
    "sup_norm",
    "symbol_preset",
    "synthesize",
    "two_step_solve",
]

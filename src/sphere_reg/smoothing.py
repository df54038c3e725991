"""Penalized least-squares noise reduction on the data sphere.

The smoothing step fits a spherical polynomial to point samples by
minimizing  ||p(t_i) - samples||^2_w + lam * ||p||^2_K,  where the second
term is a reproducing-kernel norm with per-degree penalties beta_k.  Under
a cubature rule exact to degree 2M the minimizer has a closed form: the
discrete Fourier coefficients damped per degree by 1/(1 + lam beta_k^2).
``smooth`` implements that closed form; ``smooth_oracle`` assembles and
solves the dense normal equations directly and exists to validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .harmonics import basis_matrix
from .operators import HarmonicCoefficients, analyze
from .quadrature import CubatureRule

_ORACLE_MAX_DEGREE = 12


@dataclass(frozen=True, eq=False)
class PenaltyWeights:
    """Nondecreasing positive per-degree penalties beta_k."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 1 or beta.size == 0:
            raise ValidationError("beta must be a nonempty vector")
        if np.any(beta <= 0):
            raise ValidationError("beta entries must be positive")
        if np.any(np.diff(beta) < 0):
            raise ValidationError("beta must be nondecreasing")

    @property
    def M(self) -> int:
        return self.beta.size - 1


@dataclass(frozen=True)
class SmoothingParams:
    """Regularization strength lam >= 0 plus the penalty sequence."""

    lam: float
    beta: PenaltyWeights

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValidationError(
                f"lam must be finite and nonnegative, got {self.lam!r}"
            )

    def damping(self, M: int) -> np.ndarray:
        """Per-degree factors 1/(1 + lam beta_k^2) for k = 0..M."""
        if self.beta.M < M:
            raise ValidationError(
                f"beta covers degrees 0..{self.beta.M}, need 0..{M}"
            )
        b = self.beta.beta[: M + 1]
        return 1.0 / (1.0 + self.lam * b * b)


def smooth(
    samples: np.ndarray, rule: CubatureRule, params: SmoothingParams
) -> HarmonicCoefficients:
    """Closed-form minimizer of the penalized fit on the rule's points.

    Equals analyze() with row k damped by 1/(1 + lam beta_k^2); at lam = 0
    this is plain hyperinterpolation.
    """
    coeffs = analyze(samples, rule, rule.M)
    return coeffs.scaled_by_degree(params.damping(rule.M))


def smooth_oracle(
    samples: np.ndarray, rule: CubatureRule, params: SmoothingParams
) -> HarmonicCoefficients:
    """Dense normal-equations solve of the same minimization problem.

    Assembles the (M+1)^2 x (M+1)^2 system (B^T W B + lam diag(beta_k^2)) c
    = B^T W y in the orthonormal coefficient basis, where B holds weighted
    basis evaluations at the rule points, and solves it directly.  Intended
    for validation at test scale; degrees above 12 are refused.
    """
    M = rule.M
    if M > _ORACLE_MAX_DEGREE:
        raise ValidationError(
            f"oracle is capped at M={_ORACLE_MAX_DEGREE} (dense solve), got M={M}"
        )
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (rule.n_points,):
        raise ValidationError(
            f"expected {rule.n_points} samples, got shape {samples.shape}"
        )
    damping = params.damping(M)  # validates beta coverage
    del damping

    B = basis_matrix(M, rule.points, rule.rho)
    W = rule.weights
    gram = B.T @ (W[:, None] * B)
    b = params.beta.beta[: M + 1]
    penalty = params.lam * np.repeat(b * b, 2 * np.arange(M + 1) + 1)
    system = gram + np.diag(penalty)
    rhs = B.T @ (W * samples)
    try:
        coeffs = scipy.linalg.solve(system, rhs, assume_a="pos")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"singular smoothing system: {exc}") from exc
    return HarmonicCoefficients(M=M, radius=rule.rho, values=coeffs)

"""Regularized inversion, the composite two-step solve, and diagnostics.

The inversion step maps a polynomial on the data sphere to one on the
solution sphere through the spectral filter a_k/(alpha + a_k^2); composed
with the smoothing step this gives the two-parameter solution whose
per-degree factor is a_k / ((alpha + a_k^2)(1 + lam beta_k^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .harmonics import basis_matrix, radius_mismatch
from .operators import HarmonicCoefficients, SphericalSymbol, analyze
from .quadrature import CubatureRule
from .smoothing import SmoothingParams

_BOUND_CHUNK = 512


@dataclass(frozen=True)
class CollocationParams:
    """Inversion regularization strength alpha >= 0 plus the symbol."""

    alpha: float
    symbol: SphericalSymbol

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValidationError(
                f"alpha must be finite and nonnegative, got {self.alpha!r}"
            )

    def inversion_factors(self, M: int) -> np.ndarray:
        """Per-degree factors a_k/(alpha + a_k^2) for k = 0..M."""
        if self.symbol.M < M:
            raise ValidationError(
                f"symbol covers degrees 0..{self.symbol.M}, need 0..{M}"
            )
        a = self.symbol.a[: M + 1]
        return a / (self.alpha + a * a)


def invert_regularized(
    p: HarmonicCoefficients, params: CollocationParams
) -> HarmonicCoefficients:
    """Regularized inversion of the forward operator, data sphere to solution sphere.

    Row k is multiplied by a_k/(alpha + a_k^2) and the result is retagged to
    radius R.  At alpha = 0 this is exact formal inversion by 1/a_k.
    """
    symbol = params.symbol
    if radius_mismatch(p.radius, symbol.rho):
        raise ValidationError(
            f"input lives on radius {p.radius}, symbol expects rho={symbol.rho}"
        )
    factors = params.inversion_factors(p.M)
    return p.scaled_by_degree(factors, radius=symbol.R)


def _solve_from_coefficients(
    coeffs: HarmonicCoefficients, sp: SmoothingParams, cp: CollocationParams
) -> HarmonicCoefficients:
    """The two-parameter solution from the samples' Fourier coefficients.

    Row k is damped by 1/(1 + lam beta_k^2), then inverted by
    a_k/(alpha + a_k^2): the products of invert_regularized(smooth(...)).
    Raises NumericalError if the solution is not finite.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        smoothed = coeffs.scaled_by_degree(sp.damping(coeffs.M))
        solution = invert_regularized(smoothed, cp)
    if not np.all(np.isfinite(solution.values)):
        raise NumericalError(
            f"non-finite solution at alpha = {float(cp.alpha)!r}, "
            f"lambda = {float(sp.lam)!r}"
        )
    return solution


def two_step_solve(
    samples: np.ndarray,
    rule: CubatureRule,
    sp: SmoothingParams,
    cp: CollocationParams,
) -> HarmonicCoefficients:
    """Presmooth the samples, then invert: the two-parameter solution.

    Identical by construction to invert_regularized(smooth(samples), cp),
    i.e. row k of the plain Fourier coefficients is multiplied by
    a_k / ((alpha + a_k^2)(1 + lam beta_k^2)).

    Raises NumericalError if the solution is not finite (the analysis
    overflows, a_k^2 underflows at alpha = 0, or a factor overflows).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = analyze(samples, rule, rule.M)
    return _solve_from_coefficients(coeffs, sp, cp)


def composite_norm_bound(
    sp: SmoothingParams,
    cp: CollocationParams,
    rule: CubatureRule,
    eval_grid: np.ndarray,
) -> float:
    """Grid estimate of the uniform-norm bound of the composed two-step map.

    The map sends samples y_i to sum_i w_i K(t, t_i) y_i, with the kernel

        K(t, t_i) = sum_k sum_j f_k (1/R) Y_{k,j}(t/R) (1/rho) Y_{k,j}(t_i/rho)
                  = sum_k (2k+1) f_k / (4 pi R rho) P_k(t . t_i / (R rho))

    and f_k = a_k / ((alpha + a_k^2)(1 + lam beta_k^2)).  From sample values
    (max norm) to the uniform norm, its norm is the discrete Lebesgue constant
    sup_t sum_i w_i |K(t, t_i)|; the maximum over the grid points is a lower
    estimate of it.
    """
    grid = np.atleast_2d(np.asarray(eval_grid, dtype=float))
    if grid.size == 0:
        raise ValidationError("evaluation grid must be nonempty")
    R = cp.symbol.R
    rho = cp.symbol.rho
    if radius_mismatch(np.linalg.norm(grid, axis=1), R):
        raise ValidationError(f"evaluation grid must lie on radius {R}")
    if radius_mismatch(rule.rho, rho):
        raise ValidationError(
            f"rule sphere {rule.rho} does not match symbol rho={rho}"
        )

    M = rule.M
    f = np.repeat(cp.inversion_factors(M) * sp.damping(M), 2 * np.arange(M + 1) + 1)
    rule_basis = basis_matrix(M, rule.points, rho)
    best = 0.0
    for start in range(0, grid.shape[0], _BOUND_CHUNK):
        chunk = basis_matrix(M, grid[start : start + _BOUND_CHUNK], R)
        kernel = (chunk * f) @ rule_basis.T
        best = max(best, float(np.max(np.abs(kernel) @ rule.weights)))
    return best

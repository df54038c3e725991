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
from .harmonics import radius_mismatch
from .operators import HarmonicCoefficients, SphericalSymbol
from .quadrature import CubatureRule
from .smoothing import SmoothingParams, smooth

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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        solution = invert_regularized(smooth(samples, rule, sp), cp)
    if not np.all(np.isfinite(solution.values)):
        raise NumericalError(
            f"non-finite solution at alpha = {float(cp.alpha)!r}, "
            f"lambda = {float(sp.lam)!r}"
        )
    return solution


def composite_norm_bound(
    sp: SmoothingParams,
    cp: CollocationParams,
    rule: CubatureRule,
    eval_grid: np.ndarray,
) -> float:
    """Grid estimate of the uniform-norm bound of the composed two-step map.

    Evaluates, at every grid point t on the solution sphere,

        (1/(R rho)) |sum_i w_i sum_k (2k+1) a_k
                     / (4 pi (alpha + a_k^2)(1 + lam beta_k^2))
                     * P_k(t . t_i / (R rho))|

    and returns the maximum.  This is a lower estimate of the true supremum
    over the whole sphere, sharpening as the grid refines.
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
    k = np.arange(M + 1)
    coeff = (
        (2 * k + 1)
        * cp.inversion_factors(M)
        * sp.damping(M)
        / (4.0 * math.pi)
    )

    grid_dirs = grid / R
    rule_dirs = rule.directions()
    w = rule.weights
    best = 0.0
    for start in range(0, grid_dirs.shape[0], _BOUND_CHUNK):
        u = grid_dirs[start : start + _BOUND_CHUNK] @ rule_dirs.T
        np.clip(u, -1.0, 1.0, out=u)
        # accumulate sum_k coeff_k P_k(u) by the three-term recurrence
        p_prev = np.ones_like(u)
        acc = coeff[0] * p_prev
        if M >= 1:
            p = u.copy()
            acc += coeff[1] * p
            for n in range(1, M):
                p_prev, p = p, ((2 * n + 1) * u * p - n * p_prev) / (n + 1)
                acc += coeff[n + 1] * p
        vals = acc @ w
        best = max(best, float(np.max(np.abs(vals))))
    return best / (R * rho)

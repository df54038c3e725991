"""Regularized inversion, the composite two-step solve, and diagnostics.

The inversion step maps a polynomial on the data sphere to one on the
solution sphere through the spectral filter a_k/(alpha + a_k^2); composed
with the smoothing step this gives the two-parameter solution whose
per-degree factor is a_k / ((alpha + a_k^2)(1 + lam beta_k^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
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


class FilterFunction:
    """C^1 taper h: equal to 1 on [0, 1/2], 0 on [1, inf), values in [0, 1]."""

    def __init__(self, fn: Callable[[float], float], name: str = "custom"):
        self.fn = fn
        self.name = name

    def __call__(self, t: float) -> float:
        return self.fn(t)

    def validate(self, n_samples: int = 1001) -> None:
        """Spot-check the envelope constraints on a sample grid."""
        ts = np.linspace(0.0, 2.0, n_samples)
        vals = np.array([self.fn(float(t)) for t in ts])
        if np.any((vals < -1e-12) | (vals > 1.0 + 1e-12)):
            raise ValidationError(f"filter '{self.name}' leaves [0, 1]")
        if np.any(np.abs(vals[ts <= 0.5] - 1.0) > 1e-12):
            raise ValidationError(f"filter '{self.name}' must be 1 on [0, 1/2]")
        if np.any(np.abs(vals[ts >= 1.0]) > 1e-12):
            raise ValidationError(f"filter '{self.name}' must vanish on [1, inf)")


def _cosine_taper(t: float) -> float:
    if t <= 0.5:
        return 1.0
    if t >= 1.0:
        return 0.0
    return math.cos(math.pi * (t - 0.5)) ** 2


#: Default filter: 1 on [0, 1/2], cos^2(pi (t - 1/2)) on [1/2, 1], then 0.
#: Continuously differentiable with vanishing slope at both knots.
cosine_filter = FilterFunction(_cosine_taper, name="cosine")


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
    """
    return invert_regularized(smooth(samples, rule, sp), cp)


def filtered_projection(
    c: HarmonicCoefficients, h: FilterFunction, M: int
) -> HarmonicCoefficients:
    """Taper coefficients per degree by h(k/M).

    Degrees up to M/2 pass unchanged, degrees at or above M are zeroed; the
    storage degree of the result matches the input.
    """
    if M < 1:
        raise ValidationError(f"filter degree must be positive, got {M}")
    factors = np.array([h(k / M) for k in range(c.M + 1)])
    return c.scaled_by_degree(factors)


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

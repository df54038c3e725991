"""Quasi-optimality parameter choice on geometric grids.

The heuristic picks, along an ascending parameter grid, the index whose
solution differs least (in the uniform norm, approximated on a point grid)
from its predecessor.  The two-parameter variant nests one search inside
the other: an inner lambda search per alpha, then an outer alpha search
over the per-alpha winners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .collocation import CollocationParams, two_step_solve
from .errors import ValidationError
from .harmonics import basis_matrix, radius_mismatch
from .operators import HarmonicCoefficients, SphericalSymbol, analyze
from .quadrature import CubatureRule, sphere_rule
from .smoothing import PenaltyWeights, SmoothingParams


@dataclass(frozen=True)
class ParameterGrid:
    """Geometric grid base * factor^i, i = 0..count, optionally with 0 first."""

    base: float
    factor: float
    count: int
    include_zero: bool = False

    def __post_init__(self):
        if not 0 < self.base < math.inf:
            raise ValidationError(
                f"grid base must be positive and finite, got {self.base!r}"
            )
        if not 1 < self.factor < math.inf:
            raise ValidationError(
                f"grid factor must be finite and exceed 1, got {self.factor!r}"
            )
        if self.count < 1:
            raise ValidationError(f"grid count must be >= 1, got {self.count}")


def expand_grid(g: ParameterGrid) -> np.ndarray:
    """Grid values in ascending order; a leading exact 0 when requested."""
    positive = g.base * g.factor ** np.arange(g.count + 1, dtype=float)
    if g.include_zero:
        return np.concatenate(([0.0], positive))
    return positive


def grid_values(g) -> np.ndarray:
    """Accept a ParameterGrid or an explicit ascending value sequence."""
    if isinstance(g, ParameterGrid):
        return expand_grid(g)
    values = np.asarray(list(g), dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("parameter values must form a nonempty vector")
    if not np.all(np.isfinite(values)):
        raise ValidationError("parameter values must be finite")
    if np.any(values < 0):
        raise ValidationError("parameter values must be nonnegative")
    if np.any(np.diff(values) <= 0):
        raise ValidationError("parameter values must be strictly ascending")
    return values


class EvalGrid:
    """Point grid for uniform-norm estimates, with a cached basis matrix.

    Wraps an (T, 3) array of points on a common sphere; the synthesis
    matrix for each requested degree is built once and reused, which is
    what makes repeated sup-norm evaluations over a parameter grid cheap.
    """

    def __init__(self, points: np.ndarray):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValidationError("evaluation grid must be nonempty")
        if pts.shape[1] != 3:
            raise ValidationError(f"grid must be (T, 3), got {pts.shape}")
        norms = np.linalg.norm(pts, axis=1)
        radius = float(norms[0])
        if not radius > 0:
            raise ValidationError("grid points must be off the origin")
        if radius_mismatch(norms, radius):
            raise ValidationError("grid points must share one sphere radius")
        self.points = pts
        self.radius = radius
        self._basis = {}

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def basis(self, M: int) -> np.ndarray:
        """(T, (M+1)^2) matrix of (1/radius) Y_{k,j}(t/radius) values."""
        B = self._basis.get(M)
        if B is None:
            B = basis_matrix(M, self.points, self.radius)
            self._basis[M] = B
        return B

    def degree_fields(self, coeffs: HarmonicCoefficients) -> np.ndarray:
        """Per-degree partial sums of the synthesis, shape (T, M+1).

        Column k holds sum_j c_{k,j} (1/radius) Y_{k,j}; any per-degree
        rescaling of the coefficients then synthesizes as Z @ factors.
        """
        B = self.basis(coeffs.M)
        T = self.n_points
        Z = np.empty((T, coeffs.M + 1))
        for k in range(coeffs.M + 1):
            lo, hi = k * k, (k + 1) * (k + 1)
            Z[:, k] = B[:, lo:hi] @ coeffs.values[lo:hi]
        return Z


def default_eval_grid(M: int, R: float) -> EvalGrid:
    """Default uniform-norm grid: the points of sphere_rule(2M, R)."""
    return EvalGrid(sphere_rule(2 * M, R).points)


def _as_eval_grid(eval_grid) -> EvalGrid:
    if isinstance(eval_grid, EvalGrid):
        return eval_grid
    return EvalGrid(eval_grid)


def sup_norm(c: HarmonicCoefficients, eval_grid) -> float:
    """Max of |synthesized function| over the grid; approximates the sup norm."""
    grid = _as_eval_grid(eval_grid)
    if radius_mismatch(grid.radius, c.radius):
        raise ValidationError(
            f"grid radius {grid.radius} does not match coefficients on {c.radius}"
        )
    return float(np.max(np.abs(grid.basis(c.M) @ c.values)))


def _quasi_optimal(fields: np.ndarray) -> tuple[int, np.ndarray]:
    """Quasi-optimal column of a (T, L) table of fields, ascending parameter.

    Returns the winning column and the differences
    d_i = max_t |fields[t, i] - fields[t, i-1]|, i = 1..L-1; the winner is
    the i minimizing d_i, ties going to the smallest.  A single column wins
    with no differences.
    """
    if fields.shape[1] == 1:
        return 0, np.empty(0)
    differences = np.max(np.abs(np.diff(fields, axis=1)), axis=0)
    return int(np.argmin(differences)) + 1, differences


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a single quasi-optimality pass."""

    chosen_index: int
    chosen_value: float | None
    differences: np.ndarray
    solution: HarmonicCoefficients


def select_single(
    solutions: Sequence[HarmonicCoefficients],
    eval_grid,
    values: Sequence[float] | None = None,
) -> SelectionResult:
    """Pick the solution minimizing the consecutive sup-norm difference.

    ``solutions`` must be ordered by ascending parameter.  The difference
    d_i = sup|solution_i - solution_{i-1}| is computed for i = 1..end and
    the minimizing i wins; ties go to the smallest index.  When the
    parameter values are supplied, the winner's value is reported too.
    """
    if len(solutions) < 2:
        raise ValidationError("quasi-optimality needs at least 2 solutions")
    if values is not None and len(values) != len(solutions):
        raise ValidationError("values and solutions must align")
    grid = _as_eval_grid(eval_grid)
    M = solutions[0].M
    radius = solutions[0].radius
    for s in solutions[1:]:
        if s.M != M or radius_mismatch(s.radius, radius):
            raise ValidationError("solutions must share degree and radius")
    if radius_mismatch(grid.radius, radius):
        raise ValidationError(
            f"grid radius {grid.radius} does not match solutions on {radius}"
        )

    stacked = np.column_stack([s.values for s in solutions])
    chosen, differences = _quasi_optimal(grid.basis(M) @ stacked)
    return SelectionResult(
        chosen_index=chosen,
        chosen_value=None if values is None else float(values[chosen]),
        differences=differences,
        solution=solutions[chosen],
    )


@dataclass(frozen=True)
class TraceRecord:
    """Per-alpha record of the nested search."""

    alpha: float
    chosen_lambda: float
    inner_min_diff: float
    outer_diff: float


@dataclass(frozen=True)
class TwoStepSelection:
    """Final parameter pair, its solution, and the per-alpha trace."""

    alpha: float
    lam: float
    solution: HarmonicCoefficients
    trace: list = field(default_factory=list)


def select_two_step(
    samples: np.ndarray,
    rule: CubatureRule,
    symbol: SphericalSymbol,
    beta: PenaltyWeights,
    alpha_grid,
    lambda_grid,
    eval_grid,
) -> TwoStepSelection:
    """Nested quasi-optimality over (alpha, lambda).

    For every alpha on the grid, the inner pass picks lambda(alpha) by
    quasi-optimality over the two-step solutions; the outer pass then picks
    alpha by quasi-optimality over the per-alpha winners.  All differences
    are measured on the solution sphere.

    Every candidate solution is a per-degree rescaling of one Fourier
    analysis of the samples, so the search synthesizes per-degree field
    sums once and rescales those instead of rebuilding each solution; the
    selected pair is identical to running select_single over explicit
    two_step_solve outputs.

    Single-element grids are allowed: their pass picks the only value, so a
    degenerate {0} grid on either side reduces to the one-parameter method.
    """
    alphas = grid_values(alpha_grid)
    lambdas = grid_values(lambda_grid)
    grid = _as_eval_grid(eval_grid)
    M = rule.M
    if radius_mismatch(grid.radius, symbol.R):
        raise ValidationError(
            f"grid radius {grid.radius} does not match solution sphere R={symbol.R}"
        )

    coeffs = analyze(samples, rule, M)
    solution_shape = coeffs.scaled_by_degree(np.ones(M + 1), radius=symbol.R)
    Z = grid.degree_fields(solution_shape)

    a = symbol.a[: M + 1]
    b = beta.beta[: M + 1]
    damping = 1.0 / (1.0 + np.outer(lambdas, b * b))  # (L, M+1)

    # Per-alpha winners; each (T, L) field table is dropped after its pass.
    winner_fields = np.empty((grid.n_points, len(alphas)))
    chosen_lams = np.empty(len(alphas))
    inner_mins = np.empty(len(alphas))
    for i, alpha in enumerate(alphas):
        inversion = a / (alpha + a * a)
        fields = Z @ (damping * inversion).T  # (T, L)
        idx, diffs = _quasi_optimal(fields)
        winner_fields[:, i] = fields[:, idx]
        chosen_lams[i] = lambdas[idx]
        inner_mins[i] = diffs[idx - 1] if diffs.size else math.nan
    alpha_idx, outer_diffs = _quasi_optimal(winner_fields)

    alpha_star = float(alphas[alpha_idx])
    lam_star = float(chosen_lams[alpha_idx])
    solution = two_step_solve(
        samples,
        rule,
        SmoothingParams(lam=lam_star, beta=beta),
        CollocationParams(alpha=alpha_star, symbol=symbol),
    )

    trace = [
        TraceRecord(
            alpha=float(alphas[j]),
            chosen_lambda=float(chosen_lams[j]),
            inner_min_diff=float(inner_mins[j]),
            outer_diff=math.nan if j == 0 else float(outer_diffs[j - 1]),
        )
        for j in range(len(alphas))
    ]
    return TwoStepSelection(alpha=alpha_star, lam=lam_star, solution=solution, trace=trace)

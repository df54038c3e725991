"""Quasi-optimality parameter choice on geometric grids.

The heuristic picks, along an ascending parameter grid, the index whose
solution differs least (in the uniform norm, approximated on a point grid)
from its predecessor.  The two-parameter variant nests one search inside
the other: an inner lambda search per alpha, then an outer alpha search
over the per-alpha winners.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .collocation import CollocationParams, _solve_from_coefficients
from .errors import NumericalError, ValidationError
from .harmonics import basis_matrix, radius_mismatch
from .operators import (
    HarmonicCoefficients,
    SphericalSymbol,
    _ring_spectra,
    analyze,
    synthesize,
)
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
        with np.errstate(over="ignore"):
            top = self.base * np.float64(self.factor) ** self.count
        if not np.isfinite(top):
            raise ValidationError(
                f"grid top value base * factor**count overflows: "
                f"{self.base!r} * {self.factor!r}**{self.count}"
            )


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
    """Point grid for uniform-norm estimates.

    Built from a CubatureRule (the rule's points, ring by ring) or from a
    plain (T, 3) array of points on a common sphere.  ``sup_norm`` and
    ``degree_fields`` run longitude FFTs along the rule's rings, so they
    need a rule-backed grid and never build a dense basis.  The dense
    (T, (M+1)^2) synthesis matrix of ``basis`` is built on its first call
    for a degree and cached; only ``select_single``, which also accepts
    the array form for point clouds, uses it.
    """

    def __init__(self, points: CubatureRule | np.ndarray):
        self.rule = points if isinstance(points, CubatureRule) else None
        if self.rule is not None:
            points = self.rule.points
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
        rescaling of the coefficients then synthesizes as Z @ factors.  Per
        degree, one inverse real FFT along each ring of the rule turns that
        degree's longitude spectra (operators._ring_spectra) into the
        column: O(T) working memory per degree, and no dense basis.
        """
        rule = self._rule()
        n_phi = 2 * (rule.M + 1)
        Z = np.empty((self.n_points, coeffs.M + 1))
        for k, X in _ring_spectra(coeffs, rule):
            ring_values = np.fft.irfft(X, n=n_phi, axis=1, norm="forward")
            np.divide(ring_values.reshape(-1), self.radius, out=Z[:, k])
        return Z

    def _rule(self) -> CubatureRule:
        if self.rule is None:
            raise ValidationError(
                "sup_norm and degree_fields need a rule-backed grid, not a point array"
            )
        return self.rule


@functools.lru_cache(maxsize=8)
def default_eval_grid(M: int, R: float) -> EvalGrid:
    """Default uniform-norm grid on sphere_rule(2M, R), one per (M, R).

    Cached, so callers at one (M, R) share the grid and the Legendre
    table its rule memoizes for the ring FFTs.
    """
    return EvalGrid(sphere_rule(2 * M, R))


def sup_norm(c: HarmonicCoefficients, grid: EvalGrid) -> float:
    """Max of |synthesized function| over the grid; approximates the sup norm.

    The grid must be rule-backed and on the coefficients' sphere: the
    values come from synthesize on the grid's rule, one inverse FFT per ring.
    """
    return float(np.max(np.abs(synthesize(c, grid._rule()))))


def _sup_difference(later: np.ndarray, earlier: np.ndarray) -> float:
    """max_t |later[t] - earlier[t]| of two fields."""
    return float(np.max(np.abs(later - earlier)))


def _sup_differences(fields: np.ndarray) -> np.ndarray:
    """d_i = max_t |fields[t, i] - fields[t, i-1]| for consecutive columns."""
    return np.max(np.abs(fields[:, 1:] - fields[:, :-1]), axis=0)


def _first_minimum(differences: np.ndarray) -> int:
    """Winning column: the i minimizing d_i, ties going to the smallest.

    With no differences (a single column) column 0 wins.
    """
    return int(np.argmin(differences)) + 1 if differences.size else 0


def _quasi_optimal(fields: np.ndarray) -> tuple[int, np.ndarray]:
    """Quasi-optimal column of a (T, L) table of fields, ascending parameter.

    Returns the winning column and every difference d_i, i = 1..L-1.  A
    single column wins with no differences.
    """
    differences = _sup_differences(fields)
    return _first_minimum(differences), differences


#: Row stride of the subsample whose differences bound every d_i from below.
_BOUND_STRIDE = 16


def _pruned_quasi_optimal(
    Z: np.ndarray, zmax: np.ndarray, factors: np.ndarray, alpha: float
) -> tuple[int, float, np.ndarray]:
    """_quasi_optimal's winner over the fields Z @ factors.T, never built.

    Returns the winning row of the (L, M+1) factors, its difference and
    its field.  Differences over every 16th row of Z are exact lower
    bounds on the full ones.  Pairs are evaluated in ascending bound order,
    each as one (T, 2) product, until a bound exceeds the best exact
    difference so far; no later pair can then win or tie.  On OpenBLAS the
    bound and pair products equal slices of the full GEMM, so all three
    results are bit-identical to the dense pass.  A single row wins with a
    NaN difference.  Raises NumericalError on a non-finite field.
    """
    _check_fields(Z, zmax, factors, alpha)
    if factors.shape[0] == 1:
        return 0, math.nan, (Z @ factors.T)[:, 0]
    bounds = _sup_differences(Z[::_BOUND_STRIDE] @ factors.T)
    chosen, best, winner = 0, math.inf, None
    for i in np.argsort(bounds).tolist():
        if bounds[i] > best:
            break
        pair = Z @ factors[i : i + 2].T
        d = _sup_difference(pair[:, 1], pair[:, 0])
        # Ties go to the smaller index, as in _first_minimum.
        if d < best or (d == best and i + 1 < chosen):
            chosen, best, winner = i + 1, d, pair[:, 1].copy()
    return chosen, best, winner


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a single quasi-optimality pass."""

    chosen_index: int
    chosen_value: float | None
    differences: np.ndarray
    solution: HarmonicCoefficients


def select_single(
    solutions: Sequence[HarmonicCoefficients],
    grid: EvalGrid,
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
class ParameterPick:
    """A chosen (alpha, lambda) pair and its two-step solution."""

    alpha: float
    lam: float
    solution: HarmonicCoefficients


@dataclass(frozen=True)
class TwoStepSelection(ParameterPick):
    """The nested pick, the per-alpha trace, and both one-parameter picks.

    ``smoothing_only`` is quasi-optimality over lambda at alpha = 0;
    ``collocation_only`` is quasi-optimality over alpha at lambda = 0.
    """

    smoothing_only: ParameterPick
    collocation_only: ParameterPick
    trace: list = field(default_factory=list)


def _candidate_factors(a: np.ndarray, damping: np.ndarray, alpha: float) -> np.ndarray:
    """The (L, M+1) candidate table damping * a_k/(alpha + a_k^2).

    Raises NumericalError unless the table is finite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        factors = damping * (a / (alpha + a * a))
    if not np.all(np.isfinite(factors)):
        raise NumericalError(
            f"non-finite solution factors at alpha = {float(alpha)!r} "
            "(a_k^2 underflows or a_k/(alpha + a_k^2) overflows)"
        )
    return factors


#: Fields whose a-priori bound is below this are finite, and so are their
#: differences; above it, the sweep scans the fields.
_FIELD_SCAN_BOUND = np.finfo(float).max / 4


def _check_fields(
    Z: np.ndarray, zmax: np.ndarray, factors: np.ndarray, alpha: float
) -> None:
    """Raise NumericalError unless the fields Z @ factors.T are all finite.

    With zmax[k] = max_t |Z[t, k]|, sum_k |factors[l, k]| zmax[k] bounds
    |fields[t, l]|, so the fields are built and scanned only when that
    bound is not far below the float maximum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.max(np.abs(factors) @ zmax) < _FIELD_SCAN_BOUND:
            return
        fields = Z @ factors.T
    if not np.all(np.isfinite(fields)):
        raise NumericalError(
            f"non-finite candidate fields at alpha = {float(alpha)!r}"
        )


def _nested_pass(
    Z: np.ndarray, zmax: np.ndarray, a: np.ndarray, b: np.ndarray, alphas, lambdas
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Nested quasi-optimality over the fields Z @ factors.T of every pair.

    Per alpha, the inner pass picks lambda by _pruned_quasi_optimal; the
    outer pass compares each alpha's winning field with the previous
    alpha's, so only two fields are kept.  Returns the winning alpha index
    and, per alpha, the winning lambda index, its inner difference and its
    outer difference (NaN for the first alpha).
    """
    damping = 1.0 / (1.0 + np.outer(lambdas, b * b))  # (L, M+1)
    lam_idx = np.empty(len(alphas), dtype=int)
    inner = np.empty(len(alphas))
    outer = np.full(len(alphas), math.nan)
    for i, alpha in enumerate(alphas):
        factors = _candidate_factors(a, damping, alpha)
        lam_idx[i], inner[i], winner = _pruned_quasi_optimal(Z, zmax, factors, alpha)
        if i:
            outer[i] = _sup_difference(winner, previous)
        previous = winner
    return _first_minimum(outer[1:]), lam_idx, inner, outer


def select_two_step(
    samples: np.ndarray,
    rule: CubatureRule,
    symbol: SphericalSymbol,
    beta: PenaltyWeights,
    alpha_grid,
    lambda_grid,
    grid: EvalGrid,
) -> TwoStepSelection:
    """Nested quasi-optimality over (alpha, lambda), plus both one-parameter picks.

    For every alpha on the grid, the inner pass picks lambda(alpha) by
    quasi-optimality over the two-step solutions; the outer pass then picks
    alpha by quasi-optimality over the per-alpha winners.  All differences
    are measured on the solution sphere.  The one-parameter picks are the
    same nested pass on a {0} grid on the other side: the smoothing-only
    pick over (0, lambdas) and the collocation-only pick over (alphas, 0),
    whether or not either grid contains 0.

    Every candidate solution is a per-degree rescaling of one Fourier
    analysis of the samples, so the passes synthesize per-degree field
    sums once and rescale those instead of rebuilding each solution; each
    selected pair is identical to running select_single over explicit
    two_step_solve outputs.  The three picked solutions rescale the same
    analysis, bit-identical to two_step_solve.  Single-element grids are
    allowed: their pass picks the only value.

    Raises NumericalError if the field sums, any candidate's per-degree
    factors or field, or any of the three picked solutions are not finite.
    """
    alphas = grid_values(alpha_grid)
    lambdas = grid_values(lambda_grid)
    M = rule.M
    if radius_mismatch(grid.radius, symbol.R):
        raise ValidationError(
            f"grid radius {grid.radius} does not match solution sphere R={symbol.R}"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = analyze(samples, rule, M)
        solution_shape = coeffs.scaled_by_degree(np.ones(M + 1), radius=symbol.R)
        Z = grid.degree_fields(solution_shape)
    if not np.all(np.isfinite(Z)):
        raise NumericalError("non-finite per-degree field sums of the samples")
    zmax = np.max(np.abs(Z), axis=0)
    a = symbol.a[: M + 1]
    b = beta.beta[: M + 1]

    sweep = functools.partial(_nested_pass, Z, zmax, a, b)
    # alpha = 0 first: an underflowing a_k^2 fails there.
    _, (smoothing_idx,), _, _ = sweep([0.0], lambdas)
    alpha_idx, lam_idx, inner_mins, outer_diffs = sweep(alphas, lambdas)
    collocation_idx, _, _, _ = sweep(alphas, [0.0])

    def pick(alpha, lam) -> ParameterPick:
        solution = _solve_from_coefficients(
            coeffs,
            SmoothingParams(lam=float(lam), beta=beta),
            CollocationParams(alpha=float(alpha), symbol=symbol),
        )
        return ParameterPick(alpha=float(alpha), lam=float(lam), solution=solution)

    nested = pick(alphas[alpha_idx], lambdas[lam_idx[alpha_idx]])
    trace = [
        TraceRecord(
            alpha=float(alphas[j]),
            chosen_lambda=float(lambdas[lam_idx[j]]),
            inner_min_diff=float(inner_mins[j]),
            outer_diff=float(outer_diffs[j]),
        )
        for j in range(len(alphas))
    ]
    return TwoStepSelection(
        alpha=nested.alpha,
        lam=nested.lam,
        solution=nested.solution,
        smoothing_only=pick(0.0, lambdas[smoothing_idx]),
        collocation_only=pick(alphas[collocation_idx], 0.0),
        trace=trace,
    )

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
from .harmonics import _associated_legendre, basis_matrix, radius_mismatch
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

    Built from a CubatureRule (the rule's points, ring by ring) or from a
    plain (T, 3) array of points on a common sphere.  The dense
    (T, (M+1)^2) synthesis matrix is built on the first ``basis`` call for a
    degree and reused, which is what makes repeated sup-norm evaluations
    cheap.  ``degree_fields`` never builds it: it runs a longitude FFT per
    ring of the rule, so it needs a rule-backed grid.  The array form is
    kept for point clouds passed to ``sup_norm`` and ``select_single``.
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
        rescaling of the coefficients then synthesizes as Z @ factors.  The
        rule's points are rings of n_phi = 2(rule.M + 1) longitudes
        phi_l = 2 pi l / n_phi, so per degree one (rings, n_phi/2 + 1)
        table X[:, m] = Q_k^m (c_{k,m} - i c_{k,-m}) / sqrt(2) (X[:, 0] =
        Q_k^0 c_{k,0}) and one inverse real FFT along each ring give the
        column: O(T) working memory per degree, and no dense basis.
        """
        if self.rule is None:
            raise ValidationError(
                "degree_fields needs a rule-backed grid, not a point array"
            )
        M = coeffs.M
        if M > self.rule.M:
            raise ValidationError(
                f"degree {M} exceeds the grid rule's degree {self.rule.M}"
            )
        n_phi = 2 * (self.rule.M + 1)
        # The phi = 0 point of every ring.
        first = self.points[::n_phi] / self.radius
        ct = first[:, 2:]
        st = np.hypot(first[:, :1], first[:, 1:2])
        X = np.zeros((ct.shape[0], n_phi // 2 + 1), dtype=complex)
        Z = np.empty((self.n_points, M + 1))
        half_sqrt2 = math.sqrt(2.0) / 2
        for k, Q in _associated_legendre(M, ct, st):
            row = coeffs.row(k)
            X[:, 0] = Q[:, 0] * row[k]
            if k:
                orders = half_sqrt2 * (row[k + 1 :] - 1j * row[k - 1 :: -1])
                np.multiply(Q[:, 1:], orders, out=X[:, 1 : k + 1])
            # norm="forward" leaves the inverse unscaled: X[:, m] is the
            # coefficient of exp(i m phi) as it stands, with no factor n_phi
            # that could overflow.
            ring_values = np.fft.irfft(X, n=n_phi, axis=1, norm="forward")
            np.divide(ring_values.reshape(-1), self.radius, out=Z[:, k])
        return Z


@functools.lru_cache(maxsize=8)
def default_eval_grid(M: int, R: float) -> EvalGrid:
    """Default uniform-norm grid on sphere_rule(2M, R), one per (M, R).

    Cached, so callers at one (M, R) share the grid and its dense basis.
    """
    return EvalGrid(sphere_rule(2 * M, R))


def sup_norm(c: HarmonicCoefficients, grid: EvalGrid) -> float:
    """Max of |synthesized function| over the grid; approximates the sup norm."""
    if radius_mismatch(grid.radius, c.radius):
        raise ValidationError(
            f"grid radius {grid.radius} does not match coefficients on {c.radius}"
        )
    return float(np.max(np.abs(grid.basis(c.M) @ c.values)))


def _sup_difference(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """max_t |later[t] - earlier[t]|, per column for (T, n) arguments."""
    return np.max(np.abs(later - earlier), axis=0)


def _sup_differences(fields: np.ndarray) -> np.ndarray:
    """d_i = max_t |fields[t, i] - fields[t, i-1]| for consecutive columns."""
    return _sup_difference(fields[:, 1:], fields[:, :-1])


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


def _pruned_quasi_optimal(fields: np.ndarray) -> tuple[int, float]:
    """The winner of _quasi_optimal and its difference, pruning hopeless columns.

    The differences over every 16th row are exact lower bounds on the full
    ones (a maximum over a subset of the same values).  Candidates are
    evaluated in ascending bound order until a bound exceeds the best exact
    difference so far; no later candidate can then win or tie, so the
    winner and its difference are bit-identical to the dense pass.  A
    single column wins with a NaN difference.
    """
    if fields.shape[1] == 1:
        return 0, math.nan
    bounds = _sup_differences(fields[::_BOUND_STRIDE])
    differences = np.full(bounds.size, np.inf)
    best = math.inf
    for i in np.argsort(bounds):
        if bounds[i] > best:
            break
        differences[i] = _sup_differences(fields[:, i : i + 2])[0]
        best = min(best, differences[i])
    chosen = _first_minimum(differences)
    return chosen, float(differences[chosen - 1])


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


def _candidate_factors(
    a: np.ndarray, damping: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Inversion factors a_k/(alpha + a_k^2) and the (L, M+1) candidate table.

    Raises NumericalError unless the table (and so the inversion) is finite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inversion = a / (alpha + a * a)
        factors = damping * inversion
    if not np.all(np.isfinite(factors)):
        raise NumericalError(
            f"non-finite solution factors at alpha = {float(alpha)!r} "
            "(a_k^2 underflows or a_k/(alpha + a_k^2) overflows)"
        )
    return inversion, factors


#: Fields whose a-priori bound is below this are finite, and so are their
#: differences; above it, the sweep scans the fields.
_FIELD_SCAN_BOUND = np.finfo(float).max / 4


def _candidate_fields(
    Z: np.ndarray, zmax: np.ndarray, factors: np.ndarray, alpha: float, out=None
) -> np.ndarray:
    """The candidates' fields Z @ factors.T, checked to be finite.

    With zmax[k] = max_t |Z[t, k]|, sum_k |factors[l, k]| zmax[k] bounds
    |fields[t, l]|, so the fields are scanned only when that bound is not
    far below the float maximum.  Raises NumericalError on a non-finite field.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fields = np.matmul(Z, factors.T, out=out)
        bound = np.max(np.abs(factors) @ zmax)
    if not bound < _FIELD_SCAN_BOUND and not np.all(np.isfinite(fields)):
        raise NumericalError(
            f"non-finite candidate fields at alpha = {float(alpha)!r}"
        )
    return fields


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
    are measured on the solution sphere.  The same sweep also gives the
    smoothing-only pick (the inner pass at alpha = 0) and the
    collocation-only pick (the outer pass over the lambda = 0 solutions),
    whether or not either grid contains 0.

    Every candidate solution is a per-degree rescaling of one Fourier
    analysis of the samples, so the search synthesizes per-degree field
    sums once and rescales those instead of rebuilding each solution; each
    selected pair is identical to running select_single over explicit
    two_step_solve outputs, and the one-parameter pairs are those of a
    degenerate {0} grid on the other side.  The three picked solutions
    rescale the same analysis, bit-identical to two_step_solve.
    Single-element grids are allowed: their pass picks the only value.

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
    damping = 1.0 / (1.0 + np.outer(lambdas, b * b))  # (L, M+1)

    # One (T, L) table, refilled for every alpha.  The outer passes compare
    # each alpha's columns with the previous alpha's, so no (T, A) table of
    # winners is kept; the differences are those of _quasi_optimal.
    fields = np.empty((grid.n_points, len(lambdas)))

    # Smoothing-only: the inner pass at alpha = 0.
    _, direct = _candidate_factors(a, damping, 0.0)
    smoothing_idx, _ = _pruned_quasi_optimal(
        _candidate_fields(Z, zmax, direct, 0.0, out=fields)
    )

    chosen_lams = np.empty(len(alphas))
    inner_mins = np.empty(len(alphas))
    # Row i - 1: sup differences of the winners and of the lambda = 0 fields.
    outer_diffs = np.empty((len(alphas) - 1, 2))
    for i, alpha in enumerate(alphas):
        inversion, factors = _candidate_factors(a, damping, alpha)
        idx, inner_mins[i] = _pruned_quasi_optimal(
            _candidate_fields(Z, zmax, factors, alpha, out=fields)
        )
        chosen_lams[i] = lambdas[idx]
        # The lambda = 0 field is the same matrix-vector product as a {0}
        # lambda grid, which can differ in the last bits from column 0 of
        # the GEMM above.
        columns = np.column_stack(
            (fields[:, idx], _candidate_fields(Z, zmax, inversion, alpha))
        )
        if i:
            outer_diffs[i - 1] = _sup_difference(columns, previous)
        previous = columns
    alpha_idx = _first_minimum(outer_diffs[:, 0])
    collocation_idx = _first_minimum(outer_diffs[:, 1])

    def pick(alpha, lam) -> ParameterPick:
        solution = _solve_from_coefficients(
            coeffs,
            SmoothingParams(lam=float(lam), beta=beta),
            CollocationParams(alpha=float(alpha), symbol=symbol),
        )
        return ParameterPick(alpha=float(alpha), lam=float(lam), solution=solution)

    nested = pick(alphas[alpha_idx], chosen_lams[alpha_idx])
    trace = [
        TraceRecord(
            alpha=float(alphas[j]),
            chosen_lambda=float(chosen_lams[j]),
            inner_min_diff=float(inner_mins[j]),
            outer_diff=math.nan if j == 0 else float(outer_diffs[j - 1, 0]),
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

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
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .collocation import CollocationParams, _solve_from_coefficients
from .errors import NumericalError, ValidationError
from .harmonics import basis_matrix, check_finite, radius_mismatch
from .operators import (
    HarmonicCoefficients,
    SphericalSymbol,
    _parity,
    analyze,
    ring_degree_sums,
    synthesize_stack,
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
        if not isinstance(self.count, numbers.Integral) or self.count < 1:
            raise ValidationError(
                f"grid count must be an integer >= 1, got {self.count!r}"
            )
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
    ``degree_fields`` transform along the rule's rings in longitude, so
    they need a rule-backed grid and never build a dense basis.  The dense
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
        # The radius is the first point's; a later non-finite point fails
        # the shared-radius check.
        check_finite(pts[0], "grid points", "coordinate")
        norms = np.linalg.norm(pts, axis=1)
        radius = float(norms[0])
        if not radius > 0:
            if np.any(pts[0] != 0):
                raise ValidationError(
                    "grid point norms underflow to 0: their squared coordinates "
                    "are below the smallest double"
                )
            raise ValidationError("grid points must be off the origin")
        if radius_mismatch(norms, radius):
            raise ValidationError("grid points must share one sphere radius")
        self.points = pts
        self.radius = radius
        self._basis = {}

    def basis(self, M: int) -> np.ndarray:
        """(T, (M+1)^2) matrix of (1/radius) Y_{k,j}(t/radius) values."""
        B = self._basis.get(M)
        if B is None:
            B = basis_matrix(M, self.points, self.radius)
            self._basis[M] = B
        return B

    def degree_fields(self, coeffs: HarmonicCoefficients) -> np.ndarray:
        """ring_degree_sums on the grid's rule: its first half of rings."""
        return ring_degree_sums(coeffs, self._rule())

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
    values come from synthesize on the grid's rule, one inverse FFT per
    ring.  This is sup_norms' one-set case.
    """
    return float(sup_norms([c], grid)[0])


def sup_norms(stack: Sequence[HarmonicCoefficients], grid: EvalGrid) -> np.ndarray:
    """sup_norm of each coefficient set, from one batched ring synthesis.

    Entry b equals sup_norm(stack[b], grid) bit for bit (synthesize_stack).
    """
    return np.max(np.abs(synthesize_stack(stack, grid._rule())), axis=1)


def _first_minimum(differences: np.ndarray) -> int:
    """Winning column: the i minimizing d_i, ties going to the smallest.

    With no differences (a single column) column 0 wins.
    """
    return int(np.argmin(differences)) + 1 if differences.size else 0


#: Row strides, coarse to fine, of the subsamples whose step maxima bound every
#: d_i from below; each divides the one before, so refined bounds only grow.
_BOUND_STRIDES = (96, 8)
#: Most pairs one round evaluates.
_ROUND_PAIRS = 96
#: Most columns per product.  OpenBLAS sums the last columns of a wider
#: product differently from a narrower one's.
_MAX_WIDTH = 192
#: Most rows, and most entries, per panel product.
_PANEL_ROWS = 1024
_PANEL_ENTRIES = 1024 * 16
#: OpenBLAS runs a product of at most this many entries on its small-product
#: kernel, whose sums differ from the GEMM's once Z has 32 or more columns.
_SMALL_PRODUCT = 1200


def _product_shape(n_rows: int, n_cols: int) -> tuple[int, int]:
    """(height, width) of the panel products over n_rows rows and n_cols factor rows.

    Every product of the sweep takes this shape.  The width pads the
    n_cols <= _MAX_WIDTH factor rows with zero rows to a multiple of 8,
    more where few rows need it to exceed _SMALL_PRODUCT entries; a width
    that is not a multiple of 8 changes the GEMM's sums on some panel
    heights.  Panels hold at most _PANEL_ENTRIES entries.  Given at least
    _SMALL_PRODUCT // _MAX_WIDTH + 1 rows, every panel has more than
    _SMALL_PRODUCT entries.
    """
    width = max(n_cols, _SMALL_PRODUCT // n_rows + 1)
    width = min(_MAX_WIDTH, -(-width // 8) * 8)
    return min(n_rows, _PANEL_ROWS, _PANEL_ENTRIES // width), width


def _panels(n_rows: int, height: int):
    """Row slices of the panel products over range(n_rows), height rows each.

    The last panel ends at n_rows and takes rows of the one before it to
    fill its height, so every panel product has one shape.  The running
    maxima built from the panels do not mind repeated rows.
    """
    for start in range(0, n_rows, height):
        yield slice(max(0, min(start, n_rows - height)), start + height)


def _step_maxima(
    Z: np.ndarray, step: np.ndarray, q: np.ndarray, alpha_idx, pair_idx
) -> np.ndarray:
    """max_t |full @ rows.T| of each step row, full = np.vstack((Z, Z * parity)).

    Row p is step[pair_idx[p]] * q[alpha_idx[p]], and parity = (-1)^k over
    Z's columns: the antipodes of Z's rows (ring_degree_sums) are never
    built, but each row f comes with its copy f * parity, and max_t |Z f|
    and max_t |Z (f * parity)| give the row's maximum.  Only signs flip,
    which is exact, so each value is the same sum of the same terms as
    in the dense product.  Rows go _MAX_WIDTH // 2 at a time: each chunk
    is written as the first columns of a C-contiguous (M+1, width) block,
    its copies as the next ones and zeros after them, and row panels of Z
    (_panels) multiply the block, every product in the shape of
    _product_shape.  Only each column's running maximum of |product| is
    kept, started by the first panel's, so where one panel covers Z (the
    coarse bounds) there is nothing to fill or merge.  On OpenBLAS a
    product of that shape equals its slice of the full GEMM (``sphere-reg
    verify`` checks this), so the maxima are bit-identical to those of the
    dense product full @ rows.T.
    """
    parity = _parity(q.shape[1])
    scratch = np.empty(q.shape[1] * _MAX_WIDTH)
    product, peak = np.empty((2, _PANEL_ENTRIES))
    if len(Z) * _MAX_WIDTH <= _SMALL_PRODUCT:
        # Too few rows for any width: repeat them, which the maxima do not mind.
        Z = Z[np.arange(_SMALL_PRODUCT // _MAX_WIDTH + 1) % len(Z)]
    d = np.empty(len(alpha_idx))
    for start in range(0, len(d), _MAX_WIDTH // 2):
        cols = slice(start, start + _MAX_WIDTH // 2)
        c = len(d[cols])
        height, width = _product_shape(len(Z), 2 * c)
        block = scratch[: q.shape[1] * width].reshape(-1, width)
        np.multiply(step[pair_idx[cols]], q[alpha_idx[cols]], out=block[:, :c].T)
        np.multiply(block[:, :c], parity[:, None], out=block[:, c : 2 * c])
        block[:, 2 * c :] = 0.0
        running = peak[: height * width].reshape(height, width)
        out = product[: height * width].reshape(height, width)
        for i, panel in enumerate(_panels(len(Z), height)):
            target = out if i else running  # the first panel starts the maxima
            np.matmul(Z[panel], block, out=target)
            np.abs(target, out=target)
            if i:
                np.maximum(running, out, out=running)
        maxima = running[:, : 2 * c].max(axis=0)
        np.maximum(maxima[:c], maxima[c:], out=d[cols])
    return d


def _pruned_quasi_optimal(
    Z: np.ndarray, step: np.ndarray, q: np.ndarray, alpha_idx: np.ndarray,
    pair_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-optimal winners of n groups of S steps over Z, no field built.

    Group g's step i is the step row step[pair_idx[g, i]] * q[alpha_idx[g,
    i]], from its row i to row i + 1, and d_{i+1} = max_t |Z @ step row|
    over Z and its antipodes (_step_maxima).  The inner pass has a group of
    L - 1 damping steps per alpha, the outer pass one group of chain steps
    per pick.  One product over every _BOUND_STRIDES[0]-th row of Z and all
    n S step rows, group-major, gives every pair's maximum there, an exact
    lower bound on the full one.  Returns per group the winning row and
    its difference; a group without steps has one row, which wins with a
    NaN difference.  Round 1 evaluates every group's lowest-bound pair on
    all of Z in one product.  Each later round takes up to _ROUND_PAIRS of
    the pending pairs whose bound is at most their group's best difference
    so far, in ascending (bound, group, step) order, until none is left,
    and moves each one stride finer: to a new bound on the next subsample,
    or from the finest to its difference on all of Z, in one product per
    stride.  A pair never evaluated has a bound, and so a difference, above
    one already found: it can neither win nor tie.  Ties go to the smaller
    index, as in _first_minimum.  Every product goes through _step_maxima,
    so winners and differences are bit-identical to the dense step-row
    pass.
    """
    n, S = alpha_idx.shape
    if S == 0:
        return np.zeros(n, dtype=int), np.full(n, math.nan)
    coarse = Z[:: _BOUND_STRIDES[0]]
    bounds = _step_maxima(coarse, step, q, alpha_idx.ravel(), pair_idx.ravel())
    bounds = bounds.reshape(n, S)
    strides = _BOUND_STRIDES[1:] + (1,)  # a pair at level k goes to Z[::strides[k]]
    level = np.zeros(bounds.shape, dtype=int)  # len(strides) once evaluated
    chosen = np.full(n, S + 1)  # above every index, so the first pair wins even at inf
    best = np.full(n, math.inf)
    groups, pairs = np.arange(n), np.argmin(bounds, axis=1)
    level[groups, pairs] = len(strides) - 1  # round 1 goes to all of Z
    while groups.size:
        at = level[groups, pairs]
        level[groups, pairs] += 1
        for k in sorted(set(at.tolist())):  # np.unique's first call costs 1 MB of RSS
            g, p = groups[at == k], pairs[at == k]
            d = _step_maxima(Z[:: strides[k]], step, q, alpha_idx[g, p], pair_idx[g, p])
            if strides[k] > 1:
                bounds[g, p] = d
                continue
            for j, i, dj in zip(g.tolist(), p.tolist(), d.tolist()):
                if dj < best[j] or (dj == best[j] and i + 1 < chosen[j]):
                    chosen[j], best[j] = i + 1, dj
        groups, pairs = np.nonzero((level < len(strides)) & (bounds <= best[:, None]))
        # lexsort sorts by its last key first: bound, then group, then pair.
        order = np.lexsort((pairs, groups, bounds[groups, pairs]))
        batch = order[:_ROUND_PAIRS]
        groups, pairs = groups[batch], pairs[batch]
    return chosen, best


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

    fields = grid.basis(M) @ np.column_stack([s.values for s in solutions])
    differences = np.abs(np.diff(fields, axis=1)).max(axis=0)
    chosen = _first_minimum(differences)
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

    ``smoothing_only`` is quasi-optimality over lambda at alpha = 0, the
    nested pass's inner pick on its alpha = 0 row; ``collocation_only`` is
    quasi-optimality over alpha at lambda = 0, the same pass's outer pick
    over its lambda = 0 rows.  ``trace`` is empty unless select_two_step
    was asked for it.
    """

    smoothing_only: ParameterPick
    collocation_only: ParameterPick
    trace: list = field(default_factory=list)


#: Fields whose a-priori bound is below this are finite, and so are their
#: differences; above it, the sweep scans the fields.
_FIELD_SCAN_BOUND = np.finfo(float).max / 4


def _check_candidates(
    Z: np.ndarray, zmax: np.ndarray, damping: np.ndarray, q: np.ndarray, alphas
) -> None:
    """Raise NumericalError at the first alpha, in order, with a non-finite candidate.

    Alpha j's factor table is damping * q[j].  Finite damping lies in
    [0, 1], so the table is finite exactly when damping and q[j] are.
    With zmax[k] = max_t |Z[t, k]|, max_l sum_k damping[l, k] |q[j, k]|
    zmax[k] bounds its fields |Z @ table.T| and their antipodes' |Z @
    (table * parity).T| (_step_maxima), so an alpha's fields are built and
    scanned only when that bound is not far below the float maximum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(q).all(axis=1) & np.isfinite(damping).all()
        bounds = np.max(damping @ (np.abs(q) * zmax).T, axis=0)
        for j in np.flatnonzero(~finite | ~(bounds < _FIELD_SCAN_BOUND)):
            alpha = float(alphas[j])
            if not finite[j]:
                raise NumericalError(
                    f"non-finite solution factors at alpha = {alpha!r} "
                    "(a_k^2 underflows or a_k/(alpha + a_k^2) overflows)"
                )
            table = damping * q[j]
            both = np.vstack((table, table * _parity(len(zmax))))
            if not np.all(np.isfinite(Z @ both.T)):
                raise NumericalError(f"non-finite candidate fields at alpha = {alpha!r}")


def _nested_pass(
    Z: np.ndarray, zmax: np.ndarray, a: np.ndarray, b: np.ndarray, alphas, lambdas,
    first: int = 0, trace: bool = True,
) -> tuple[np.ndarray, np.ndarray, list, np.ndarray | None]:
    """Nested quasi-optimality over the fields Z @ factors.T of every pair.

    Alpha j's factor rows are damping[i] * q[j] with q = a/(alpha + a^2).
    After the checks (_check_candidates: every pair, then the lambda = 0
    rows of the outer alphas, alphas[first:]), _pruned_quasi_optimal picks
    every alpha's lambda from one bound product and rounds over the whole
    grid, a group of damping steps per alpha.  One chain serves both outer
    passes: its step rows are np.diff of the outer alphas' winner rows,
    then np.diff of their lambda = 0 rows, taken with a ones row as q,
    which keeps their bits.  With trace, one product over all of Z gives
    every chain difference and the picks are their _first_minimum; without
    it, _pruned_quasi_optimal picks from the chain's two groups, with the
    same bits and ties.  Damping row 0 is lambda = 0, prepended when the
    lambda grid lacks it, with the penalty 0 b b of SmoothingParams.damping:
    exactly 0, also where b^2 overflows.  No field is kept.  A single
    lambda takes the same path: each alpha's only row wins with a NaN inner
    difference, and no bound or pair product is formed.  Returns per alpha
    the winning lambda index and its inner difference, the outer picks of
    the winners and of the lambda = 0 rows (indices into alphas[first:]),
    and with trace their (2, outer alphas) differences, NaN for the first,
    else None.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    shift = int(lambdas[0] != 0)  # rows of damping before lambdas[0]
    alphas = np.asarray(alphas, dtype=float)
    # An overflowing lam b^2 damps to 0, its limit; _check_candidates names
    # any non-finite factor.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        penalty = np.outer(np.append(np.zeros(shift), lambdas), b * b)
        penalty[0] = 0.0 * b * b
        damping = 1.0 / (1.0 + penalty)
        q = a / (alphas[:, None] + a * a)  # (n, M+1)
    _check_candidates(Z, zmax, damping[shift:], q, alphas)
    _check_candidates(Z, zmax, damping[:1], q[first:], alphas[first:])
    step = np.diff(damping[shift:], axis=0)
    lam_idx, inner = _pruned_quasi_optimal(Z, step, q, *np.indices((len(q), len(step))))
    rows = np.stack((damping[lam_idx[first:] + shift] * q[first:], damping[0] * q[first:]))
    chain = np.diff(rows, axis=1).reshape(-1, len(b))
    steps = np.arange(len(chain)).reshape(2, -1)
    ones = np.ones((1, len(b)))
    if not trace:
        picks, _ = _pruned_quasi_optimal(Z, chain, ones, np.zeros_like(steps), steps)
        return lam_idx, inner, picks.tolist(), None
    d = _step_maxima(Z, chain, ones, np.zeros(len(chain), int), steps.ravel())
    outer = np.full((2, rows.shape[1]), math.nan)
    outer[:, 1:] = d.reshape(2, -1)
    return lam_idx, inner, [_first_minimum(diffs[1:]) for diffs in outer], outer


def select_two_step(
    samples: np.ndarray,
    rule: CubatureRule,
    symbol: SphericalSymbol,
    beta: PenaltyWeights,
    alpha_grid,
    lambda_grid,
    grid: EvalGrid,
    trace: bool = True,
) -> TwoStepSelection:
    """Nested quasi-optimality over (alpha, lambda), plus both one-parameter picks.

    For every alpha on the grid, the inner pass picks lambda(alpha) by
    quasi-optimality over the two-step solutions; the outer pass then picks
    alpha by quasi-optimality over the per-alpha winners.  All differences
    are measured on the solution sphere.  One nested pass (_nested_pass)
    gives all three picks, equal to those of separate calls on a {0} grid
    on the other side, whether or not either grid contains 0: the
    smoothing-only pick over (0, lambdas) is the inner pick of the alpha =
    0 row, prepended when the alpha grid lacks 0 and kept out of the outer
    pass, and the collocation-only pick over (alphas, 0) is the outer pick
    over the lambda = 0 rows.

    Every candidate solution is a per-degree rescaling of one Fourier
    analysis of the samples, so the passes synthesize per-degree field
    sums once and rescale those instead of rebuilding each solution; each
    selected pair is identical to running select_single over explicit
    two_step_solve outputs.  The three picked solutions rescale the same
    analysis, bit-identical to two_step_solve.  Single-element grids are
    allowed: their pass picks the only value.

    With ``trace`` (the default) the result's trace holds one TraceRecord
    per alpha, every outer difference included, from one product over the
    whole outer chain.  Without it the trace is empty and the outer picks
    come from the pruned pass, which evaluates only the chain steps that
    can win or tie: the same picks, for less work.

    Raises ValidationError, with two_step_solve's message, if beta or the
    symbol covers fewer degrees than the rule or the rule is off the
    symbol's data sphere, with synthesize's if the grid is not a rule on
    the sphere R, and NumericalError if the field sums, any candidate's
    per-degree factors or field, or any of the three picked solutions are
    not finite.
    """
    alphas = grid_values(alpha_grid)
    lambdas = grid_values(lambda_grid)
    M = rule.M
    # two_step_solve's checks of beta, the data sphere and the symbol, in its
    # order, before any transform.
    if beta.M < M:
        raise ValidationError(f"beta covers degrees 0..{beta.M}, need 0..{M}")
    if radius_mismatch(rule.rho, symbol.rho):
        raise ValidationError(
            f"input lives on radius {rule.rho}, symbol expects rho={symbol.rho}"
        )
    if symbol.M < M:
        raise ValidationError(f"symbol covers degrees 0..{symbol.M}, need 0..{M}")

    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = analyze(samples, rule, M)
        solution_shape = coeffs.scaled_by_degree(np.ones(M + 1), radius=symbol.R)
        Z = grid.degree_fields(solution_shape)
    # max |Z| per column without a Z-sized temporary, over the rings first
    # (long rows reduce faster than Z's short ones); NaN or inf anywhere in
    # Z makes its column's entry non-finite.  The antipodes' values differ
    # only in sign.
    by_ring = Z.reshape(-1, 2 * (grid.rule.M + 1) * (M + 1))
    zmax = np.maximum(by_ring.max(axis=0), -by_ring.min(axis=0))
    zmax = zmax.reshape(-1, M + 1).max(axis=0)
    if not np.all(np.isfinite(zmax)):
        raise NumericalError("non-finite per-degree field sums of the samples")

    # alpha = 0 first, prepended when the grid lacks it: an underflowing
    # a_k^2 fails there, and its row gives the smoothing-only pick.
    first = int(alphas[0] != 0)
    lam_idx, inner_mins, (alpha_idx, collocation_idx), outer = _nested_pass(
        Z, zmax, symbol.a[: M + 1], beta.beta[: M + 1],
        np.append(np.zeros(first), alphas), lambdas, first, trace,
    )
    smoothing_idx = lam_idx[0]
    lam_idx, inner_mins = lam_idx[first:], inner_mins[first:]

    def pick(alpha, lam) -> ParameterPick:
        solution = _solve_from_coefficients(
            coeffs,
            SmoothingParams(lam=float(lam), beta=beta),
            CollocationParams(alpha=float(alpha), symbol=symbol),
        )
        return ParameterPick(alpha=float(alpha), lam=float(lam), solution=solution)

    nested = pick(alphas[alpha_idx], lambdas[lam_idx[alpha_idx]])
    records = [] if outer is None else [
        TraceRecord(
            alpha=float(alphas[j]),
            chosen_lambda=float(lambdas[lam_idx[j]]),
            inner_min_diff=float(inner_mins[j]),
            outer_diff=float(outer[0, j]),
        )
        for j in range(len(alphas))
    ]
    return TwoStepSelection(
        alpha=nested.alpha,
        lam=nested.lam,
        solution=nested.solution,
        smoothing_only=pick(0.0, lambdas[smoothing_idx]),
        collocation_only=pick(alphas[collocation_idx], 0.0),
        trace=records,
    )

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sphere_reg import (
    CollocationParams,
    EvalGrid,
    HarmonicCoefficients,
    NumericalError,
    ParameterGrid,
    PenaltyWeights,
    SmoothingParams,
    ValidationError,
    analyze,
    basis_matrix,
    default_eval_grid,
    select_single,
    select_two_step,
    sphere_rule,
    sup_norm,
    symbol_preset,
    synthesize,
    two_step_solve,
)
from sphere_reg import experiments as ex
from sphere_reg import selection
from sphere_reg.selection import (
    _BOUND_STRIDES,
    _MAX_WIDTH,
    _PANEL_ENTRIES,
    _PANEL_ROWS,
    _ROUND_PAIRS,
    _SMALL_PRODUCT,
    ParameterPick,
    _first_minimum,
    _nested_pass,
    _panels,
    _product_shape,
    _pruned_quasi_optimal,
    _step_maxima,
    expand_grid,
    grid_values,
    sup_norms,
)
from sphere_reg.operators import _parity, synthesize_stack
from sphere_reg.verify import _stacked_product
from conftest import at_points, ring_spectra


def linear_beta(M):
    return PenaltyWeights(beta=np.arange(M + 1, dtype=float) + 1.0)


class TestExpandGrid:
    def test_standard_grid_from_the_protocol(self):
        g = ParameterGrid(base=1.78e-5, factor=1.25, count=50)
        values = expand_grid(g)
        assert len(values) == 51
        assert values[0] == 1.78e-5
        assert values[-1] == pytest.approx(1.78e-5 * 1.25**50, rel=1e-14)
        assert values[-1] == pytest.approx(1.247, rel=1e-2)

    def test_zero_prepended_exactly(self):
        g = ParameterGrid(base=1.78e-5, factor=1.25, count=50, include_zero=True)
        values = expand_grid(g)
        assert len(values) == 52
        assert values[0] == 0.0

    def test_small_grid(self):
        np.testing.assert_allclose(
            expand_grid(ParameterGrid(base=1.0, factor=2.0, count=3)),
            [1.0, 2.0, 4.0, 8.0],
        )

    def test_invalid_grids(self):
        with pytest.raises(ValidationError):
            ParameterGrid(base=0.0, factor=2.0, count=3)
        with pytest.raises(ValidationError):
            ParameterGrid(base=1.0, factor=1.0, count=3)
        with pytest.raises(ValidationError):
            ParameterGrid(base=1.0, factor=2.0, count=0)
        with pytest.raises(ValidationError, match="integer"):
            ParameterGrid(base=1.0, factor=2.0, count=2.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_grids(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            ParameterGrid(base=bad, factor=2.0, count=3)
        with pytest.raises(ValidationError, match="finite"):
            ParameterGrid(base=1.0, factor=bad, count=3)
        with pytest.raises(ValidationError, match="finite"):
            grid_values([0.0, 1.0, bad])

    def test_overflowing_top_value_rejected(self):
        assert expand_grid(ParameterGrid(base=1.0, factor=2.0, count=1023))[-1] == 2.0**1023
        for base, factor, count in [(1.0, 2.0, 1024), (1e-5, 1e100, 4), (1e-300, 1e10, 40)]:
            with pytest.raises(ValidationError, match="overflows"):
                ParameterGrid(base=base, factor=factor, count=count)

    def test_explicit_sequences(self):
        np.testing.assert_array_equal(grid_values([0.0]), [0.0])
        np.testing.assert_array_equal(grid_values([0.0, 0.5, 1.0]), [0.0, 0.5, 1.0])
        with pytest.raises(ValidationError):
            grid_values([1.0, 0.5])
        with pytest.raises(ValidationError):
            grid_values([-1.0, 0.5])
        with pytest.raises(ValidationError):
            grid_values([])


class TestSupNorm:
    def test_constant_function(self, grid_m6):
        c = HarmonicCoefficients(M=6, radius=1.0, values=np.zeros(49))
        c.values[0] = math.sqrt(4.0 * math.pi)
        assert sup_norm(c, grid_m6) == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement(self, rng):
        M = 5
        c = HarmonicCoefficients(M=M, radius=1.0, values=rng.standard_normal(36))
        coarse = sup_norm(c, EvalGrid(sphere_rule(4 * M, 1.0)))
        fine = sup_norm(c, EvalGrid(sphere_rule(8 * M, 1.0)))
        assert abs(fine - coarse) <= 0.01 * fine

    def test_point_array_grid_matches_rule_grid(self, rng):
        # The array form stays for select_single's point clouds, where it
        # gives the same bits as the rule-backed grid; sup_norm runs ring
        # FFTs and refuses it.
        rule = sphere_rule(12, 1.0)
        sols = [
            HarmonicCoefficients(M=6, radius=1.0, values=rng.standard_normal(49))
            for _ in range(3)
        ]
        cloud, ringed = EvalGrid(rule.points), EvalGrid(rule)
        with pytest.raises(ValidationError, match="rule-backed"):
            sup_norm(sols[0], cloud)
        np.testing.assert_array_equal(
            select_single(sols, cloud).differences,
            select_single(sols, ringed).differences,
        )

    def test_radius_mismatch(self, grid_m6):
        c = HarmonicCoefficients(M=6, radius=2.0, values=np.zeros(49))
        with pytest.raises(ValidationError):
            sup_norm(c, grid_m6)

    def test_nan_point_rejected(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, math.nan, 0.0]])
        with pytest.raises(ValidationError, match="share one sphere radius"):
            EvalGrid(pts)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_first_point_named(self, value):
        # The radius comes from the first point: it is refused as non-finite,
        # not as on the origin or off the other points' sphere.
        pts = np.array([[value, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(
            ValidationError,
            match=f"^grid points must be finite, got coordinate_0 = {value!r}$",
        ):
            EvalGrid(pts)

    @pytest.mark.parametrize("M", [0, 1, 5, 30])
    @pytest.mark.parametrize("R", [1.0, 1.7])
    def test_matches_the_dense_maximum(self, rng, M, R):
        # The ring synthesis against the dense basis it replaces.
        grid = EvalGrid(sphere_rule(2 * M, R))
        c = HarmonicCoefficients(
            M=M, radius=R, values=rng.standard_normal((M + 1) ** 2)
        )
        dense = np.max(np.abs(basis_matrix(M, grid.points, R) @ c.values))
        assert sup_norm(c, grid) == pytest.approx(dense, rel=1e-13)
        assert grid._basis == {}


def ring_synthesis(c, rule):
    """synthesize for one coefficient set on unbatched (rings, n_phi/2 + 1) tables."""
    n_phi = 2 * (rule.M + 1)
    spectra = np.zeros((rule.M + 1, n_phi // 2 + 1), dtype=complex)
    for k, X in ring_spectra(c.values[None], c.M, rule):
        spectra[:, : k + 1] += X[0, :, : k + 1]
    return np.fft.irfft(spectra, n=n_phi, axis=1, norm="forward").reshape(-1) / c.radius


class TestBatchedSupNorms:
    @pytest.mark.parametrize("M", [0, 30])
    @pytest.mark.parametrize("B", [1, 4])
    def test_batched_sup_norms_equal_single_calls(self, rng, M, B):
        grid = default_eval_grid(M, 1.3)
        stack = [
            HarmonicCoefficients(M=M, radius=1.3, values=rng.standard_normal((M + 1) ** 2))
            for _ in range(B)
        ]
        bits = lambda values: np.asarray(values, dtype=float).view(np.uint64)
        np.testing.assert_array_equal(
            bits(sup_norms(stack, grid)), bits([sup_norm(c, grid) for c in stack])
        )
        values = synthesize_stack(stack, grid.rule)
        for b, c in enumerate(stack):
            np.testing.assert_array_equal(bits(values[b]), bits(synthesize(c, grid.rule)))
            np.testing.assert_array_equal(bits(values[b]), bits(ring_synthesis(c, grid.rule)))

    def test_sets_of_other_degree_or_radius_rejected(self, rng):
        grid = default_eval_grid(3, 1.0)
        c = HarmonicCoefficients(M=3, radius=1.0, values=rng.standard_normal(16))
        for other in (
            HarmonicCoefficients(M=2, radius=1.0, values=np.ones(9)),
            HarmonicCoefficients(M=3, radius=2.0, values=np.ones(16)),
        ):
            with pytest.raises(ValidationError, match="share degree and radius"):
                sup_norms([c, other], grid)


def sup_differences(fields):
    """d_i = max_t |fields[t, i] - fields[t, i-1]| for consecutive columns."""
    return np.abs(np.diff(fields, axis=1)).max(axis=0)


def quasi_optimal(fields):
    """Quasi-optimal column of a (T, L) table of fields, ascending parameter.

    The dense oracle of the pruned pass: returns the winning column and
    every difference d_i, i = 1..L-1.  A single column wins with no
    differences.
    """
    differences = sup_differences(fields)
    return _first_minimum(differences), differences


class TestQuasiOptimal:
    def test_single_column_wins_without_differences(self):
        idx, diffs = quasi_optimal(np.array([[1.0], [2.0]]))
        assert idx == 0
        assert diffs.shape == (0,)

    def test_smallest_sup_difference_wins(self):
        # column differences: sup 3, sup 0.5, sup 2
        fields = np.array([[0.0, 3.0, 3.5, 1.5], [0.0, -1.0, -1.2, -1.0]])
        idx, diffs = quasi_optimal(fields)
        np.testing.assert_allclose(diffs, [3.0, 0.5, 2.0])
        assert idx == 2

    def test_ties_go_to_the_smallest_index(self):
        fields = np.array([[0.0, 1.0, 2.0, 3.0]])
        idx, diffs = quasi_optimal(fields)
        np.testing.assert_array_equal(diffs, [1.0, 1.0, 1.0])
        assert idx == 1


#: Panel height that splits the small tables below into several panels,
#: the last one overlapping the one before it for most row counts.
FEW_ROWS = 3


def full_height(Z):
    """Field sums Z over half the points with their antipodes' rows below.

    The antipodes' values are Z's times the degree parity (ring_degree_sums):
    the table the sweep's maxima reduce over.
    """
    return np.vstack((Z, Z * _parity(Z.shape[1])))


def kernel(Z, L, spread=2):
    """The pruned kernel over n = Z.shape[1] // L alphas' (T, L) tables side by side.

    Z is its own field sums: alpha j's factor row i, damping[i] * q[j], is
    the unit row of column spread (j L + i) of a table holding Z's columns
    there and zeros between, so its fields are those columns, exactly.  At
    spread 2 each column is of even degree, so its antipodes' values equal
    its own and the kernel reduces over Z, as the hand-built tables below
    need.  At spread 1 odd columns flip sign on the antipodes, and the
    kernel reduces over full_height(Z).
    """
    n = Z.shape[1] // L
    table, damping, q = (np.zeros((rows, spread * Z.shape[1])) for rows in (len(Z), L, n))
    table[:, ::spread] = Z
    damping[:, ::spread] = np.tile(np.eye(L), n)
    q[:, ::spread] = np.repeat(np.eye(n), L, axis=1)
    return _pruned_quasi_optimal(table, damping, q)


def few_row_kernel(Z, L, spread=2):
    """The pruned kernel's winners and differences, with panels of FEW_ROWS rows."""
    with mock.patch.object(selection, "_PANEL_ROWS", FEW_ROWS):
        return kernel(Z, L, spread)


def kernel_fields(Z, spread):
    """The table kernel(Z, L, spread) reduces over: Z, or Z over its antipodes."""
    return Z if spread == 2 else full_height(Z)


def pruned(fields, spread=2):
    """The pruned kernel on one alpha's (T, L) table.

    Returns the winner and its difference, after checking that panels of
    FEW_ROWS rows and of the default height give the same ones.
    """
    L = fields.shape[1]
    (idx,), (diff,) = chosen, best = few_row_kernel(fields, L, spread)
    default = kernel(fields, L, spread)
    np.testing.assert_array_equal(default[0], chosen)
    np.testing.assert_array_equal(default[1], best)
    return int(idx), float(diff)


def evaluation_order(fields):
    """Pair order of the pruned pass: ascending coarsest-subsample bound."""
    return np.argsort(sup_differences(fields[:: _BOUND_STRIDES[0]])).tolist()


def assert_pruned_matches_dense(fields, spread=2):
    """The dense full-reduction kernel is the oracle for the pruned one."""
    idx, diff = pruned(fields, spread)
    ref_idx, ref_diffs = quasi_optimal(kernel_fields(fields, spread))
    assert idx == ref_idx
    if ref_diffs.size:
        assert diff == ref_diffs[ref_idx - 1]
    else:
        assert math.isnan(diff)


ELEMENTS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(
    -1e3, 1e3, allow_nan=False
)


def draw_table(draw, T, L):
    """A (T, L) table with few distinct values (ties) and repeated columns."""
    columns = [draw(arrays(float, T, elements=ELEMENTS))]
    for _ in range(L - 1):
        if draw(st.booleans()):
            columns.append(columns[-1].copy())
        else:
            columns.append(draw(arrays(float, T, elements=ELEMENTS)))
    return np.column_stack(columns)


@st.composite
def field_tables(draw):
    """(T, L) tables with few distinct values (ties) and repeated columns."""
    return draw_table(draw, draw(st.integers(1, 40)), draw(st.integers(1, 6)))


@st.composite
def alpha_grids(draw):
    """Up to 12 alphas' (T, L) tables, side by side in one (T, n L) table."""
    T, L = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    return L, np.hstack([draw_table(draw, T, L) for _ in range(n)])


class TestPrunedQuasiOptimal:
    @given(fields=field_tables(), spread=st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_kernel(self, fields, spread):
        assert_pruned_matches_dense(fields, spread)

    def test_one_and_two_columns(self):
        idx, diff = pruned(np.array([[1.0], [2.0]]))
        assert idx == 0 and math.isnan(diff)
        fields = np.array([[0.0, 3.0], [1.0, -1.0]])
        assert pruned(fields) == (1, 3.0)
        assert_pruned_matches_dense(fields)

    def test_forced_ties_go_to_the_smallest_index(self):
        fields = np.tile([0.0, 1.0, 2.0, 1.0, 2.0], (40, 1))
        assert pruned(fields) == (1, 1.0)
        assert_pruned_matches_dense(fields)

    def test_tie_with_a_larger_bound_at_the_smaller_index(self):
        # d_1 = 1 peaks on the subsample; d_2 = 1 peaks off it at row 5, so
        # its bound (0.5) is smaller and it is evaluated first.
        fields = np.zeros((40, 3))
        fields[:, 1] = 1.0
        fields[:, 2] = 1.5
        fields[5, 2] = 2.0
        assert evaluation_order(fields) == [1, 0]
        assert pruned(fields) == (1, 1.0)
        assert_pruned_matches_dense(fields)

    def test_winner_is_not_the_first_pair_evaluated(self):
        # Pair (2, 3) has the smallest bound (0.125) but peaks at 3 off the
        # subsamples; pair (0, 1), evaluated next in one product with pair
        # (1, 2) (bound 2), wins with 1.
        fields = np.zeros((40, 4))
        fields[:, 1] = 1.0
        fields[:, 2] = 3.0
        fields[:, 3] = 3.125
        fields[7, 3] = 6.0
        assert evaluation_order(fields) == [2, 0, 1]
        assert pruned(fields) == (1, 1.0)
        assert_pruned_matches_dense(fields)

    def test_equal_difference_at_a_smaller_index_evaluated_later(self):
        # Bounds 0.5, 0.375 and 0.25.  d_3 = 0.5 peaks off the subsample and
        # is evaluated first; d_2 = 1 follows, then d_1 = 0.5 at a smaller
        # index takes the tie.  All values are exact in binary.
        fields = np.zeros((40, 4))
        fields[:, 1] = 0.5
        fields[:, 2] = 0.875
        fields[3, 2] = 1.5
        fields[:, 3] = fields[:, 2] + 0.25
        fields[9, 3] = fields[9, 2] + 0.5
        assert evaluation_order(fields) == [2, 1, 0]
        assert pruned(fields) == (1, 0.5)
        assert_pruned_matches_dense(fields)

    def test_duplicate_columns_win_with_zero_difference(self):
        rng = np.random.default_rng(5)
        fields = rng.standard_normal((50, 6))
        fields[:, 4] = fields[:, 3]
        fields[:, 2] = fields[:, 1]
        assert pruned(fields) == (2, 0.0)
        assert_pruned_matches_dense(fields)

    def test_maxima_off_the_subsample(self):
        # Row 0 is the coarse subsample, rows 0, 8, ..., 32 the fine one.
        # Column pair (0, 1) looks best on them but peaks at row 5; the
        # winner (2, 3) peaks at row 9.
        fields = np.zeros((40, 4))
        fields[:, 1] = 0.01
        fields[5, 1] = 5.0
        fields[:, 2] = 0.5
        fields[:, 3] = 0.6
        fields[9, 3] = 2.5
        assert pruned(fields) == (3, 2.0)
        assert_pruned_matches_dense(fields)

    def test_pair_dropped_by_its_refined_bound(self):
        # Rows 0, 96 and 192 are the coarse subsample, every 8th row the
        # fine one.  Pair (0, 1) has the lowest coarse bound (0.25) and wins
        # round 1 with 1, peaking at row 5 off both subsamples.  Pair (1, 2)
        # has coarse bound 0.5 but peaks with 3 at row 8, on the fine
        # subsample only: it is refined and dropped, never evaluated on all
        # rows.  Pair (2, 3) has bound 2 and is dropped unrefined.
        assert _BOUND_STRIDES == (96, 8)
        fields = np.zeros((200, 4))
        fields[:, 1] = 0.25
        fields[5, 1] = 1.0
        fields[:, 2] = fields[:, 1] + 0.5
        fields[8, 2] = fields[8, 1] + 3.0
        fields[:, 3] = fields[:, 2] + 2.0
        refined, evaluated = [], []
        real = selection._step_maxima

        def record(Z, step, q, alpha_idx, pair_idx):
            {25: refined, 200: evaluated}.get(len(Z), []).extend(pair_idx.tolist())
            return real(Z, step, q, alpha_idx, pair_idx)

        with mock.patch.object(selection, "_step_maxima", record):
            chosen, best = kernel(fields, 4)
        assert (refined, evaluated) == ([1], [0])
        ref_idx, ref_diffs = quasi_optimal(fields)
        assert (chosen[0], best[0]) == (ref_idx, ref_diffs[ref_idx - 1]) == (1, 1.0)

    @pytest.mark.parametrize("T", [1, 2, 15])
    def test_fewer_rows_than_the_stride(self, T):
        fields = np.random.default_rng(T).standard_normal((T, 7))
        for spread in (1, 2):
            assert_pruned_matches_dense(fields, spread)

    def test_equal_bounds_over_several_rounds_reach_every_pair(self):
        # Eleven pairs share one bound; all but pair 9 peak off the
        # subsamples at row 5.  Round 1 takes pair 0, round 2 refines the
        # other ten and round 3 evaluates them, in pair order; the winner
        # is the last but one of them.
        steps = np.ones((40, 11))
        steps[5, :] = 2.0
        steps[5, 9] = 1.0
        fields = np.hstack([np.zeros((40, 1)), np.cumsum(steps, axis=1)])
        assert pruned(fields) == (10, 1.0)
        assert_pruned_matches_dense(fields)

    def test_overflowing_differences_match_dense_kernel(self):
        # Finite fields whose differences overflow: the first pair evaluated
        # must still win an all-inf tie, as in _first_minimum.
        big = np.finfo(float).max
        fields = np.array([[big, -big, big], [0.0, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert pruned(fields) == (1, math.inf)
            assert_pruned_matches_dense(fields)

    @given(grid=alpha_grids(), spread=st.sampled_from([1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_alpha_grids_match_dense_kernel(self, grid, spread):
        # Several alphas share round 1 and the later rounds' products; each
        # alpha's winner is still the dense kernel's on its own table.
        L, Z = grid
        chosen, best = few_row_kernel(Z, L, spread)
        fields = kernel_fields(Z, spread)
        for j in range(Z.shape[1] // L):
            ref_idx, ref_diffs = quasi_optimal(fields[:, j * L : (j + 1) * L])
            assert chosen[j] == ref_idx
            if ref_diffs.size:
                assert best[j] == ref_diffs[ref_idx - 1]
            else:
                assert math.isnan(best[j])

    def test_rounds_of_more_pending_pairs_than_one_product_takes(self):
        # Two alphas of 120 pairs that all share one bound; every pair but
        # one per alpha peaks off the subsamples at row 5.  Round 1 takes
        # each alpha's pair 0; the 238 pending pairs then take three
        # full-height products of at most _ROUND_PAIRS, each after the round
        # that refines its pairs, and each alpha's winner is in the last.
        steps = np.ones((40, 120))
        steps[5, :] = 2.0
        tables = []
        for winner in (117, 110):
            s = steps.copy()
            s[5, winner] = 1.0
            tables.append(np.hstack([np.zeros((40, 1)), np.cumsum(s, axis=1)]))
        Z = np.hstack(tables)
        widths = []
        real = selection._step_maxima

        def record(Z, step, q, alpha_idx, pair_idx):
            if len(Z) == 40:
                widths.append(len(alpha_idx))
            return real(Z, step, q, alpha_idx, pair_idx)

        with mock.patch.object(selection, "_step_maxima", record):
            chosen, best = kernel(Z, 121)
        assert widths == [2, _ROUND_PAIRS, _ROUND_PAIRS, 46]
        np.testing.assert_array_equal(chosen, [118, 111])
        np.testing.assert_array_equal(best, [1.0, 1.0])
        for j in range(2):
            assert_pruned_matches_dense(Z[:, j * 121 : (j + 1) * 121])

    def test_round_one_of_more_alphas_than_one_product_takes(self):
        # 200 alphas' first pairs are 200 step rows: round 1 takes three
        # chunks, of _MAX_WIDTH // 2, _MAX_WIDTH // 2 and 8 step rows, each
        # beside its parity copies.
        Z = np.random.default_rng(9).standard_normal((50, 200 * 3))
        for spread in (1, 2):
            chosen, best = kernel(Z, 3, spread)
            fields = kernel_fields(Z, spread)
            for j in range(200):
                ref_idx, ref_diffs = quasi_optimal(fields[:, 3 * j : 3 * j + 3])
                assert (chosen[j], best[j]) == (ref_idx, ref_diffs[ref_idx - 1])

    @pytest.mark.parametrize("n_rows", [7, 8, 50, 128, 466, 1000, 1024, 7442])
    def test_every_product_shape_follows_the_rule(self, n_rows):
        # Widths a multiple of 8 up to _MAX_WIDTH; panels within the buffer
        # and above the small-product kernel's size.
        for n_cols in range(2, _MAX_WIDTH + 1):
            height, width = _product_shape(n_rows, n_cols)
            assert width % 8 == 0 and n_cols <= width <= _MAX_WIDTH
            assert height == min(n_rows, _PANEL_ROWS, _PANEL_ENTRIES // width)
            assert _SMALL_PRODUCT < height * width <= _PANEL_ENTRIES

    @pytest.mark.parametrize("height", [2, FEW_ROWS, 7, _PANEL_ROWS])
    @pytest.mark.parametrize("T", [1, 2, 3, 8, 15, 22])
    def test_panels_cover_every_row_at_full_height(self, T, height):
        # A short remainder would run on another BLAS kernel; the last panel
        # takes rows of the one before it instead.
        panels = [range(T)[p] for p in _panels(T, height)]
        assert sorted(set().union(*panels)) == list(range(T))
        assert all(len(p) == min(T, height) for p in panels)
        assert len(panels) == -(-T // height)


def single_mode(M, amplitude):
    c = HarmonicCoefficients(M=M, radius=1.0, values=np.zeros((M + 1) ** 2))
    c.values[2] = amplitude  # the (1, 2) mode
    return c


class TestSelectSingle:
    def test_zero_difference_wins(self, grid_m6):
        c = single_mode(6, 1.0)
        c_far = single_mode(6, 5.0)
        result = select_single([c, c, c_far], grid_m6)
        assert result.chosen_index == 1
        assert result.differences[0] == 0.0
        assert result.solution is c

    def test_two_solutions_pick_the_second(self, grid_m6):
        result = select_single([single_mode(6, 1.0), single_mode(6, 1.1)], grid_m6)
        assert result.chosen_index == 1
        assert len(result.differences) == 1

    def test_brute_force_enumeration(self, grid_m6):
        # shrinking single mode: differences enumerate directly
        amplitudes = [1.0, 0.6, 0.45, 0.41, 0.2]
        sols = [single_mode(6, a) for a in amplitudes]
        result = select_single(sols, grid_m6, values=list(range(5)))
        norms = [sup_norm(b - a, grid_m6) for a, b in zip(sols, sols[1:])]
        expected = int(np.argmin(norms)) + 1
        assert result.chosen_index == expected == 3
        np.testing.assert_allclose(result.differences, norms, rtol=1e-12)
        assert result.chosen_value == 3.0

    def test_requires_two_solutions(self, grid_m6):
        with pytest.raises(ValidationError):
            select_single([single_mode(6, 1.0)], grid_m6)

    def test_chosen_value_none_without_values(self, grid_m6):
        result = select_single([single_mode(6, 1.0), single_mode(6, 0.9)], grid_m6)
        assert result.chosen_value is None


def make_problem(M=6, seed=7, noise=0.05):
    rng = np.random.default_rng(seed)
    rule = sphere_rule(M, 1.0)
    symbol = symbol_preset("geometric(1.48)", 1.0, 1.0, M)
    beta = linear_beta(M)
    x = HarmonicCoefficients(
        M=M,
        radius=1.0,
        values=rng.uniform(-1, 1, (M + 1) ** 2)
        * np.repeat((np.arange(M + 1.0) + 0.5) ** -1.5, 2 * np.arange(M + 1) + 1),
    )
    from sphere_reg import apply_forward

    clean = at_points(apply_forward(symbol, x), rule.points)
    noisy = clean + noise * rng.standard_normal(rule.n_points)
    grid = EvalGrid(sphere_rule(2 * M, 1.0))
    return rule, symbol, beta, noisy, grid


def straight_line_two_step(samples, rule, symbol, beta, alphas, lambdas, grid):
    """Naive reimplementation of the nested search with public pieces."""
    winners = []
    for alpha in alphas:
        sols = [
            two_step_solve(
                samples,
                rule,
                SmoothingParams(lam=lam, beta=beta),
                CollocationParams(alpha=alpha, symbol=symbol),
            )
            for lam in lambdas
        ]
        if len(sols) == 1:
            winners.append((lambdas[0], sols[0]))
        else:
            res = select_single(sols, grid, values=lambdas)
            winners.append((res.chosen_value, res.solution))
    if len(alphas) == 1:
        return alphas[0], winners[0][0], winners[0][1]
    outer = select_single([s for _, s in winners], grid, values=alphas)
    idx = outer.chosen_index
    return alphas[idx], winners[idx][0], winners[idx][1]


def gemm(Z, rows):
    """Z @ rows.T, sliced from one GEMM over the rows padded to a multiple of 8.

    OpenBLAS sums the last columns of an unpadded product wider than
    _MAX_WIDTH differently, and runs a one-row product on GEMV, whose sums
    differ from the GEMM's.
    """
    padded = np.zeros((-(-len(rows) // 8) * 8, rows.shape[1]))
    padded[: len(rows)] = rows
    return (Z @ padded.T)[:, : len(rows)]


def step_maxima(Z, steps):
    """max_t |Z @ steps.T| of each step row, from one GEMM: _step_maxima's oracle."""
    return np.abs(gemm(Z, steps)).max(axis=0)


def dense_sweep(samples, rule, symbol, beta, alphas, lambdas, grid):
    """The sweep with every step of every (L, M+1) and (A, M+1) factor table.

    Each table's differences come from one GEMM over its step rows; the
    (A, M+1) tables stack the winners' rows.  The step rows are formed as
    the sweep forms them, np.diff of the damping times q, so differences
    stay exact up to the GEMM's rounding: differencing the built fields
    instead cancels (off by up to 4.2e-12 relative on a figure-1 trial).
    The candidate fields themselves are built only to check they are
    finite.  Every GEMM runs over the field sums of all points, the
    antipodes' included (full_height).  Returns (nested alpha index,
    per-alpha chosen lambdas, inner minimum differences, outer differences,
    smoothing-only lambda index, collocation-only alpha index, whether
    every candidate field is finite).
    """
    M = rule.M
    coeffs = analyze(samples, rule, M)
    Z = full_height(
        grid.degree_fields(coeffs.scaled_by_degree(np.ones(M + 1), radius=symbol.R))
    )
    a = symbol.a[: M + 1]
    b = beta.beta[: M + 1]
    damping = 1.0 / (1.0 + np.outer(lambdas, b * b))
    step = np.diff(damping, axis=0)
    smoothing_idx = _first_minimum(step_maxima(Z, step * (a / (a * a))))
    winners, unsmoothed, chosen_lams, inner_mins = [], [], [], []
    finite = np.isfinite(Z @ (damping * (a / (a * a))).T).all()
    for alpha in alphas:
        inversion = a / (alpha + a * a)
        diffs = step_maxima(Z, step * inversion)
        idx = _first_minimum(diffs)
        winners.append(damping[idx] * inversion)
        unsmoothed.append(inversion)
        chosen_lams.append(lambdas[idx])
        inner_mins.append(diffs[idx - 1] if diffs.size else math.nan)
        finite &= np.isfinite(Z @ (damping * inversion).T).all()
        finite &= np.isfinite(Z @ inversion).all()
    outer_diffs = step_maxima(Z, np.diff(winners, axis=0))
    alpha_idx = _first_minimum(outer_diffs)
    collocation_idx = _first_minimum(step_maxima(Z, np.diff(unsmoothed, axis=0)))
    return (
        alpha_idx, chosen_lams, inner_mins, outer_diffs, smoothing_idx, collocation_idx,
        finite,
    )


def figure1_trial():
    """select_two_step's arguments for trial 0 of fig1d."""
    case = ex.FIGURE1_CASES["fig1d"]
    _, _, noisy = ex.simulate_problem(case, ex.trial_seed(case.seed, 0))
    symbol = case.build_symbol()
    return (
        noisy,
        ex.canonical_rule(case.M, case.rho),
        symbol,
        ex.penalty_from_symbol(symbol, case.beta_exponent),
        case.alpha_grid,
        case.lambda_grid,
        default_eval_grid(case.M, case.R),
    )


def recorded_products(samples, rule, symbol, beta, alpha_grid, lambda_grid, grid):
    """(Z, row stride, step rows) of every _step_maxima call select_two_step makes.

    Z is the call's field sums in full; the products' rows are Z[::stride].
    Its step rows are rebuilt from the kernel's arguments.
    """
    M = rule.M
    coeffs = analyze(samples, rule, M)
    Z = grid.degree_fields(coeffs.scaled_by_degree(np.ones(M + 1), radius=symbol.R))
    products = []
    real = selection._step_maxima

    def record(rows_of_z, step, q, alpha_idx, pair_idx):
        stride = next(s for s in (*_BOUND_STRIDES, 1) if len(Z[::s]) == len(rows_of_z))
        assert np.array_equal(rows_of_z, Z[::stride])
        products.append((Z, stride, step[pair_idx] * q[alpha_idx]))
        return real(rows_of_z, step, q, alpha_idx, pair_idx)

    with mock.patch.object(selection, "_step_maxima", record):
        select_two_step(samples, rule, symbol, beta, alpha_grid, lambda_grid, grid)
    return [p for p in products if len(p[2])]  # no step rows form no product


def assert_products_are_gemm_slices(products):
    """Each product equals its slice of the full GEMM (gemm), and so do the maxima.

    _step_maxima multiplies Z[::stride] by each chunk of at most
    _MAX_WIDTH // 2 step rows beside their parity copies.  Each chunk's
    reference is one GEMM over all rows of Z and those at most _MAX_WIDTH
    rows, sliced to the stride; the maxima of a call are those of its
    chunks' references, over both copies of each row.
    """
    for Z, stride, rows in products:
        n, maxima = len(rows), []
        for start in range(0, n, _MAX_WIDTH // 2):
            chunk = rows[start : start + _MAX_WIDTH // 2]
            full = gemm(Z, np.vstack((chunk, chunk * _parity(rows.shape[1]))))[::stride]
            np.testing.assert_array_equal(_stacked_product(Z[::stride], chunk), full)
            maxima.append(np.abs(full).reshape(len(full), 2, len(chunk)).max(axis=(0, 1)))
        # The kernel takes the rows as step rows of one all-ones q row.
        ones = np.ones((1, rows.shape[1]))
        np.testing.assert_array_equal(
            _step_maxima(Z[::stride], rows, ones, np.zeros(n, int), np.arange(n)),
            np.concatenate(maxima),
        )


def assert_sweep_matches_dense(samples, rule, symbol, beta, alpha_grid, lambda_grid, grid):
    """The sweep's trace and picks equal the dense sweep's, bit for bit.

    Where any candidate field of the dense sweep is not finite, the sweep
    must raise NumericalError instead.
    """
    alphas, lambdas = grid_values(alpha_grid), grid_values(lambda_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        dense = dense_sweep(samples, rule, symbol, beta, alphas, lambdas, grid)
    alpha_idx, lams, inner, outer, smoothing_idx, collocation_idx, finite = dense
    if not finite:
        with pytest.raises(NumericalError, match="non-finite candidate fields"):
            select_two_step(samples, rule, symbol, beta, alphas, lambdas, grid)
        return
    result = select_two_step(samples, rule, symbol, beta, alphas, lambdas, grid)
    bits = lambda values: np.asarray(values, dtype=float).view(np.uint64)
    np.testing.assert_array_equal(bits([r.chosen_lambda for r in result.trace]), bits(lams))
    np.testing.assert_array_equal(bits([r.inner_min_diff for r in result.trace]), bits(inner))
    np.testing.assert_array_equal(bits([r.outer_diff for r in result.trace[1:]]), bits(outer))
    assert (result.alpha, result.lam) == (alphas[alpha_idx], lams[alpha_idx])
    assert result.smoothing_only.lam == lambdas[smoothing_idx]
    assert result.collocation_only.alpha == alphas[collocation_idx]


class TestSelectTwoStep:
    @pytest.mark.parametrize("short", ["symbol", "beta"])
    def test_short_sequences_fail_like_two_step_solve(self, short):
        # Degrees 0..2 against a degree-4 rule fail with two_step_solve's
        # message before any transform, not with a numpy shape error.
        rule = sphere_rule(4, 1.0)
        symbol = symbol_preset("geometric(1.48)", 1.0, 1.0, 2 if short == "symbol" else 4)
        beta = PenaltyWeights(beta=np.ones(3 if short == "beta" else 5))
        samples = np.random.default_rng(3).standard_normal(rule.n_points)
        message = f"{short} covers degrees 0..2, need 0..4"
        with pytest.raises(ValidationError, match=message):
            two_step_solve(
                samples, rule, SmoothingParams(0.0, beta), CollocationParams(0.0, symbol)
            )
        with pytest.raises(ValidationError, match=message):
            select_two_step(
                samples, rule, symbol, beta, [0.0, 1.0], [0.0, 1.0], default_eval_grid(4, 1.0)
            )

    def test_symbol_off_the_data_sphere_fails_like_two_step_solve(self):
        # A rule on radius 1 under a symbol whose data sphere is 2 is refused
        # with two_step_solve's message and in its order (beta, sphere,
        # symbol), before any transform, even with samples that overflow.
        rule = sphere_rule(4, 1.0)
        samples = np.full(rule.n_points, 1e308)
        off_sphere = "input lives on radius 1.0, symbol expects rho=2.0"
        cases = [
            (4, 4, off_sphere),
            (2, 4, off_sphere),
            (4, 2, "beta covers degrees 0..2, need 0..4"),
        ]
        no_transform = mock.patch.object(
            selection, "analyze", side_effect=AssertionError("analyze called")
        )
        for symbol_M, beta_M, message in cases:
            symbol = symbol_preset("sst", 1.0, 2.0, symbol_M)
            beta = PenaltyWeights(beta=np.ones(beta_M + 1))
            with pytest.raises(ValidationError, match=message):
                two_step_solve(
                    samples, rule, SmoothingParams(0.0, beta), CollocationParams(0.0, symbol)
                )
            with no_transform, pytest.raises(ValidationError, match=message):
                select_two_step(
                    samples, rule, symbol, beta, [0.0, 1.0], [0.0, 1.0],
                    default_eval_grid(4, 1.0),
                )

    def test_grid_on_another_sphere_fails_like_synthesize(self):
        # The field sums' gate refuses it, after the analysis of the samples.
        rule, symbol, beta, noisy, _ = make_problem()
        with pytest.raises(ValidationError, match="rule sphere 2.0 does not match"):
            select_two_step(
                noisy, rule, symbol, beta, [0.0, 1.0], [0.0, 1.0], default_eval_grid(6, 2.0)
            )

    def test_trace_and_picks_match_dense_sweep(self):
        rule, symbol, beta, noisy, grid = make_problem(seed=19)
        small = ParameterGrid(1e-5, 3.0, 9, include_zero=True)
        assert_sweep_matches_dense(noisy, rule, symbol, beta, small, small, grid)
        assert_sweep_matches_dense(noisy, rule, symbol, beta, [0.0], small, grid)
        assert_sweep_matches_dense(noisy, rule, symbol, beta, small, [0.0], grid)

    @given(
        seed=st.integers(0, 2**16),
        n_alphas=st.integers(1, 24),
        n_lambdas=st.integers(1, 6),
        zero=st.booleans(),
        height=st.sampled_from([2, 16, 37, _PANEL_ROWS]),
    )
    @settings(max_examples=30, deadline=None)
    def test_alpha_grids_match_dense_sweep(
        self, seed, n_alphas, n_lambdas, zero, height
    ):
        # Grids of up to 24 alphas, panels of a few rows to the default.
        rule, symbol, beta, noisy, grid = make_problem(seed=seed)
        values = lambda n: [0.0] * zero + list(1e-5 * 3.0 ** np.arange(n - zero))
        with mock.patch.object(selection, "_PANEL_ROWS", height):
            assert_sweep_matches_dense(
                noisy, rule, symbol, beta, values(n_alphas), values(n_lambdas), grid
            )

    @pytest.mark.parametrize(
        "symbol, scale, lambdas",
        [
            ("geometric(2)", 3e306, [0.0, 1e-3, 1.0]),
            ("polynomial(1)", 3e307, [0.0, 1e-3, 1.0]),
            # Damped fields stay finite; only the lambda = 0 fields overflow.
            ("geometric(2)", 3e306, [10.0, 100.0]),
        ],
    )
    def test_overflowing_candidate_fields_fail_like_dense_sweep(
        self, symbol, scale, lambdas
    ):
        # Finite field sums and factors, but some candidate fields overflow;
        # a NaN difference used to win the inner and outer passes silently.
        rule = sphere_rule(6, 1.0)
        sym = symbol_preset(symbol, 1.0, 1.0, 6)
        samples = scale * np.random.default_rng(1).standard_normal(rule.n_points)
        args = (
            samples,
            rule,
            sym,
            ex.penalty_from_symbol(sym, 0.0),
            [0.0, 1e-6, 1e-3, 1.0],
            lambdas,
            default_eval_grid(6, 1.0),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert not dense_sweep(*args)[-1]
        assert_sweep_matches_dense(*args)

    def test_figure1_trial_matches_dense_sweep(self):
        assert_sweep_matches_dense(*figure1_trial())

    def test_bound_and_pair_products_are_gemm_slices(self):
        # Every product of a figure-1 trial's sweep, and of the same trial
        # on a 193-value lambda grid, whose bound products take several
        # chunks of step rows: each call's panel products, stacked back,
        # equal the slice of one full GEMM over the trial's field sums, and
        # its maxima equal the dense reduction of that slice.  The nested
        # pass's bound product stacks 52 alphas' 51 (or 192) step rows; the
        # round products take 1 to 96 step rows, the chain of both outer
        # passes 102, each beside its parity copy.  One-alpha sweeps form
        # the bound products of 51 and 192 rows, and a 26-alpha sweep a
        # chain of 50.
        args = figure1_trial()
        lambdas_193 = np.geomspace(1e-5, 1.0, 193)
        products = recorded_products(*args)
        products += recorded_products(*args[:5], lambdas_193, args[6])
        for lambda_grid in (args[5], lambdas_193):
            products += recorded_products(*args[:4], [0.0], lambda_grid, args[6])
        products += recorded_products(*args[:4], grid_values(args[4])[:26], *args[5:])
        coarse, fine = _BOUND_STRIDES
        shapes = {(stride, len(rows)) for _, stride, rows in products}
        assert {
            (coarse, 51), (coarse, 192), (coarse, 52 * 51), (coarse, 52 * 192),
            (fine, _ROUND_PAIRS), (1, 102), (1, 50),
        } <= shapes
        assert all(
            len(rows) <= _MAX_WIDTH for _, stride, rows in products if stride != coarse
        )
        assert_products_are_gemm_slices(products)

    def test_bound_products_on_few_rows_or_many_lambdas_are_gemm_slices(self):
        # Bound products that used to run on OpenBLAS's small-product kernel
        # (a coarse sup grid: 22 coarse subsample rows and up to 9 lambdas
        # at M = 31) or to sum their last columns differently (193 and 250
        # lambdas): each now takes the shape rule, so its sums are those of
        # the full GEMM and its bounds are exact.
        rule, symbol, beta, noisy, _ = make_problem(M=31, seed=41)
        coarse = EvalGrid(sphere_rule(31, 1.0))
        products = []
        for L in range(2, 10):
            products += recorded_products(
                noisy, rule, symbol, beta, [0.0, 1e-3], np.geomspace(1e-5, 1.0, L), coarse
            )
        args = figure1_trial()
        for L in (193, 250):
            products += recorded_products(
                *args[:4], [0.0, 1e-3], np.geomspace(1e-5, 1.0, L), args[6]
            )
        # The same grids' one-alpha bound products, of L rows.
        for L in range(2, 10):
            products += recorded_products(
                noisy, rule, symbol, beta, [0.0], np.geomspace(1e-5, 1.0, L), coarse
            )
        for L in (193, 250):
            products += recorded_products(
                *args[:4], [0.0], np.geomspace(1e-5, 1.0, L), args[6]
            )
        bounds = [p for p in products if p[1] != 1]
        # One coarse product per grid for the nested pass's two alphas, one
        # for its alpha = 0 alone; the refinement products ride along.
        assert sum(p[1] == _BOUND_STRIDES[0] for p in bounds) == 2 * 10
        assert_products_are_gemm_slices(bounds)

    def test_figure1_trial_forms_one_bound_product_per_pass(self):
        # The one nested pass's 52 x 51 step rows on the coarse subsample; its
        # alpha = 0 row gives the smoothing-only pick, and the
        # collocation-only pick needs no bound.  Three refinement products
        # on the fine subsample tighten the bounds of the pairs left.
        products = recorded_products(*figure1_trial())
        bounds = {
            stride: [len(rows) for _, s, rows in products if s == stride]
            for stride in _BOUND_STRIDES
        }
        assert bounds[_BOUND_STRIDES[0]] == [52 * 51]
        assert len(bounds[_BOUND_STRIDES[1]]) == 3

    def test_warm_trial_streams_the_field_sums_at_most_six_times(self):
        # A pass over Z is one chunk of one product at full height; the
        # nested pass of a figure-1 trial needs at most six.
        args = figure1_trial()
        select_two_step(*args)
        streams = [
            -(-len(rows) // (_MAX_WIDTH // 2))
            for _, stride, rows in recorded_products(*args)
            if stride == 1
        ]
        assert sum(streams) <= 6

    def test_figure1_bit_equality_under_one_blas_thread(self):
        # The BLAS thread count is fixed at import, so these three checks
        # run again in a child with one OpenBLAS thread.
        here = Path(__file__)
        tests = [
            f"{here}::TestSelectTwoStep::{name}"
            for name in (
                "test_figure1_trial_matches_dense_sweep",
                "test_bound_and_pair_products_are_gemm_slices",
                "test_bound_products_on_few_rows_or_many_lambdas_are_gemm_slices",
            )
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(here.parents[1] / "src"), env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=here.parents[1],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == 0, child.stdout + child.stderr
        assert "3 passed" in child.stdout

    def test_sweep_memory_stays_below_one_candidate_table(self):
        # Past the caches the first call warms, the sweep holds the field
        # sums, at most (T, M+1), but never a (T, L) table of candidate
        # fields.
        args = figure1_trial()
        select_two_step(*args)
        T, L = args[-1].rule.n_points, len(grid_values(args[-2]))
        tracemalloc.start()
        try:
            select_two_step(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * (args[1].M + 1) * 8 + T * L * 8

    def test_sweep_memory_stays_below_half_a_candidate_table(self):
        # Neither |Z| nor a (T, L) product is ever built: the warm peak is
        # the field sums and less than half a table of candidate fields.
        args = figure1_trial()
        select_two_step(*args)
        T, L = args[-1].rule.n_points, len(grid_values(args[-2]))
        tracemalloc.start()
        try:
            select_two_step(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * (args[1].M + 1) * 8 + T * L * 4

    def test_matches_straight_line_reimplementation(self):
        rule, symbol, beta, noisy, grid = make_problem()
        alphas = expand_grid(ParameterGrid(1e-5, 3.0, 9, include_zero=True))
        lambdas = expand_grid(ParameterGrid(1e-5, 3.0, 9, include_zero=True))
        fast = select_two_step(noisy, rule, symbol, beta, alphas, lambdas, grid)
        a_ref, l_ref, sol_ref = straight_line_two_step(
            noisy, rule, symbol, beta, alphas, lambdas, grid
        )
        assert fast.alpha == a_ref
        assert fast.lam == l_ref
        np.testing.assert_array_equal(fast.solution.values, sol_ref.values)

    def test_degenerate_lambda_grid_reduces_to_alpha_search(self):
        rule, symbol, beta, noisy, grid = make_problem(seed=11)
        alphas = expand_grid(ParameterGrid(1e-5, 4.0, 7, include_zero=True))
        result = select_two_step(noisy, rule, symbol, beta, alphas, [0.0], grid)
        assert result.lam == 0.0
        assert all(math.isnan(rec.inner_min_diff) for rec in result.trace)

        sols = [
            two_step_solve(
                noisy,
                rule,
                SmoothingParams(lam=0.0, beta=beta),
                CollocationParams(alpha=a, symbol=symbol),
            )
            for a in alphas
        ]
        ref = select_single(sols, grid, values=alphas)
        assert result.alpha == ref.chosen_value
        np.testing.assert_array_equal(result.solution.values, ref.solution.values)

    def test_degenerate_alpha_grid_reduces_to_lambda_search(self):
        rule, symbol, beta, noisy, grid = make_problem(seed=13)
        lambdas = expand_grid(ParameterGrid(1e-5, 4.0, 7, include_zero=True))
        result = select_two_step(noisy, rule, symbol, beta, [0.0], lambdas, grid)
        assert result.alpha == 0.0

        sols = [
            two_step_solve(
                noisy,
                rule,
                SmoothingParams(lam=lam, beta=beta),
                CollocationParams(alpha=0.0, symbol=symbol),
            )
            for lam in lambdas
        ]
        ref = select_single(sols, grid, values=lambdas)
        assert result.lam == ref.chosen_value
        np.testing.assert_array_equal(result.solution.values, ref.solution.values)

    def test_trace_structure(self):
        rule, symbol, beta, noisy, grid = make_problem(seed=17)
        alphas = expand_grid(ParameterGrid(1e-4, 5.0, 4))
        lambdas = expand_grid(ParameterGrid(1e-4, 5.0, 4))
        result = select_two_step(noisy, rule, symbol, beta, alphas, lambdas, grid)
        assert len(result.trace) == len(alphas)
        assert math.isnan(result.trace[0].outer_diff)
        for rec, alpha in zip(result.trace, alphas):
            assert rec.alpha == alpha
            assert rec.chosen_lambda in lambdas
            assert rec.inner_min_diff >= 0
        for rec in result.trace[1:]:
            assert rec.outer_diff >= 0

    @given(scale=st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=10, deadline=None)
    def test_scale_equivariance(self, scale):
        rule, symbol, beta, noisy, grid = make_problem(seed=23)
        alphas = expand_grid(ParameterGrid(1e-4, 6.0, 4, include_zero=True))
        lambdas = expand_grid(ParameterGrid(1e-4, 6.0, 4, include_zero=True))
        base = select_two_step(noisy, rule, symbol, beta, alphas, lambdas, grid)
        scaled = select_two_step(
            scale * noisy, rule, symbol, beta, alphas, lambdas, grid
        )
        assert scaled.alpha == base.alpha
        assert scaled.lam == base.lam

    def test_difference_scaling_in_select_single(self, grid_m6, rng):
        sols = [single_mode(6, a) for a in (1.0, 0.7, 0.55, 0.3)]
        base = select_single(sols, grid_m6)
        scaled = select_single(
            [
                HarmonicCoefficients(M=6, radius=1.0, values=3.0 * s.values)
                for s in sols
            ],
            grid_m6,
        )
        assert scaled.chosen_index == base.chosen_index
        np.testing.assert_allclose(
            scaled.differences, 3.0 * base.differences, rtol=1e-12
        )


def assert_same_pick(pick, ref):
    assert (pick.alpha, pick.lam) == (ref.alpha, ref.lam)
    np.testing.assert_array_equal(pick.solution.values, ref.solution.values)


def assert_one_parameter_picks_match_separate_calls(
    noisy, rule, symbol, beta, alpha_grid, lambda_grid, grid
):
    both = select_two_step(noisy, rule, symbol, beta, alpha_grid, lambda_grid, grid)
    smoothing = select_two_step(noisy, rule, symbol, beta, [0.0], lambda_grid, grid)
    collocation = select_two_step(noisy, rule, symbol, beta, alpha_grid, [0.0], grid)
    assert_same_pick(both.smoothing_only, smoothing)
    assert_same_pick(both.collocation_only, collocation)
    return both


class TestOneAnalysis:
    @pytest.mark.parametrize("name", sorted(ex.FIGURE1_CASES))
    def test_figure1_picks_rescale_the_sweep_analysis(self, name, monkeypatch):
        case = ex.FIGURE1_CASES[name]
        _, _, noisy = ex.simulate_problem(case, ex.trial_seed(case.seed, 0))
        symbol = case.build_symbol()
        beta = ex.penalty_from_symbol(symbol, case.beta_exponent)
        rule = ex.canonical_rule(case.M, case.rho)
        grid = default_eval_grid(case.M, case.R)

        calls = []

        def counting_analyze(*args, **kwargs):
            calls.append(args)
            return analyze(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "sphere_reg" and (
                getattr(module, "analyze", None) is analyze
            ):
                monkeypatch.setattr(module, "analyze", counting_analyze)
        result = select_two_step(
            noisy, rule, symbol, beta, case.alpha_grid, case.lambda_grid, grid
        )
        assert len(calls) == 1
        monkeypatch.undo()

        for pick in (result, result.smoothing_only, result.collocation_only):
            ref = two_step_solve(
                noisy,
                rule,
                SmoothingParams(lam=pick.lam, beta=beta),
                CollocationParams(alpha=pick.alpha, symbol=symbol),
            )
            assert np.array_equal(pick.solution.values, ref.values)
            assert pick.solution.radius == ref.radius


class TestOneParameterPicks:
    @pytest.mark.parametrize("name", sorted(ex.FIGURE1_CASES))
    def test_figure1_trial_matches_separate_zero_grid_calls(self, name):
        case = ex.FIGURE1_CASES[name]
        _, _, noisy = ex.simulate_problem(case, ex.trial_seed(case.seed, 0))
        symbol = case.build_symbol()
        assert_one_parameter_picks_match_separate_calls(
            noisy,
            ex.canonical_rule(case.M, case.rho),
            symbol,
            ex.penalty_from_symbol(symbol, case.beta_exponent),
            case.alpha_grid,
            case.lambda_grid,
            default_eval_grid(case.M, case.R),
        )

    def test_grids_without_zero(self):
        rule, symbol, beta, noisy, grid = make_problem(seed=29)
        positive = ParameterGrid(1e-5, 3.0, 9)
        both = assert_one_parameter_picks_match_separate_calls(
            noisy, rule, symbol, beta, positive, positive, grid
        )
        values = expand_grid(positive)
        for pick, alphas, lambdas in (
            (both.smoothing_only, [0.0], values),
            (both.collocation_only, values, [0.0]),
        ):
            ref = straight_line_two_step(
                noisy, rule, symbol, beta, alphas, lambdas, grid
            )
            assert_same_pick(pick, ParameterPick(*ref))


class TestNonFiniteSelection:
    def test_underflowing_symbol_fails_loudly(self):
        M = 20
        rule = sphere_rule(M, 1.0)
        symbol = symbol_preset("polynomial(160)", 1.0, 1.0, M)
        samples = np.random.default_rng(1).standard_normal(rule.n_points)
        grid = EvalGrid(sphere_rule(2 * M, 1.0))
        alphas = expand_grid(ParameterGrid(1e-4, 4.0, 5, include_zero=True))
        with pytest.raises(NumericalError, match="alpha = 0.0"):
            select_two_step(
                samples, rule, symbol, linear_beta(M), alphas, alphas, grid
            )

    def test_non_finite_field_sums_fail_loudly(self):
        rule, symbol, beta, noisy, grid = make_problem(seed=31)
        huge = np.full_like(noisy, 1e308)
        with pytest.raises(NumericalError, match="field sums"):
            select_two_step(huge, rule, symbol, beta, [0.0, 1.0], [0.0, 1.0], grid)

    def test_first_failing_alpha_of_a_block_is_named(self, grid_error_inputs):
        # The alpha grid holds an alpha with overflowing fields and, after
        # it, one with a non-finite factor: the error names the first, as a
        # pass checking alpha by alpha would, and comes before any product.
        products = []
        real = selection._step_maxima

        def record(*args):
            products.append(args)
            return real(*args)

        with mock.patch.object(selection, "_step_maxima", record):
            with pytest.raises(NumericalError) as err:
                _nested_pass(*grid_error_inputs)
        assert str(err.value) == "non-finite candidate fields at alpha = 0.0001"
        assert products == []

    def test_fields_overflowing_at_the_antipodes_fail_loudly(self):
        # The fields cancel on Z's rows, 1e308 - 1e308, but degree 1 flips
        # sign at their antipodes, where they overflow to 2e308.
        Z = np.array([[1e308, -1e308]] * 4)
        a, b = np.ones(2), np.ones(2)
        with pytest.raises(NumericalError, match=r"^non-finite candidate fields at alpha = 0\.0$"):
            _nested_pass(Z, np.abs(Z).max(axis=0), a, b, [0.0, 1.0], [0.0, 1.0])

    def test_non_finite_damping_fails_at_the_first_alpha(self):
        # An infinite penalty at lambda = 0 makes damping 1 / (1 + 0 * inf)
        # NaN, so every alpha's factor table is non-finite, though q is not.
        Z = np.ones((4, 3))
        zmax = np.ones(3)
        a, b = np.full(3, 0.5), np.array([1.0, math.inf, math.inf])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=r"factors at alpha = 1\.0 "):
                _nested_pass(Z, zmax, a, b, [1.0, 1e-2], [0.0, 1.0])

    @pytest.mark.parametrize("lambdas", [[0.0, 1e-3], [1e-3, 1e-2]], ids=["zero", "no-zero"])
    def test_overflowing_penalty_damps_like_two_step_solve(self, lambdas):
        # b^2 = 1e400 overflows.  The lambda = 0 row's penalty is 0 b b = 0,
        # as SmoothingParams.damping forms it, not 0 * inf = NaN, so the
        # sweep finishes where two_step_solve does; every lambda > 0 damps
        # to 0.
        M = 4
        rule = sphere_rule(M, 1.0)
        symbol = symbol_preset("geometric(1.48)", 1.0, 1.0, M)
        beta = PenaltyWeights(np.full(M + 1, 1e200))
        samples = np.random.default_rng(0).standard_normal(rule.n_points)
        chosen = select_two_step(
            samples, rule, symbol, beta, [0.0, 1e-3, 1e-2], lambdas,
            default_eval_grid(M, 1.0),
        )
        assert (chosen.alpha, chosen.lam) == (1e-3, lambdas[-1])
        for pick in (chosen, chosen.smoothing_only, chosen.collocation_only):
            want = two_step_solve(
                samples, rule, SmoothingParams(pick.lam, beta),
                CollocationParams(pick.alpha, symbol),
            )
            np.testing.assert_array_equal(pick.solution.values, want.values)

    def test_non_finite_pick_fails_loudly(self):
        # The field sums (4e307) and the sweep's fields stay finite, but the
        # picked solution's degree-0 coefficient, 1.4e308 / a_0 with
        # a_0 = 1/2, overflows.
        M = 6
        rule = sphere_rule(M, 2.0)
        symbol = symbol_preset("sst", 1.0, 2.0, M)
        huge = np.full(rule.n_points, 2e307)
        grid = default_eval_grid(M, 1.0)
        with pytest.raises(NumericalError, match="non-finite solution at alpha"):
            select_two_step(
                huge, rule, symbol, linear_beta(M), [0.0, 1e-5], [0.0, 1e-5], grid
            )


def scaled_integers(values):
    """Integers n and one shift s with values == n / 2**s, exactly.

    Binary floats, and their exact sums and products, have power-of-two
    denominators, so one shift puts them all on integers.
    """
    fractions = [Fraction(v) for v in values]
    shift = max(f.denominator for f in fractions).bit_length() - 1
    return [f.numerator << (shift - f.denominator.bit_length() + 1) for f in fractions], shift


def exact_step_maxima(Z, damping, q, alpha_idx, pair_idx):
    """max_t |Z (damping[i+1] - damping[i]) q[j]| of each pair, in exact arithmetic."""
    flat, z_shift = scaled_integers(Z.ravel().tolist())
    width = Z.shape[1]
    z_rows = [flat[t : t + width] for t in range(0, len(flat), width)]
    maxima = []
    for j, i in zip(alpha_idx.tolist(), pair_idx.tolist()):
        row, shift = scaled_integers(
            [
                (Fraction(hi) - Fraction(lo)) * Fraction(qk)
                for hi, lo, qk in zip(damping[i + 1].tolist(), damping[i].tolist(), q[j].tolist())
            ]
        )
        peak = max(abs(sum(z * r for z, r in zip(z_row, row))) for z_row in z_rows)
        maxima.append(Fraction(peak, 2 ** (z_shift + shift)))
    return maxima


class TestStepRowAccuracy:
    def test_step_maxima_match_exact_arithmetic(self):
        # Every 64th row of a figure-1 trial's field sums, and their
        # antipodes' rows, every 5th alpha and every 5th pair: the kernel's
        # maxima agree with the exact ones to 1e-14 relative.  Differencing
        # the fields of both rows of a step, as the kernel once did,
        # cancels: off by 4.2e-12 here.
        samples, rule, symbol, beta, alpha_grid, lambda_grid, grid = figure1_trial()
        M = rule.M
        coeffs = analyze(samples, rule, M)
        Z = grid.degree_fields(coeffs.scaled_by_degree(np.ones(M + 1), radius=symbol.R))
        Z = Z[::64]
        a, b = symbol.a[: M + 1], beta.beta[: M + 1]
        alphas, lambdas = grid_values(alpha_grid), grid_values(lambda_grid)
        damping = 1.0 / (1.0 + np.outer(lambdas, b * b))
        q = a / (alphas[:, None] + a * a)
        alpha_idx, pair_idx = (
            idx.ravel()
            for idx in np.meshgrid(
                np.arange(0, len(alphas), 5), np.arange(0, len(lambdas) - 1, 5), indexing="ij"
            )
        )
        got = _step_maxima(Z, np.diff(damping, axis=0), q, alpha_idx, pair_idx)
        exact = exact_step_maxima(full_height(Z), damping, q, alpha_idx, pair_idx)
        assert len(got) == len(exact) == 121
        worst = max(abs(Fraction(g) - e) / e for g, e in zip(got.tolist(), exact))
        assert worst <= 1e-14


class TestStreamedSweepMemory:
    def test_nested_pass_peak_is_below_the_stacked_bound_rows(self):
        # The bound product's n (L - 1) step rows are built a chunk at a
        # time in the kernel: a warm nested pass at the figure-1 shape peaks
        # below the n L (M+1) doubles of the factor rows stacked.
        samples, rule, symbol, beta, alpha_grid, lambda_grid, grid = figure1_trial()
        M = rule.M
        coeffs = analyze(samples, rule, M)
        Z = grid.degree_fields(coeffs.scaled_by_degree(np.ones(M + 1), radius=symbol.R))
        alphas, lambdas = grid_values(alpha_grid), grid_values(lambda_grid)
        args = Z, np.abs(Z).max(axis=0), symbol.a[: M + 1], beta.beta[: M + 1]
        _nested_pass(*args, alphas, lambdas)
        tracemalloc.start()
        try:
            _nested_pass(*args, alphas, lambdas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(alphas) * len(lambdas) * (M + 1) * 8

    def test_sweep_leaves_the_dense_basis_unbuilt(self):
        rule, symbol, beta, noisy, grid = make_problem(seed=37)
        select_two_step(noisy, rule, symbol, beta, [0.0, 1e-3], [0.0, 1e-3], grid)
        assert grid._basis == {}

    def test_degree_fields_peak_is_a_fraction_of_the_dense_basis(self):
        M = 40
        grid = EvalGrid(sphere_rule(2 * M, 1.0))
        coeffs = HarmonicCoefficients(
            M=M, radius=1.0, values=np.random.default_rng(3).standard_normal((M + 1) ** 2)
        )
        # The result itself is at most T (M+1) doubles; the dense basis is
        # M+1 times that.
        field_bytes = grid.rule.n_points * (M + 1) * 8
        tracemalloc.start()
        try:
            grid.degree_fields(coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * field_bytes
        assert grid._basis == {}

    def test_degree_fields_peak_is_below_the_full_height_table(self):
        # The field sums keep the first 41 of the 81 rings, so a cold call,
        # ring tables included, peaks below the (T, M+1) doubles of a table
        # over every point: 3.6 MB against 4.3 MB (5.7 MB when every ring
        # was computed).
        M = 40
        grid = EvalGrid(sphere_rule(2 * M, 1.0))
        coeffs = HarmonicCoefficients(
            M=M, radius=1.0, values=np.random.default_rng(3).standard_normal((M + 1) ** 2)
        )
        tracemalloc.start()
        try:
            grid.degree_fields(coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.rule.n_points * (M + 1) * 8

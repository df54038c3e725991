import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_reg import (
    CollocationParams,
    EvalGrid,
    HarmonicCoefficients,
    ParameterGrid,
    PenaltyWeights,
    SmoothingParams,
    ValidationError,
    expand_grid,
    select_single,
    select_two_step,
    sphere_rule,
    sup_norm,
    symbol_preset,
    two_step_solve,
)
from sphere_reg.selection import _quasi_optimal, grid_values


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_grids(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            ParameterGrid(base=bad, factor=2.0, count=3)
        with pytest.raises(ValidationError, match="finite"):
            ParameterGrid(base=1.0, factor=bad, count=3)
        with pytest.raises(ValidationError, match="finite"):
            grid_values([0.0, 1.0, bad])

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
        c = HarmonicCoefficients.zeros(6, 1.0)
        c.values[0] = math.sqrt(4.0 * math.pi)
        assert sup_norm(c, grid_m6) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_raw_point_array(self):
        c = HarmonicCoefficients.zeros(2, 1.0)
        c.values[0] = math.sqrt(4.0 * math.pi)
        pts = sphere_rule(4, 1.0).points
        assert sup_norm(c, pts) == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement(self, rng):
        M = 5
        c = HarmonicCoefficients(M=M, radius=1.0, values=rng.standard_normal(36))
        coarse = sup_norm(c, EvalGrid(sphere_rule(4 * M, 1.0).points))
        fine = sup_norm(c, EvalGrid(sphere_rule(8 * M, 1.0).points))
        assert abs(fine - coarse) <= 0.01 * fine

    def test_radius_mismatch(self, grid_m6):
        c = HarmonicCoefficients.zeros(6, 2.0)
        with pytest.raises(ValidationError):
            sup_norm(c, grid_m6)


class TestQuasiOptimal:
    def test_single_column_wins_without_differences(self):
        idx, diffs = _quasi_optimal(np.array([[1.0], [2.0]]))
        assert idx == 0
        assert diffs.shape == (0,)

    def test_smallest_sup_difference_wins(self):
        # column differences: sup 3, sup 0.5, sup 2
        fields = np.array([[0.0, 3.0, 3.5, 1.5], [0.0, -1.0, -1.2, -1.0]])
        idx, diffs = _quasi_optimal(fields)
        np.testing.assert_allclose(diffs, [3.0, 0.5, 2.0])
        assert idx == 2

    def test_ties_go_to_the_smallest_index(self):
        fields = np.array([[0.0, 1.0, 2.0, 3.0]])
        idx, diffs = _quasi_optimal(fields)
        np.testing.assert_array_equal(diffs, [1.0, 1.0, 1.0])
        assert idx == 1


def single_mode(M, amplitude):
    c = HarmonicCoefficients.zeros(M, 1.0)
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
    from sphere_reg import apply_forward, synthesize

    clean = synthesize(apply_forward(symbol, x), rule.points)
    noisy = clean + noise * rng.standard_normal(rule.n_points)
    grid = EvalGrid(sphere_rule(2 * M, 1.0).points)
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


class TestSelectTwoStep:
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

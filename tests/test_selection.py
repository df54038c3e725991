import math
import sys
import tracemalloc

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
    ParameterPick,
    PenaltyWeights,
    SmoothingParams,
    ValidationError,
    analyze,
    default_eval_grid,
    expand_grid,
    select_single,
    select_two_step,
    sphere_rule,
    sup_norm,
    symbol_preset,
    two_step_solve,
)
from sphere_reg import experiments as ex
from sphere_reg.selection import _pruned_quasi_optimal, _quasi_optimal, grid_values


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
        c = HarmonicCoefficients(M=6, radius=1.0, values=np.zeros(49))
        c.values[0] = math.sqrt(4.0 * math.pi)
        assert sup_norm(c, grid_m6) == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement(self, rng):
        M = 5
        c = HarmonicCoefficients(M=M, radius=1.0, values=rng.standard_normal(36))
        coarse = sup_norm(c, EvalGrid(sphere_rule(4 * M, 1.0).points))
        fine = sup_norm(c, EvalGrid(sphere_rule(8 * M, 1.0).points))
        assert abs(fine - coarse) <= 0.01 * fine

    def test_point_array_grid_matches_rule_grid(self, rng):
        # The array form stays for point clouds; on the same points it
        # gives the same bits as the rule-backed grid.
        rule = sphere_rule(12, 1.0)
        sols = [
            HarmonicCoefficients(M=6, radius=1.0, values=rng.standard_normal(49))
            for _ in range(3)
        ]
        cloud, ringed = EvalGrid(rule.points), EvalGrid(rule)
        assert sup_norm(sols[0], cloud) == sup_norm(sols[0], ringed)
        np.testing.assert_array_equal(
            select_single(sols, cloud).differences,
            select_single(sols, ringed).differences,
        )

    def test_radius_mismatch(self, grid_m6):
        c = HarmonicCoefficients(M=6, radius=2.0, values=np.zeros(49))
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


def assert_pruned_matches_dense(fields):
    """The dense full-reduction kernel is the oracle for the pruned one."""
    idx, diff = _pruned_quasi_optimal(fields)
    ref_idx, ref_diffs = _quasi_optimal(fields)
    assert idx == ref_idx
    if ref_diffs.size:
        assert diff == ref_diffs[ref_idx - 1]
    else:
        assert math.isnan(diff)


@st.composite
def field_tables(draw):
    """(T, L) tables with few distinct values (ties) and repeated columns."""
    T = draw(st.integers(1, 40))
    L = draw(st.integers(1, 6))
    elements = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(
        -1e3, 1e3, allow_nan=False
    )
    columns = [draw(arrays(float, T, elements=elements))]
    for _ in range(L - 1):
        if draw(st.booleans()):
            columns.append(columns[-1].copy())
        else:
            columns.append(draw(arrays(float, T, elements=elements)))
    return np.column_stack(columns)


class TestPrunedQuasiOptimal:
    @given(fields=field_tables())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_kernel(self, fields):
        assert_pruned_matches_dense(fields)

    def test_one_and_two_columns(self):
        idx, diff = _pruned_quasi_optimal(np.array([[1.0], [2.0]]))
        assert idx == 0 and math.isnan(diff)
        fields = np.array([[0.0, 3.0], [1.0, -1.0]])
        assert _pruned_quasi_optimal(fields) == (1, 3.0)
        assert_pruned_matches_dense(fields)

    def test_forced_ties_go_to_the_smallest_index(self):
        fields = np.tile([0.0, 1.0, 2.0, 1.0, 2.0], (40, 1))
        assert _pruned_quasi_optimal(fields) == (1, 1.0)
        assert_pruned_matches_dense(fields)

    def test_tie_with_a_larger_bound_at_the_smaller_index(self):
        # d_1 = 1 peaks on the subsample; d_2 = 1 peaks off it at row 5, so
        # its bound (0.5) is smaller and it is evaluated first.
        fields = np.zeros((40, 3))
        fields[:, 1] = 1.0
        fields[:, 2] = 1.5
        fields[5, 2] = 2.0
        assert _pruned_quasi_optimal(fields) == (1, 1.0)
        assert_pruned_matches_dense(fields)

    def test_duplicate_columns_win_with_zero_difference(self):
        rng = np.random.default_rng(5)
        fields = rng.standard_normal((50, 6))
        fields[:, 4] = fields[:, 3]
        fields[:, 2] = fields[:, 1]
        assert _pruned_quasi_optimal(fields) == (2, 0.0)
        assert_pruned_matches_dense(fields)

    def test_maxima_off_the_subsample(self):
        # Rows 0, 16 and 32 are sampled.  Column pair (0, 1) looks best on
        # them but peaks at row 5; the winner (2, 3) peaks at row 9.
        fields = np.zeros((40, 4))
        fields[:, 1] = 0.01
        fields[5, 1] = 5.0
        fields[:, 2] = 0.5
        fields[:, 3] = 0.6
        fields[9, 3] = 2.5
        assert _pruned_quasi_optimal(fields) == (3, 2.0)
        assert_pruned_matches_dense(fields)

    @pytest.mark.parametrize("T", [1, 2, 15])
    def test_fewer_rows_than_the_stride(self, T):
        rng = np.random.default_rng(T)
        assert_pruned_matches_dense(rng.standard_normal((T, 7)))


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
    from sphere_reg import apply_forward, synthesize

    clean = synthesize(apply_forward(symbol, x), rule.points)
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


def dense_sweep(samples, rule, symbol, beta, alphas, lambdas, grid):
    """The sweep with every (T, L) and (T, A) table kept and the dense kernel.

    Returns (nested alpha index, per-alpha chosen lambdas, inner minimum
    differences, outer differences, smoothing-only lambda index,
    collocation-only alpha index, whether every candidate field is finite).
    """
    M = rule.M
    coeffs = analyze(samples, rule, M)
    Z = grid.degree_fields(coeffs.scaled_by_degree(np.ones(M + 1), radius=symbol.R))
    a = symbol.a[: M + 1]
    b = beta.beta[: M + 1]
    damping = 1.0 / (1.0 + np.outer(lambdas, b * b))
    direct = Z @ (damping * (a / (a * a))).T
    smoothing_idx, _ = _quasi_optimal(direct)
    winners, unsmoothed, chosen_lams, inner_mins = [], [], [], []
    finite = np.isfinite(direct).all()
    for alpha in alphas:
        inversion = a / (alpha + a * a)
        fields = Z @ (damping * inversion).T
        idx, diffs = _quasi_optimal(fields)
        winners.append(fields[:, idx])
        unsmoothed.append(Z @ inversion)
        chosen_lams.append(lambdas[idx])
        inner_mins.append(diffs[idx - 1] if diffs.size else math.nan)
        finite &= np.isfinite(fields).all() & np.isfinite(unsmoothed[-1]).all()
    alpha_idx, outer_diffs = _quasi_optimal(np.column_stack(winners))
    collocation_idx, _ = _quasi_optimal(np.column_stack(unsmoothed))
    return (
        alpha_idx, chosen_lams, inner_mins, outer_diffs, smoothing_idx, collocation_idx,
        finite,
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
    def test_trace_and_picks_match_dense_sweep(self):
        rule, symbol, beta, noisy, grid = make_problem(seed=19)
        small = ParameterGrid(1e-5, 3.0, 9, include_zero=True)
        assert_sweep_matches_dense(noisy, rule, symbol, beta, small, small, grid)
        assert_sweep_matches_dense(noisy, rule, symbol, beta, [0.0], small, grid)
        assert_sweep_matches_dense(noisy, rule, symbol, beta, small, [0.0], grid)

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
        case = ex.FIGURE1_CASES["fig1d"]
        _, _, noisy = ex.simulate_problem(case, ex.trial_seed(case.seed, 0))
        symbol = case.build_symbol()
        assert_sweep_matches_dense(
            noisy,
            ex.canonical_rule(case.M, case.rho),
            symbol,
            ex.penalty_from_symbol(symbol, case.beta_exponent),
            case.alpha_grid,
            case.lambda_grid,
            default_eval_grid(case.M, case.R),
        )

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


class TestStreamedSweepMemory:
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
        # The result itself is T (M+1) doubles; the dense basis is M+1 times that.
        field_bytes = grid.n_points * (M + 1) * 8
        tracemalloc.start()
        try:
            grid.degree_fields(coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * field_bytes
        assert grid._basis == {}

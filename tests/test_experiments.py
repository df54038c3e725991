import math

import numpy as np
import pytest

from sphere_reg import (
    CollocationParams,
    ExperimentCase,
    FIGURE1_CASES,
    HarmonicCoefficients,
    SmoothingParams,
    ValidationError,
    apply_forward,
    leader_following_summary,
    penalty_from_symbol,
    relative_sup_error,
    run_case,
    simulate_problem,
    sphere_rule,
    symbol_preset,
    synthesize,
    two_step_solve,
)
from sphere_reg.experiments import (
    METHOD_COLLOCATION,
    METHOD_SMOOTHING,
    METHOD_TWO_STEP,
    METHODS,
    TrialResult,
    canonical_rule,
    case_with_overrides,
    relative_sup_errors,
    trial_seed,
)
from sphere_reg.selection import ParameterGrid, default_eval_grid, select_two_step


def tiny_case(**overrides):
    base = ExperimentCase(
        name="tiny",
        symbol="geometric(1.48)",
        upsilon=1.5,
        M=5,
        trials=2,
        epsilon=0.05,
        seed=5,
        alpha_grid=ParameterGrid(1e-4, 4.0, 6, include_zero=True),
        lambda_grid=ParameterGrid(1e-4, 4.0, 6, include_zero=True),
    )
    return case_with_overrides(base, **overrides)


class TestCaseValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            tiny_case(trials=0)
        with pytest.raises(ValidationError):
            tiny_case(epsilon=-0.1)
        with pytest.raises(ValidationError):
            tiny_case(upsilon=0.0)

    @pytest.mark.parametrize("field", ["M", "trials", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_rejects_non_integer_counts(self, field, value):
        # Unchecked, a float fails only inside run_case, with a TypeError.
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            tiny_case(**{field: value})

    @pytest.mark.parametrize("field", ["epsilon", "upsilon"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_noise_and_smoothness(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be .* finite"):
            tiny_case(**{field: value})

    def test_rejects_overflowing_degree_zero_decay(self):
        # Degree 0 decays like (1/2)^-upsilon = 2^upsilon, inf from 1024 on.
        tiny_case(upsilon=1023.5)
        for value in (1024.0, 2000.0):
            with pytest.raises(ValidationError, match=r"2\*\*upsilon overflows"):
                tiny_case(upsilon=value)

    def test_figure1_presets_match_the_captions(self):
        assert set(FIGURE1_CASES) == {"fig1a", "fig1b", "fig1c", "fig1d", "fig1e"}
        a, b, c, d, e = (FIGURE1_CASES[k] for k in sorted(FIGURE1_CASES))
        assert a.symbol == "geometric(1.48)" and a.upsilon == 1.5
        assert a.beta_exponent == 0.0
        assert b.symbol == "geometric(1.48)" and b.upsilon == 5.5
        assert b.beta_exponent == 3.5
        assert c.symbol == "polynomial(2)" and c.upsilon == 1.5
        assert d.symbol == "polynomial(2)" and d.beta_exponent == 3.5
        assert e.symbol == "polynomial(2)" and e.beta_exponent == 5.5
        for case in FIGURE1_CASES.values():
            assert case.M == 30
            assert case.epsilon == 0.05
            assert case.trials == 10
            assert case.R == case.rho == 1.0
            for grid in (case.alpha_grid, case.lambda_grid):
                assert grid.base == 1.78e-5
                assert grid.factor == 1.25
                assert grid.count == 50
                assert grid.include_zero


class TestPenaltyRule:
    def test_beta_zero_copies_beta_one(self):
        sym = symbol_preset("geometric(1.48)", 1.0, 1.0, 6)
        beta = penalty_from_symbol(sym, 0.0)
        assert beta.beta[0] == beta.beta[1]
        np.testing.assert_allclose(beta.beta[1:] ** 2, 1.0 / sym.a[1:], rtol=1e-14)

    def test_polynomial_growth_factor(self):
        sym = symbol_preset("polynomial(2)", 1.0, 1.0, 6)
        beta = penalty_from_symbol(sym, 3.5)
        k = np.arange(1.0, 7.0)
        np.testing.assert_allclose(
            beta.beta[1:] ** 2, (k + 0.5) ** 3.5 * (k + 1) ** 2, rtol=1e-13
        )

    def test_overflowing_penalty_rejected_without_warning(self):
        # a_20 = 20.5^-234 is about 4e-310, so beta_20^2 = 1 / a_20 overflows.
        sym = symbol_preset("polynomial(234)", 1.0, 1.0, 20)
        assert 0 < sym.a[20] < 1e-308
        with pytest.raises(ValidationError, match="beta_20 = inf"):
            penalty_from_symbol(sym, 0.0)

    def test_result_is_nondecreasing(self):
        for name in ("geometric(1.48)", "polynomial(2)"):
            sym = symbol_preset(name, 1.0, 1.0, 30)
            for expo in (0.0, 3.5, 5.5):
                beta = penalty_from_symbol(sym, expo)
                assert np.all(np.diff(beta.beta) >= 0)


class TestSimulateProblem:
    def test_zero_noise_is_exact(self):
        case = tiny_case(epsilon=0.0)
        _, clean, noisy = simulate_problem(case, trial_seed(case.seed, 0))
        np.testing.assert_array_equal(clean, noisy)

    def test_seed_determinism(self):
        case = tiny_case()
        x1, c1, n1 = simulate_problem(case, trial_seed(case.seed, 1))
        x2, c2, n2 = simulate_problem(case, trial_seed(case.seed, 1))
        np.testing.assert_array_equal(x1.values, x2.values)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(n1, n2)
        _, _, other = simulate_problem(case, trial_seed(case.seed, 2))
        assert not np.array_equal(n1, other)

    def test_high_smoothness_concentrates_at_degree_zero(self):
        case = tiny_case(upsilon=60.0)
        x, _, _ = simulate_problem(case, trial_seed(case.seed, 0))
        top = np.abs(x.values[0])
        rest = np.max(np.abs(x.values[1:]))
        assert top <= 2.0**60.0
        assert rest <= 1.5**-60.0
        assert rest < 1e-10 * max(top, 1.0)

    def test_clean_samples_match_a_fresh_synthesis(self):
        # The shared rule's cached ring table gives the same bits as a ring
        # synthesis on a fresh rule.
        case = tiny_case()
        x, clean, _ = simulate_problem(case, trial_seed(case.seed, 4))
        symbol = case.build_symbol()
        rule = sphere_rule(case.M, case.rho)
        fresh = synthesize(apply_forward(symbol, x), rule)
        np.testing.assert_array_equal(clean, fresh)

    def test_decay_envelope(self):
        case = tiny_case()
        x, _, _ = simulate_problem(case, trial_seed(case.seed, 3))
        for k in range(case.M + 1):
            assert np.max(np.abs(x.row(k))) <= (k + 0.5) ** -case.upsilon + 1e-15


class TestRelativeSupError:
    def test_identity_is_zero(self, rng):
        grid = default_eval_grid(4, 1.0)
        x = HarmonicCoefficients(M=4, radius=1.0, values=rng.standard_normal(25))
        assert relative_sup_error(x, x, grid) == 0.0

    def test_zero_approximation_is_one(self, rng):
        grid = default_eval_grid(4, 1.0)
        x = HarmonicCoefficients(M=4, radius=1.0, values=rng.standard_normal(25))
        zero = HarmonicCoefficients(M=4, radius=1.0, values=np.zeros(25))
        assert relative_sup_error(x, zero, grid) == pytest.approx(1.0, abs=1e-14)

    def test_doubling_is_one(self, rng):
        grid = default_eval_grid(4, 1.0)
        x = HarmonicCoefficients(M=4, radius=1.0, values=rng.standard_normal(25))
        doubled = HarmonicCoefficients(M=4, radius=1.0, values=2.0 * x.values)
        assert relative_sup_error(x, doubled, grid) == pytest.approx(1.0, abs=1e-12)

    def test_zero_truth_rejected(self):
        grid = default_eval_grid(2, 1.0)
        zero = HarmonicCoefficients(M=2, radius=1.0, values=np.zeros(9))
        with pytest.raises(ValidationError):
            relative_sup_error(zero, zero, grid)


class TestBatchedErrors:
    def test_run_case_errors_equal_separate_calls(self):
        # One batched synthesis per trial scores the three picks with the
        # bits of one relative_sup_error call per pick.
        case = case_with_overrides(FIGURE1_CASES["fig1d"], trials=2)
        results = run_case(case)
        symbol = case.build_symbol()
        beta = penalty_from_symbol(symbol, case.beta_exponent)
        grid = default_eval_grid(case.M, case.R)
        want = []
        for t in range(case.trials):
            x_true, _, noisy = simulate_problem(case, trial_seed(case.seed, t))
            chosen = select_two_step(
                noisy, canonical_rule(case.M, case.rho), symbol, beta,
                case.alpha_grid, case.lambda_grid, grid,
            )
            for pick in (chosen, chosen.smoothing_only, chosen.collocation_only):
                want.append(relative_sup_error(x_true, pick.solution, grid))
        got = [r.relative_error for r in results]
        np.testing.assert_array_equal(
            np.array(got).view(np.uint64), np.array(want).view(np.uint64)
        )

    def test_zero_truth_rejected_with_its_message(self, rng):
        grid = default_eval_grid(2, 1.0)
        zero = HarmonicCoefficients(M=2, radius=1.0, values=np.zeros(9))
        x = HarmonicCoefficients(M=2, radius=1.0, values=rng.standard_normal(9))
        for call in (
            lambda: relative_sup_errors(zero, [x, zero, x], grid),
            lambda: relative_sup_error(zero, x, grid),
        ):
            with pytest.raises(ValidationError, match="^true solution has zero sup norm$"):
                call()


class TestRunCase:
    def test_self_check_mode_recovers_exactly(self):
        # With clean data, the two-step solve at (0, 0) recovers the truth.
        case = tiny_case(epsilon=0.0)
        symbol = case.build_symbol()
        beta = penalty_from_symbol(symbol, case.beta_exponent)
        grid = default_eval_grid(case.M, case.R)
        for t in range(case.trials):
            x_true, _, noisy = simulate_problem(case, trial_seed(case.seed, t))
            solution = two_step_solve(
                noisy,
                canonical_rule(case.M, case.rho),
                SmoothingParams(lam=0.0, beta=beta),
                CollocationParams(alpha=0.0, symbol=symbol),
            )
            assert relative_sup_error(x_true, solution, grid) < 1e-8

    def test_degenerate_grids_make_methods_coincide(self):
        case = tiny_case(M=2, trials=1, alpha_grid=[0.0], lambda_grid=[0.0])
        results = run_case(case)
        errors = {r.method: r.relative_error for r in results}
        assert errors[METHOD_TWO_STEP] == errors[METHOD_SMOOTHING]
        assert errors[METHOD_TWO_STEP] == errors[METHOD_COLLOCATION]

    def test_result_ordering_and_methods(self):
        case = tiny_case()
        results = run_case(case)
        assert [r.method for r in results[:3]] == list(METHODS)
        assert [r.trial for r in results[:6]] == [0, 0, 0, 1, 1, 1]

    def test_reproducible(self):
        case = tiny_case()
        assert run_case(case) == run_case(case)

    def test_positive_finite_errors_with_noise(self):
        case = tiny_case()
        for r in run_case(case):
            assert np.isfinite(r.relative_error)
            assert r.relative_error > 0

    def test_seed_sensitivity(self):
        a = run_case(tiny_case())
        b = run_case(tiny_case(seed=6))
        assert a != b


class TestLeaderSummary:
    def test_median_logic(self):
        results = []
        errs = {
            METHOD_TWO_STEP: [0.30, 0.32, 0.40],
            METHOD_SMOOTHING: [0.31, 0.33, 0.50],
            METHOD_COLLOCATION: [0.60, 0.70, 0.80],
        }
        for method, values in errs.items():
            for t, e in enumerate(values):
                results.append(
                    TrialResult(
                        trial=t,
                        method=method,
                        relative_error=e,
                        chosen_alpha=0.0,
                        chosen_lambda=0.0,
                    )
                )
        s = leader_following_summary("demo", results)
        assert s.median_two_step == pytest.approx(0.32)
        assert s.median_smoothing == pytest.approx(0.33)
        assert s.median_collocation == pytest.approx(0.70)
        assert s.ratio == pytest.approx(0.32 / 0.33)
        assert s.follows_leader

    def test_violation_detected(self):
        results = []
        for t in range(3):
            results.append(TrialResult(t, METHOD_TWO_STEP, 1.0, 0.0, 0.0))
            results.append(TrialResult(t, METHOD_SMOOTHING, 0.5, 0.0, 0.0))
            results.append(TrialResult(t, METHOD_COLLOCATION, 0.9, 0.0, 0.0))
        s = leader_following_summary("demo", results)
        assert not s.follows_leader
        assert s.ratio == pytest.approx(2.0)

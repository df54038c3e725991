import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphere_reg.experiments
from sphere_reg import (
    CollocationParams,
    ExperimentCase,
    FIGURE1_CASES,
    HarmonicCoefficients,
    NumericalError,
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
from sphere_reg.cli import main
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


def fake_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


#: Runs `sphere-reg experiment` on argv[3] with argv[2] usable cores, trial
#: 1 failing as argv[1] names: it raises ValidationError or NumericalError,
#: or its process exits.  Prints the exit code and the live child count.
FAILING_TRIAL = """
import multiprocessing, os, sys
import sphere_reg.experiments as ex
from sphere_reg.cli import main
from sphere_reg.errors import NumericalError, ValidationError

kind, cores, config = sys.argv[1], int(sys.argv[2]), sys.argv[3]
os.sched_getaffinity = lambda pid: set(range(cores))
simulate = ex.simulate_problem

def failing(case, seed):
    if seed == ex.trial_seed(case.seed, 1):
        if kind == "exit":
            os._exit(7)
        error = ValidationError if kind == "validation" else NumericalError
        raise error(f"trial seed {seed} refused")
    return simulate(case, seed)

ex.simulate_problem = failing
code = main(["experiment", config])
print(code, len(multiprocessing.active_children()))
"""


#: Runs two pooled run_case calls at one M with two usable cores and exits
#: normally; prints the pool's worker pids after each call.
TWO_POOLED_CASES = """
import multiprocessing, os
import sphere_reg.experiments as ex
os.sched_getaffinity = lambda pid: {0, 1}
case = ex.case_with_overrides(ex.FIGURE1_CASES["fig1d"], M=6, trials=4)
for seed in (1, 2):
    ex.run_case(ex.case_with_overrides(case, seed=seed))
    print(*sorted(p.pid for p in multiprocessing.active_children()))
"""


def logged_pids(directory, case_seed):
    """Pids in the names of the files `pid-trialseed` logged for one case seed."""
    names = (p.name.split("-") for p in directory.iterdir())
    return {pid for pid, seed in names if int(seed) // 100000 == case_seed}


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def fresh_pool():
    """No pool and an uncached rule and grid, so the next pooled run_case
    builds the tables and forks after the test's patches; the pool is
    dropped afterwards, patches and all."""
    sphere_reg.experiments._drop_pool()
    canonical_rule.cache_clear()
    default_eval_grid.cache_clear()
    yield
    sphere_reg.experiments._drop_pool()


class TestTrialWorkers:
    """run_case in forked workers gives what a serial run gives, errors too."""

    @pytest.mark.parametrize("cores", [1, 2])
    def test_overflowing_noise_names_epsilon(
        self, monkeypatch, tmp_path, capfd, fresh_pool, cores
    ):
        # capfd also reads the stderr of workers forked during the test.
        config = tmp_path / "case.config"
        config.write_text(
            f"case = fig1a\nM = 6\ntrials = 4\nepsilon = 1e308\n"
            f"output = {tmp_path / 'r.csv'}\n"
        )
        fake_cores(monkeypatch, cores)
        assert main(["experiment", str(config)]) == 3
        assert capfd.readouterr().err == (
            "error: epsilon is too large: noise of standard deviation 1e+308 "
            "overflows\n"
        )
        assert multiprocessing.active_children() == []

    def test_pool_results_equal_serial(self, monkeypatch, tmp_path, fresh_pool):
        case = tiny_case(M=6, trials=4)
        canonical_rule.cache_clear()
        default_eval_grid.cache_clear()
        simulate = sphere_reg.experiments.simulate_problem

        def logged(case, seed):
            # Each process records whether the parent's ring tables reached it.
            rule = canonical_rule(case.M, case.rho)
            grid_rule = default_eval_grid(case.M, case.R).rule
            keys = sorted(map(str, [*rule._cache, *grid_rule._cache]))
            (tmp_path / f"{os.getpid()}-{seed}").write_text(" ".join(keys))
            return simulate(case, seed)

        monkeypatch.setattr(sphere_reg.experiments, "simulate_problem", logged)
        fake_cores(monkeypatch, 2)
        pooled = run_case(case)
        runs = [p.name.split("-") for p in tmp_path.iterdir()]
        assert len(runs) == 4
        assert len({pid for pid, _ in runs}) == 2
        assert str(os.getpid()) not in {pid for pid, _ in runs}
        assert {p.read_text() for p in tmp_path.iterdir()} == {"('dft', 6) 6 6"}
        first = {pid for pid, _ in runs}

        # The same worker count, rule and grid: the same two workers.
        run_case(case_with_overrides(case, seed=7))
        assert logged_pids(tmp_path, 7) <= first
        assert {str(p.pid) for p in multiprocessing.active_children()} == first

        # A cleared cache is another rule and grid: a new pool, the old one gone.
        canonical_rule.cache_clear()
        default_eval_grid.cache_clear()
        again = run_case(case_with_overrides(case, seed=8))
        assert logged_pids(tmp_path, 8) and not logged_pids(tmp_path, 8) & first
        assert not any(map(pid_alive, map(int, first)))
        monkeypatch.undo()

        fake_cores(monkeypatch, 1)
        serial = run_case(case)
        assert again == run_case(case_with_overrides(case, seed=8))
        monkeypatch.undo()
        assert pooled == serial == run_case(case)

    def test_dead_worker_leaves_the_next_call_fresh_workers(
        self, monkeypatch, tmp_path, fresh_pool
    ):
        case = tiny_case(M=6, trials=4)
        simulate = sphere_reg.experiments.simulate_problem

        def dying(case, seed):
            (tmp_path / f"{os.getpid()}-{seed}").touch()
            if seed == trial_seed(5, 1):
                os._exit(7)
            return simulate(case, seed)

        monkeypatch.setattr(sphere_reg.experiments, "simulate_problem", dying)
        fake_cores(monkeypatch, 2)
        with pytest.raises(NumericalError, match="trial worker process died"):
            run_case(case)
        assert multiprocessing.active_children() == []
        dead = logged_pids(tmp_path, 5)

        pooled = run_case(case_with_overrides(case, seed=6))
        fresh = logged_pids(tmp_path, 6)
        assert fresh and not fresh & dead and str(os.getpid()) not in fresh
        monkeypatch.undo()
        fake_cores(monkeypatch, 1)
        assert pooled == run_case(case_with_overrides(case, seed=6))

    def test_pool_workers_exit_with_the_process(self):
        root = Path(__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", TWO_POOLED_CASES],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stderr == ""
        first, second = child.stdout.splitlines()
        assert first == second and len(first.split()) == 2
        assert not any(pid_alive(int(pid)) for pid in first.split())

    def failing_experiment(self, tmp_path, kind, cores):
        root = Path(__file__).parents[1]
        config = tmp_path / "case.config"
        config.write_text(
            f"case = fig1a\nM = 6\ntrials = 4\noutput = {tmp_path / 'r.csv'}\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", FAILING_TRIAL, kind, str(cores), str(config)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert not (tmp_path / "r.csv").exists()
        return child.stdout.split(), child.stderr

    @pytest.mark.parametrize("kind, code", [("validation", "3"), ("numerical", "4")])
    def test_worker_error_exits_as_in_a_serial_run(self, tmp_path, kind, code):
        serial = self.failing_experiment(tmp_path, kind, 1)
        pooled = self.failing_experiment(tmp_path, kind, 2)
        assert pooled == serial
        assert pooled[0] == [code, "0"]
        prefix = "numerical failure: " if kind == "numerical" else ""
        seed = trial_seed(FIGURE1_CASES["fig1a"].seed, 1)
        assert pooled[1] == f"error: {prefix}trial seed {seed} refused\n"

    def test_dead_worker_exits_as_a_numerical_failure(self, tmp_path):
        (code, children), err = self.failing_experiment(tmp_path, "exit", 2)
        assert (code, children) == ("4", "0")
        assert err == (
            "error: numerical failure: a trial worker process died "
            "before returning its results\n"
        )


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

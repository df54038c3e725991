"""Synthetic-problem harness comparing the three regularization methods.

Each trial draws a random solution with prescribed per-degree decay,
pushes it through the forward operator, samples on the canonical cubature
points, adds Gaussian noise, and then solves three ways: the nested
two-parameter search, presmoothing with direct inversion (alpha = 0), and
regularized collocation on raw data (lambda = 0).  Five built-in cases
cover a severely ill-posed geometric symbol and a moderately ill-posed
polynomial one at two smoothness levels and three penalty growth rates.
"""

from __future__ import annotations

import atexit
import functools
import math
import numbers
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import (
    HarmonicCoefficients,
    SphericalSymbol,
    _ring_dft,
    _ring_legendre,
    apply_forward,
    symbol_preset,
    synthesize,
)
from .quadrature import CubatureRule, sphere_rule
from .selection import (
    ParameterGrid,
    default_eval_grid,
    grid_values,
    select_two_step,
    sup_norms,
)
from .smoothing import PenaltyWeights

DEFAULT_SEED = 31415

METHOD_TWO_STEP = "two_step"
METHOD_SMOOTHING = "smoothing_only"
METHOD_COLLOCATION = "collocation_only"
METHODS = (METHOD_TWO_STEP, METHOD_SMOOTHING, METHOD_COLLOCATION)

#: Largest two-step / best-single median ratio that still follows the leader.
LEADER_FACTOR = 1.2

#: The paper's alpha and lambda grid, and the `solve --auto` default.
STANDARD_GRID = ParameterGrid(base=1.78e-5, factor=1.25, count=50, include_zero=True)


@dataclass(frozen=True)
class ExperimentCase:
    """Full description of one synthetic comparison run."""

    name: str
    symbol: str
    upsilon: float
    beta_exponent: float = 0.0
    epsilon: float = 0.05
    M: int = 30
    R: float = 1.0
    rho: float = 1.0
    trials: int = 10
    seed: int = DEFAULT_SEED
    alpha_grid: ParameterGrid | Sequence[float] = STANDARD_GRID
    lambda_grid: ParameterGrid | Sequence[float] = STANDARD_GRID

    def __post_init__(self):
        if not 0 < self.upsilon < 1024:
            raise ValidationError(
                f"upsilon must be positive and finite, and below 1024, where the "
                f"degree-0 decay 2**upsilon overflows; got {self.upsilon!r}"
            )
        if not 0 <= self.epsilon < math.inf:
            raise ValidationError(
                f"epsilon must be nonnegative and finite, got {self.epsilon!r}"
            )
        for name in ("M", "trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.M < 0:
            raise ValidationError(f"M must be nonnegative, got {self.M}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        grid_values(self.alpha_grid)
        grid_values(self.lambda_grid)

    def build_symbol(self) -> SphericalSymbol:
        return symbol_preset(self.symbol, self.R, self.rho, self.M)


@dataclass(frozen=True)
class TrialResult:
    """Relative error and chosen parameters of one method on one trial."""

    trial: int
    method: str
    relative_error: float
    chosen_alpha: float
    chosen_lambda: float

    def __post_init__(self):
        if not self.relative_error >= 0:
            raise ValidationError("relative error must be nonnegative")


def penalty_from_symbol(
    symbol: SphericalSymbol, exponent: float = 0.0
) -> PenaltyWeights:
    """Penalties with beta_k^2 = (k+1/2)^exponent / a_k for k >= 1.

    The captions' rule starts at k = 1; beta_0 is set equal to beta_1 so
    the sequence stays positive and nondecreasing.  A beta_k^2 that
    overflows (a_k below about 1e-308) fails PenaltyWeights' check.
    """
    k = np.arange(symbol.M + 1, dtype=float)
    with np.errstate(over="ignore"):
        beta_sq = (k + 0.5) ** exponent / symbol.a
    if symbol.M >= 1:
        beta_sq[0] = beta_sq[1]
    return PenaltyWeights(beta=np.sqrt(beta_sq))


FIGURE1_CASES = {
    "fig1a": ExperimentCase(
        name="fig1a", symbol="geometric(1.48)", upsilon=1.5, beta_exponent=0.0
    ),
    "fig1b": ExperimentCase(
        name="fig1b", symbol="geometric(1.48)", upsilon=5.5, beta_exponent=3.5
    ),
    "fig1c": ExperimentCase(
        name="fig1c", symbol="polynomial(2)", upsilon=1.5, beta_exponent=0.0
    ),
    "fig1d": ExperimentCase(
        name="fig1d", symbol="polynomial(2)", upsilon=5.5, beta_exponent=3.5
    ),
    "fig1e": ExperimentCase(
        name="fig1e", symbol="polynomial(2)", upsilon=5.5, beta_exponent=5.5
    ),
}


@functools.lru_cache(maxsize=8)
def canonical_rule(M: int, rho: float) -> CubatureRule:
    """Shared rule instance per (M, rho), so its ring Legendre table is reused."""
    return sphere_rule(M, rho)


def trial_seed(case_seed: int, trial: int) -> int:
    """Deterministic per-trial seed; derived, not sequential, so cases with
    nearby seeds do not share noise streams."""
    return case_seed * 100000 + trial


def simulate_problem(case: ExperimentCase, trial_seed: int):
    """Draw one synthetic problem instance.

    Returns (x_true, clean, noisy): the true solution coefficients with
    rows decaying like (k+1/2)^(-upsilon) and uniform [-1, 1] mode draws,
    the exact data samples at the canonical rule points, and the samples
    with i.i.d. Gaussian noise of standard deviation epsilon added.  An
    epsilon whose noise overflows raises ValidationError.
    """
    symbol = case.build_symbol()
    rule = canonical_rule(case.M, case.rho)
    rng = np.random.default_rng(trial_seed)

    g = rng.uniform(-1.0, 1.0, (case.M + 1) * (case.M + 1))
    k = np.arange(case.M + 1, dtype=float)
    decay = np.repeat((k + 0.5) ** (-case.upsilon), 2 * np.arange(case.M + 1) + 1)
    x_true = HarmonicCoefficients(M=case.M, radius=case.R, values=decay * g)

    clean = synthesize(apply_forward(symbol, x_true), rule)
    with np.errstate(over="ignore"):
        noise = case.epsilon * rng.standard_normal(rule.n_points)
    if not np.all(np.isfinite(noise)):
        raise ValidationError(
            f"epsilon is too large: noise of standard deviation {case.epsilon!r} "
            "overflows"
        )
    return x_true, clean, clean + noise


def relative_sup_error(
    x_true: HarmonicCoefficients, x_approx: HarmonicCoefficients, eval_grid
) -> float:
    """sup|x_true - x_approx| / sup|x_true| over the grid."""
    return float(relative_sup_errors(x_true, [x_approx], eval_grid)[0])


def relative_sup_errors(
    x_true: HarmonicCoefficients,
    approximations: Sequence[HarmonicCoefficients],
    eval_grid,
) -> np.ndarray:
    """relative_sup_error of each approximation, from one batched synthesis.

    The sup norms of x_true and of every x_true - x come from one
    sup_norms call, so each entry has the bits of a separate call.  An
    error that overflows raises NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = sup_norms([x_true, *(x_true - x for x in approximations)], eval_grid)
        if norms[0] == 0.0:
            raise ValidationError("true solution has zero sup norm")
        errors = norms[1:] / norms[0]
    if not np.all(np.isfinite(errors)):
        raise NumericalError("relative sup error sup|x_true - x| / sup|x_true| overflows")
    return errors


def _run_trial(case: ExperimentCase, t: int) -> list[TrialResult]:
    """Trial t of run_case: its two_step, smoothing_only and collocation_only results.

    The rule and the sup grid come from their caches, so a forked worker
    reads the tables its parent built and only (case, t) is pickled.
    """
    symbol = case.build_symbol()
    beta = penalty_from_symbol(symbol, case.beta_exponent)
    rule = canonical_rule(case.M, case.rho)
    grid = default_eval_grid(case.M, case.R)
    x_true, _, noisy = simulate_problem(case, trial_seed(case.seed, t))
    chosen = select_two_step(
        noisy, rule, symbol, beta, case.alpha_grid, case.lambda_grid, grid, trace=False
    )
    picks = (chosen, chosen.smoothing_only, chosen.collocation_only)
    errors = relative_sup_errors(x_true, [p.solution for p in picks], grid)
    return [
        TrialResult(
            trial=t,
            method=method,
            relative_error=error,
            chosen_alpha=float(pick.alpha),
            chosen_lambda=float(pick.lam),
        )
        for method, pick, error in zip(METHODS, picks, errors.tolist())
    ]


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: The trial pool this process keeps between run_case calls, with what its
#: workers inherited at fork: (pid, workers, rule, grid, pool), or None.
_pool = None


def _trial_pool(case: ExperimentCase, workers: int):
    """The kept pool if its workers hold this case's tables, else a new one.

    A new pool replaces the old one when the worker count differs or when
    canonical_rule or default_eval_grid returns another object than the
    workers inherited, as after a cache_clear.
    """
    global _pool
    rule = canonical_rule(case.M, case.rho)
    grid = default_eval_grid(case.M, case.R)
    if _pool is not None:
        pid, count, old_rule, old_grid, pool = _pool
        same_tables = old_rule is rule and old_grid is grid
        if pid == os.getpid() and count == workers and same_tables:
            return pool
        _drop_pool()
    # Imported here, so `import sphere_reg.cli` loads neither module.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Built before the fork, so the workers inherit them rather than each
    # building its own: the ring tables a trial reads and the numpy modules
    # it imports on first use.
    import numpy.fft
    import numpy.random

    _ring_legendre(rule, case.M)
    _ring_legendre(grid.rule, case.M)
    _ring_dft(grid.rule, case.M)
    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, mp_context=fork)
    _pool = (os.getpid(), workers, rule, grid, pool)
    return pool


def _drop_pool() -> None:
    """Shut the kept pool down, joining its workers, and forget it.

    A process forked from the one that made the pool only forgets it.
    """
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[-1].shutdown(cancel_futures=True)
    _pool = None


# Shut down while the interpreter is whole: a pool first collected in its
# teardown prints an ignored TypeError from concurrent.futures' callback.
atexit.register(_drop_pool)


def run_case(case: ExperimentCase) -> list[TrialResult]:
    """Run every trial of a case with all three methods.

    Results are ordered by trial, then two_step / smoothing_only /
    collocation_only, and are deterministic given the case (seed included).
    The trials run in min(trials, usable cores) forked worker processes,
    or in this one where that is one or fork does not exist; each trial's
    bytes are the same either way.  The pool lives for the process: later
    calls reuse it while the worker count and the cached rule and sup grid
    are the ones its workers inherited, and fork a new one otherwise.  So
    workers see module state as of their fork, and a monkeypatch reaches
    them only after such a re-fork.  Any error drops the pool: a worker
    that dies raises NumericalError; any other error re-raises here, as in
    a serial run.
    """
    trial = functools.partial(_run_trial, case)
    workers = min(case.trials, _usable_cores())
    if workers == 1 or not hasattr(os, "fork"):
        per_trial = list(map(trial, range(case.trials)))
    else:
        from concurrent.futures.process import BrokenProcessPool

        try:
            per_trial = list(_trial_pool(case, workers).map(trial, range(case.trials)))
        except BrokenProcessPool as exc:
            _drop_pool()
            raise NumericalError(
                "a trial worker process died before returning its results"
            ) from exc
        except BaseException:
            _drop_pool()
            raise
    return [r for results in per_trial for r in results]


@dataclass(frozen=True)
class LeaderSummary:
    """Median errors per method and the follows-the-leader verdict."""

    case: str
    median_two_step: float
    median_smoothing: float
    median_collocation: float
    ratio: float
    follows_leader: bool


def leader_following_summary(
    case_name: str, results: Sequence[TrialResult]
) -> LeaderSummary:
    """Check whether the two-step median tracks the better single method.

    A median that is not finite, as when it overflows, raises NumericalError.
    """
    medians = {}
    for method in METHODS:
        errs = [r.relative_error for r in results if r.method == method]
        if not errs:
            raise ValidationError(f"no results for method {method!r}")
        with np.errstate(over="ignore"):
            medians[method] = float(np.median(errs))
        if not math.isfinite(medians[method]):
            raise NumericalError(f"median relative error of {method} is not finite")
    best_single = min(medians[METHOD_SMOOTHING], medians[METHOD_COLLOCATION])
    ratio = medians[METHOD_TWO_STEP] / best_single if best_single > 0 else math.inf
    return LeaderSummary(
        case=case_name,
        median_two_step=medians[METHOD_TWO_STEP],
        median_smoothing=medians[METHOD_SMOOTHING],
        median_collocation=medians[METHOD_COLLOCATION],
        ratio=ratio,
        follows_leader=bool(ratio <= LEADER_FACTOR),
    )


def case_with_overrides(base: ExperimentCase, **overrides) -> ExperimentCase:
    """Copy a case with selected fields replaced (validation re-runs)."""
    return replace(base, **overrides)

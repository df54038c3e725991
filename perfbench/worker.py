"""Child processes of the benchmark; ``run.py`` starts each in a fresh interpreter.

Modes:

* ``fig1``: import, warm the rule and sup-grid caches (set-up), then run
  the five figure-1 cases through ``run_case`` in turn, timing each call,
  and write their results CSVs with ``cli.write_results_csv``.
* ``check-fig1``: the nested brute-force oracle for one trial per case.
* ``prep-solve``: write a seeded samples CSV and the outputs an in-process
  ``select_two_step`` gives on it, for comparison with the CLI's.
* ``cli``: run ``sphere_reg.cli.main`` with the tracer installed.
* ``scale``: time one ``select_two_step`` on the CLI's default inputs at a
  given M, for the M-scaling record.

Each mode writes one JSON object to ``--out``.
"""

import time

# The set-up clock starts before numpy or sphere_reg is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SYMBOL = "geometric(1.48)"


def machine_facts() -> dict:
    import numpy
    import scipy

    import sphere_reg
    from sphere_reg import selection

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    worker_count = getattr(selection, "_worker_count", None)
    meminfo = _meminfo()
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": meminfo.get("MemTotal", 0) / 1e3,
        "mem_available_mb": meminfo.get("MemAvailable", 0) / 1e3,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "sphere_reg_threads_env": os.environ.get("SPHERE_REG_THREADS"),
        "sphere_reg_threads_effective": worker_count(52) if worker_count else None,
        "sphere_reg_file": sphere_reg.__file__,
    }


def _meminfo() -> dict:
    """/proc/meminfo in kB, empty where the file does not exist."""
    out = {}
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                key, rest = line.split(":", 1)
                out[key] = int(rest.split()[0])
    except OSError:
        pass
    return out


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _tracer(mode):
    if mode == "none":
        return None
    from tracer import Tracer

    tracer = Tracer(memory=mode == "memory")
    tracer.install()
    return tracer


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cmd_fig1(args) -> dict:
    from sphere_reg import experiments as ex
    from sphere_reg.cli import write_results_csv

    tracer = _tracer(args.trace)
    warm_up = ex.case_with_overrides(ex.FIGURE1_CASES["fig1a"], seed=args.seed, trials=1)
    ex.run_case(warm_up)
    out = {"setup_s": time.perf_counter() - _T0, "facts": machine_facts()}
    if args.setup_only:
        return out

    trials = {"trials": args.trials} if args.trials else {}
    cases = [ex.case_with_overrides(c, seed=args.seed, **trials)
             for c in ex.FIGURE1_CASES.values()]
    # The cases run in turn until another would not fit in --seconds, after
    # at least one whole pass.  All five have the same M, grids and trial
    # count, so they cost the same and the median case time does not depend
    # on which case the window ends at.
    case_s, results = [], {}
    started = time.perf_counter()
    for i in itertools.count():
        case = cases[i % len(cases)]
        t0 = time.perf_counter()
        results[case.name] = ex.run_case(case)
        case_s.append(time.perf_counter() - t0)
        if i + 1 >= len(cases) and (
                time.perf_counter() - started + statistics.median(case_s) > args.seconds):
            break

    paths, ratios, nonfinite = [], {}, set()
    for case in cases:
        res = results[case.name]
        summary = ex.leader_following_summary(case.name, res)
        ratios[case.name] = summary.ratio
        path = os.path.join(args.results_dir, f"{case.name}.csv")
        write_results_csv(path, case.name, res, summary)
        paths.append(path)
        nonfinite.update((case.name, r.trial) for r in res
                         if not math.isfinite(r.relative_error))
    if tracer is not None:
        tracer.dump(args.spans)
    out.update(
        case_s=case_s,
        case_trials=cases[0].trials,
        trials=sum(case.trials for case in cases),
        ratios=ratios,
        digest=_digest(paths),
        nonfinite=sorted(nonfinite),
    )
    return out


def brute_force_pair(samples, rule, symbol, beta, alphas, lambdas, grid):
    """Nested quasi-optimality over explicit two_step_solve outputs."""
    from sphere_reg import CollocationParams, SmoothingParams, select_single, two_step_solve

    winners = []
    for alpha in alphas:
        sols = [two_step_solve(samples, rule, SmoothingParams(lam=lam, beta=beta),
                               CollocationParams(alpha=alpha, symbol=symbol))
                for lam in lambdas]
        if len(sols) == 1:
            winners.append((lambdas[0], sols[0]))
        else:
            res = select_single(sols, grid, values=lambdas)
            winners.append((res.chosen_value, res.solution))
    if len(alphas) == 1:
        return float(alphas[0]), float(winners[0][0])
    idx = select_single([s for _, s in winners], grid, values=alphas).chosen_index
    return float(alphas[idx]), float(winners[idx][0])


def cmd_check_fig1(args) -> dict:
    """Compare the pass's chosen pairs for one trial per case with the oracle."""
    from sphere_reg import EvalGrid
    from sphere_reg import experiments as ex
    from sphere_reg.selection import grid_values

    chosen = {}
    for name in ex.FIGURE1_CASES:
        with open(os.path.join(args.results_dir, f"{name}.csv")) as fh:
            for line in fh.read().splitlines()[1:]:
                if line.startswith("#"):
                    continue
                case, trial, method, _, alpha, lam = line.split(",")
                chosen[(case, int(trial), method)] = (float(alpha), float(lam))

    checks = []
    for i, (name, base) in enumerate(ex.FIGURE1_CASES.items()):
        case = ex.case_with_overrides(base, seed=args.seed)
        trial = (args.seed + i) % case.trials
        _, _, noisy = ex.simulate_problem(case, ex.trial_seed(case.seed, trial))
        symbol = case.build_symbol()
        beta = ex.penalty_from_symbol(symbol, case.beta_exponent)
        rule = ex.canonical_rule(case.M, case.rho)
        grid = EvalGrid(ex.canonical_rule(2 * case.M, case.R).points)
        alphas, lambdas = grid_values(case.alpha_grid), grid_values(case.lambda_grid)
        for method, a_grid, l_grid in ((ex.METHOD_TWO_STEP, alphas, lambdas),
                                       (ex.METHOD_SMOOTHING, [0.0], lambdas),
                                       (ex.METHOD_COLLOCATION, alphas, [0.0])):
            want = brute_force_pair(noisy, rule, symbol, beta, a_grid, l_grid, grid)
            got = chosen.get((name, trial, method))
            checks.append({"case": name, "trial": trial, "method": method,
                           "oracle": want, "chosen": got, "ok": got == want})
    return {"checks": checks}


def solve_inputs(seed: int, M: int):
    """Seeded noisy samples and the inputs `sphere-reg solve --auto` builds at M.

    Returns (rule, samples, symbol, beta, grid, eval_grid); ``grid`` is the
    CLI's default alpha and lambda grid.
    """
    from sphere_reg import ParameterGrid, default_eval_grid
    from sphere_reg import experiments as ex
    from sphere_reg.operators import symbol_preset

    case = ex.ExperimentCase(name="solve", symbol=SYMBOL, upsilon=1.5, M=M)
    _, _, noisy = ex.simulate_problem(case, ex.trial_seed(seed, 0))
    symbol = symbol_preset(SYMBOL, 1.0, 1.0, M)
    grid = ParameterGrid(base=1.78e-5, factor=1.25, count=50, include_zero=True)
    return (ex.canonical_rule(M, 1.0), noisy, symbol, ex.penalty_from_symbol(symbol, 0.0),
            grid, default_eval_grid(M, 1.0))


def cmd_prep_solve(args) -> dict:
    from sphere_reg import select_two_step
    from sphere_reg.cli import (read_samples_csv, write_coeffs_csv, write_samples_csv,
                                write_trace_csv)

    rule, noisy, symbol, beta, grid, eval_grid = solve_inputs(args.seed, args.M)
    samples_path = os.path.join(args.dir, "samples.csv")
    write_samples_csv(samples_path, rule, noisy)

    # The in-process reference, mirroring `sphere-reg solve` on the same file.
    samples = read_samples_csv(samples_path, rule)
    chosen = select_two_step(samples, rule, symbol, beta, grid, grid, eval_grid)
    write_trace_csv(os.path.join(args.dir, "expected_trace.csv"), chosen.trace)
    write_coeffs_csv(chosen.solution, os.path.join(args.dir, "expected_coeffs.csv"))
    return {"samples": samples_path, "facts": machine_facts(),
            "stdout": f"selected alpha = {chosen.alpha:.17g}, lambda = {chosen.lam:.17g}\n"}


def cmd_scale(args) -> dict:
    """One select_two_step at M; its time includes the lazy sup-grid basis build."""
    from sphere_reg import select_two_step

    rule, samples, symbol, beta, grid, eval_grid = solve_inputs(args.seed, args.M)
    t0 = time.perf_counter()
    chosen = select_two_step(samples, rule, symbol, beta, grid, grid, eval_grid)
    return {"select_s": time.perf_counter() - t0, "alpha": chosen.alpha,
            "lambda": chosen.lam, "facts": machine_facts()}


def cmd_cli(args) -> dict:
    import sphere_reg.cli as cli

    tracer = _tracer(args.trace)
    try:
        code = cli.main(args.cli_args)
    finally:
        tracer.dump(args.spans)
    return {"exit": code}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("fig1")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--results-dir")
    p.add_argument("--trials", type=int, default=0, help="override trials per case")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", choices=("none", "time", "memory"), default="none")
    p.add_argument("--spans")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("check-fig1")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--results-dir", required=True)
    p.set_defaults(func=cmd_check_fig1)

    p = sub.add_parser("prep-solve")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_prep_solve)

    p = sub.add_parser("cli")
    p.add_argument("--trace", choices=("time", "memory"), required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)

    p = sub.add_parser("scale")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.set_defaults(func=cmd_scale)

    args = parser.parse_args()
    out = args.func(args)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return out.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())

"""sphere-reg benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload fig1-protocol --seed 31415 --seconds 40 --trace 0

Run from a checkout that holds ``src/sphere_reg``; the package is imported
from there, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` runs the traced passes
that give the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the machine facts, the checks and the figures under the names
the workload notes use.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import aggregate  # noqa: E402
from worker import SYMBOL  # noqa: E402

WORKLOADS = ("fig1-protocol", "solve-auto-M56")
SOLVE_M = 56
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SPHERE_REG_THREADS")
CLI_ENTRY = "import sys; from sphere_reg.cli import main; sys.exit(main())"

END_TO_END = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# (span name, quantities); spans come from tracer.TARGETS.
LAYERS = [
    ("harmonics.basis_matrix", ("s", "calls", "mb", "peak_mb")),
    ("quadrature.sphere_rule", ("s", "calls")),
    ("operators.analyze", ("s", "calls")),
    ("operators.synthesize", ("s", "calls")),
    ("smoothing.smooth", ("s", "calls")),
    ("collocation.two_step_solve", ("s", "calls")),
    ("selection.two_step", ("s", "calls", "peak_mb")),
    ("selection.one_param", ("s", "calls")),
    ("selection.degree_fields", ("s",)),
    ("selection.eval_grid_basis", ("s",)),
    ("selection.sup_norm", ("s", "calls")),
    ("experiments.simulate_problem", ("s",)),
    ("experiments.relative_sup_error", ("s",)),
    ("cli.read_samples_csv", ("s",)),
    ("cli.write_coeffs_csv", ("s",)),
    ("cli.write_trace_csv", ("s",)),
]
UNITS = {"s": "s", "calls": "count", "mb": "MB-computed", "peak_mb": "MB"}
RUN_METRICS = ("run.untraced_s", "run.traced_s", "run.tracing_overhead_s", "run.traced_s.1t")

RUN_BUDGET_S = 170.0
SOLVE_MIN_INVOCATIONS = 3
SOLVE_SETUP_REPEATS = 7
FIG1_SETUP_REPEATS = 4
TRACED_INVOCATIONS = 3


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for suffix in ("", ".1t"):
        for span, quantities in LAYERS:
            for q in quantities:
                if suffix and q == "peak_mb":
                    continue  # memory is traced once, at the default thread count
                units[f"{span}.{q}{suffix}"] = UNITS[q]
        units[f"experiments.trials{suffix}"] = "count"
    for name in RUN_METRICS:
        units[name] = "s"
    return units


class Run:
    """One benchmark invocation: its temporary directory, deadline and checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.checks: list[dict] = []
        self.facts: dict | None = None

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def env(self, single_thread: bool = False) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(SRC)
        if single_thread:
            env["OPENBLAS_NUM_THREADS"] = "1"
            env["SPHERE_REG_THREADS"] = "1"
        return env

    def child(self, argv: list[str], single_thread: bool = False, timeout: float = 120.0):
        """Run a child to exit; return (exit code, wall s, peak RSS MB, stdout)."""
        timeout = min(timeout, self.deadline - time.perf_counter())
        if timeout <= 0:
            raise TimeoutError("run budget exhausted")
        fd, out_path = tempfile.mkstemp(dir=self.tmp, suffix=".stdout")
        with os.fdopen(fd, "w") as out, open(out_path + ".err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env(single_thread),
                                    stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(out_path + ".err") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, stdout

    def worker(self, mode: str, *args, single_thread: bool = False, timeout: float = 120.0):
        """Run a worker.py mode; return (its JSON output or None, wall, peak RSS MB)."""
        fd, out_path = tempfile.mkstemp(dir=self.tmp, suffix=".json")
        os.close(fd)
        code, wall, rss, _ = self.child(
            [sys.executable, str(HERE / "worker.py"), "--out", out_path, mode,
             *map(str, args)],
            single_thread=single_thread, timeout=timeout)
        if code != 0:
            self.check(f"worker {mode} exit", False, f"exit {code}")
            return None, wall, rss
        with open(out_path) as fh:
            out = json.load(fh)
        if self.facts is None and "facts" in out:
            self.facts = out["facts"]
            self.check("package from checkout",
                       Path(out["facts"]["sphere_reg_file"]).resolve().is_relative_to(SRC),
                       out["facts"]["sphere_reg_file"])
        return out, wall, rss


# ---------------------------------------------------------------------------
# fig1-protocol


def fig1_untraced(run: Run) -> dict:
    setups = []
    for _ in range(FIG1_SETUP_REPEATS - 1):
        out, _, _ = run.worker("fig1", "--seed", run.seed, "--setup-only")
        if out:
            setups.append(out["setup_s"])
    results = run.tmp / "results"
    results.mkdir()
    main, _, rss = run.worker("fig1", "--seed", run.seed, "--seconds", run.seconds,
                              "--results-dir", results)
    attempted = 50
    if main is None:
        return {"attempted": attempted, "failed": attempted}
    setups.append(main["setup_s"])
    attempted = main["case_trials"] * len(main["case_s"])
    failed = {tuple(x) for x in main["nonfinite"]}
    run.check("relative errors finite", not failed, main["nonfinite"])

    checked, _, _ = run.worker("check-fig1", "--seed", run.seed, "--results-dir", results)
    if checked is None:
        failed.update(("oracle", i) for i in range(5))
    else:
        for c in checked["checks"]:
            if not run.check("chosen pair equals brute-force oracle", c["ok"], c):
                failed.add((c["case"], c["trial"]))

    trials_per_s = main["case_trials"] / statistics.median(main["case_s"])
    return {
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            "ops_per_s": trials_per_s,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setups),
        },
        "report": {
            "trials_per_s": trials_per_s,
            "case_s_samples": main["case_s"],
            "setup_s_samples": setups,
            "leader_ratio_max": max(main["ratios"].values()),
            "leader_ratios": main["ratios"],
            "output_sha256": main["digest"],
        },
    }


def fig1_traced(run: Run) -> dict:
    """Untraced, time-traced, single-threaded and memory-traced passes."""
    outs, layers = {}, {}
    for key, mode, extra, single in (("plain", "none", (), False),
                                     ("time", "time", (), False),
                                     ("1t", "time", (), True),
                                     ("memory", "memory", ("--trials", 1), False)):
        spans = run.tmp / f"{key}.spans.json"
        out, _, _ = run.worker("fig1", "--seed", run.seed, "--results-dir", _mk(run, key),
                               "--trace", mode, "--spans", spans, *extra,
                               single_thread=single)
        if out is None:
            continue
        outs[key] = out
        run.check(f"{key} relative errors finite", not out["nonfinite"], out["nonfinite"])
        if mode != "none":
            layers[key] = _layer_values(aggregate(json.loads(spans.read_text())))
            layers[key]["run.wall_s"] = sum(out["case_s"])
    attempted = sum(out["trials"] for out in outs.values()) or 1
    if len(outs) < 4:
        return {"attempted": attempted, "failed": attempted}
    run.check("traced results CSVs equal the untraced ones",
              outs["time"]["digest"] == outs["plain"]["digest"])
    run.check("single-threaded results CSVs agree with the untraced ones",
              all(_agree((run.tmp / "1t" / f.name).read_bytes(), f.read_bytes())
                  for f in sorted((run.tmp / "plain").iterdir())))
    return {"attempted": attempted, "failed": 0,
            "metrics": _layer_metrics(layers, sum(outs["plain"]["case_s"])),
            "report": {"output_sha256": outs["plain"]["digest"]}}


def _mk(run: Run, name: str) -> Path:
    path = run.tmp / name
    path.mkdir()
    return path


# ---------------------------------------------------------------------------
# solve workloads


def solve_prep(run: Run):
    prep, _, _ = run.worker("prep-solve", "--seed", run.seed, "--M", SOLVE_M,
                            "--dir", run.tmp, timeout=60)
    if prep is None:
        return None
    expected = {"stdout": prep["stdout"],
                "coeffs": (run.tmp / "expected_coeffs.csv").read_bytes(),
                "trace": (run.tmp / "expected_trace.csv").read_bytes()}
    return prep["samples"], expected


def invoke_cli(run: Run, samples: str, expected: dict,
               trace: str = "none", single_thread: bool = False):
    """One cold `sphere-reg solve --auto`; returns (ok, wall, rss, spans or None)."""
    coeffs, trace_csv = run.tmp / "coeffs.csv", run.tmp / "trace.csv"
    spans = run.tmp / "cli.spans.json"
    for path in (coeffs, trace_csv, spans):
        path.unlink(missing_ok=True)
    argv = ["solve", samples, "--M", str(SOLVE_M), "--symbol", SYMBOL,
            "--auto", "--trace", str(trace_csv), "-o", str(coeffs)]
    if trace == "none":
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(run.tmp / "cli.json"),
               "cli", "--trace", trace, "--spans", str(spans), *argv]
    code, wall, rss, stdout = run.child(cmd, single_thread=single_thread, timeout=60)
    ok = run.check("cli exit 0", code == 0, code)
    ok &= run.check("cli printed pair equals in-process", stdout == expected["stdout"],
                    stdout.strip())
    for what, path, want in (("coefficient", coeffs, expected["coeffs"]),
                             ("trace", trace_csv, expected["trace"])):
        if single_thread:
            ok &= run.check(f"single-threaded cli {what} CSV agrees with in-process",
                            path.exists() and _agree(path.read_bytes(), want))
        else:
            ok &= run.check(f"cli {what} CSV equals in-process",
                            path.exists() and path.read_bytes() == want)
    span_list = json.loads(spans.read_text()) if trace != "none" and spans.exists() else None
    return ok, wall, rss, span_list


def solve_untraced(run: Run) -> dict:
    prepared = solve_prep(run)
    if prepared is None:
        return {"attempted": 1, "failed": 1}
    samples, expected = prepared
    # One untimed (but checked) invocation first: the first process after the
    # memory-heavy preparation runs measurably slower than the rest.  The
    # set-up samples come after the timed loop, so nothing separates the
    # preparation, the warm-up and the timed invocations.
    failed = int(not invoke_cli(run, samples, expected)[0])
    walls, rss = [], []
    started = time.perf_counter()
    while len(walls) < SOLVE_MIN_INVOCATIONS or (
            time.perf_counter() - started + statistics.median(walls) <= run.seconds):
        ok, wall, peak, _ = invoke_cli(run, samples, expected)
        walls.append(wall)
        rss.append(peak)
        failed += not ok
    setups = [run.child([sys.executable, "-c", "import sphere_reg.cli"])[1]
              for _ in range(SOLVE_SETUP_REPEATS)]
    solve_s = statistics.median(walls)
    return {
        "attempted": len(walls) + 1,
        "failed": failed,
        "metrics": {
            "ops_per_s": 1.0 / solve_s,
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setups),
        },
        "report": {"solve_s": solve_s, "solve_s_samples": walls, "peak_rss_mb_samples": rss,
                   "setup_s_samples": setups, "output_sha256": _sha(expected["coeffs"]),
                   "selected": expected["stdout"].strip()},
    }


def solve_traced(run: Run) -> dict:
    prepared = solve_prep(run)
    if prepared is None:
        return {"attempted": 1, "failed": 1}
    samples, expected = prepared
    walls, layers, failed, attempted = {}, {}, 0, 0
    for key, trace, single, count in (("plain", "none", False, TRACED_INVOCATIONS),
                                      ("time", "time", False, TRACED_INVOCATIONS),
                                      ("1t", "time", True, TRACED_INVOCATIONS),
                                      ("memory", "memory", False, 1)):
        per_invocation = []
        for _ in range(count):
            ok, wall, _, spans = invoke_cli(run, samples, expected, trace, single)
            attempted += 1
            failed += not ok or (trace != "none" and spans is None)
            walls.setdefault(key, []).append(wall)
            if spans is not None:
                per_invocation.append(_layer_values(aggregate(spans)) | {"run.wall_s": wall})
        if per_invocation:
            layers[key] = {name: statistics.median(v[name] for v in per_invocation)
                           for name in per_invocation[0]}
    if failed or len(layers) < 3:
        return {"attempted": attempted, "failed": max(failed, 1)}
    return {"attempted": attempted, "failed": 0,
            "metrics": _layer_metrics(layers, statistics.median(walls["plain"])),
            "report": {"output_sha256": _sha(expected["coeffs"])}}


def _agree(got: bytes, want: bytes, rtol: float = 1e-12) -> bool:
    """Same text up to numbers that differ by at most rtol * max(1, |want|).

    A different BLAS thread count sums in another order, so single-threaded
    outputs are held to this tolerance, and to exact equality elsewhere.
    """
    got_tokens = re.split(r"[,\s=]+", got.decode())
    want_tokens = re.split(r"[,\s=]+", want.decode())
    if len(got_tokens) != len(want_tokens):
        return False
    for g, w in zip(got_tokens, want_tokens):
        if g == w:
            continue
        try:
            g_val, w_val = float(g), float(w)
        except ValueError:
            return False
        if not abs(g_val - w_val) <= rtol * max(1.0, abs(w_val)):
            return False
    return True


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# per-layer assembly


def _layer_values(agg: dict) -> dict:
    values = {}
    for span, quantities in LAYERS:
        entry = agg.get(span, {"s": 0.0, "calls": 0, "mb": 0.0, "peak_mb": 0.0})
        for q in quantities:
            values[f"{span}.{q}"] = entry[q]
    values["experiments.trials"] = agg.get("experiments.simulate_problem", {}).get("calls", 0)
    return values


def _layer_metrics(layers: dict, untraced_s: float) -> dict:
    """Merge the time, 1t and memory passes under the per-layer names."""
    units = layer_metric_units()
    values = {}
    for name, value in layers["time"].items():
        if not name.endswith(".peak_mb") and name != "run.wall_s":
            values[name] = value
    for name, value in layers["1t"].items():
        if not name.endswith(".peak_mb") and name != "run.wall_s":
            values[name + ".1t"] = value
    for name, value in layers["memory"].items():
        if name.endswith(".peak_mb"):
            values[name] = value
    values["run.untraced_s"] = untraced_s
    values["run.traced_s"] = layers["time"]["run.wall_s"]
    values["run.tracing_overhead_s"] = layers["time"]["run.wall_s"] - untraced_s
    values["run.traced_s.1t"] = layers["1t"]["run.wall_s"]
    return {name: values[name] for name in units}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "sphere_reg" / "__init__.py").is_file():
        print(f"error: no sphere_reg package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "fig1-protocol":
            result = (fig1_traced if run.trace else fig1_untraced)(run)
        else:
            result = (solve_traced if run.trace else solve_untraced)(run)
    except TimeoutError as exc:
        run.check("within run budget", False, str(exc))
        result = {"attempted": 1, "failed": 1}
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)

    units = layer_metric_units() if run.trace else END_TO_END
    metrics = result.get("metrics")
    correct = metrics is not None and result["failed"] == 0 and all(
        c["ok"] for c in run.checks)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": run.facts,
        "failed_share": result["failed"] / result["attempted"],
        "failed_checks": [c for c in run.checks if not c["ok"]],
        "checks_passed": sum(c["ok"] for c in run.checks),
        **result.get("report", {}),
    }
    print(json.dumps(report))
    if metrics is None:
        print("error: workload did not complete", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

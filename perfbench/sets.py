"""Run sets of benchmark runs and summarize them per workload and metric.

    python3 perfbench/sets.py --seeds 101-110 --output perfbench/out/set.json

Runs ``run.py`` once per (workload, seed), one after another, with
``--trace 0``, then once per workload with ``--trace 1`` at the first seed,
and writes, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  Every run of a seed must
report the same output digest (the traced run repeats the first seed), and
every run must be correct; otherwise the exit code is 1.  Use it for
before/after comparisons: the same seeds and ``--seconds`` on both commits,
on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    from run import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--output", default=str(HERE / "out" / "set.json"))
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            report, result = run_once(workload, seed, args.seconds, 0)
            runs.append({"report": report, "result": result})
            print(workload, seed, json.dumps(result), file=sys.stderr)
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "facts": {k: v for k, v in runs[0]["report"]["facts"].items()
                      if k != "sphere_reg_file"},
            "end_to_end": {
                name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                | {"unit": runs[0]["result"]["metrics"][name]["unit"]}
                for name in runs[0]["result"]["metrics"]
            },
            "reports": [{k: v for k, v in r["report"].items()
                         if k not in ("facts", "failed_checks")} for r in runs],
        }
        report, result = run_once(workload, seeds[0], args.seconds, 1)
        entry["per_layer"] = {"seed": seeds[0], "correct": result["correct"],
                              "metrics": result["metrics"]}
        digests = {}
        for seed, r in [*zip(seeds, (r["report"] for r in runs)), (seeds[0], report)]:
            digests.setdefault(seed, set()).add(r["output_sha256"])
        entry["same_output_per_seed"] = all(len(d) == 1 for d in digests.values())
        ok &= entry["correct"] and entry["per_layer"]["correct"]
        ok &= entry["same_output_per_seed"]
        summary["workloads"][workload] = entry
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    Path(args.output).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

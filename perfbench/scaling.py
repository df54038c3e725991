"""M-scaling record: one select_two_step call per degree, each in its own process.

    python3 perfbench/scaling.py --seed 31415 --output perfbench/scaling.json

For each M in {16, 30, 40, 56} a ``worker.py scale`` child builds the
inputs ``sphere-reg solve --auto`` uses by default on seeded
geometric(1.48) samples and runs ``select_two_step`` on the 51 x 51 grids
(zero included).  It records the call's wall time and the child's peak
RSS.  An M whose expected peak exceeds MemAvailable from /proc/meminfo is
skipped and reported as skipped.  The record is ungated; it documents the
growth of the dense sup-grid basis, T x (M+1)^2 doubles with
T = 2(2M+1)^2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import HERE, SRC, Run
from worker import _meminfo

DEGREES = (16, 30, 40, 56)
# Peak RSS measured at these degrees stays below interpreter + 3.5 x sup basis.
BASE_MB, BASIS_FACTOR = 150.0, 3.5


def expected_peak_mb(M: int) -> float:
    basis_mb = 8 * 2 * (2 * M + 1) ** 2 * (M + 1) ** 2 / 1e6
    return BASE_MB + BASIS_FACTOR * basis_mb


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=31415)
    parser.add_argument("--output", default=str(HERE / "out" / "scaling.json"))
    args = parser.parse_args()
    if not (SRC / "sphere_reg").is_dir():
        print(f"error: no sphere_reg package under {SRC}", file=sys.stderr)
        return 2

    run = Run("scaling", args.seed, 0, False)
    rows = []
    try:
        for M in DEGREES:
            available_mb = _meminfo().get("MemAvailable", 0) / 1e3
            row = {"M": M, "expected_peak_mb": expected_peak_mb(M),
                   "mem_available_mb": available_mb}
            if row["expected_peak_mb"] > available_mb:
                rows.append(row | {"skipped": True})
                continue
            out, _, rss = run.worker("scale", "--seed", args.seed, "--M", M)
            if out is None:
                rows.append(row | {"skipped": False, "error": "worker failed"})
                continue
            out.pop("facts", None)
            rows.append(row | out | {"skipped": False, "peak_rss_mb": rss})
            print(json.dumps(rows[-1]), file=sys.stderr)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    facts = {k: v for k, v in (run.facts or {}).items() if k != "sphere_reg_file"}
    record = {"seed": args.seed, "facts": facts, "rows": rows}
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if all(c["ok"] for c in run.checks) else 1


if __name__ == "__main__":
    sys.exit(main())

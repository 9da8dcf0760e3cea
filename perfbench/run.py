"""paramdex benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pretrain|dense|retrieve --seed N --seconds S --trace 0|1

Run from the repository root. The process sets its BLAS to one thread
through the environment before numpy loads, builds (or reuses) the seeded
fixture under .perfbench_work/, sets up several times, then repeats the
workload's pass for S seconds. It prints a full report as one JSON line,
then the result line: correct, attempted, failed and the metrics (the
end-to-end ones, or with --trace 1 the per-module ones).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread: the scheduler stays out of the numbers (set before numpy loads)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("pretrain", "dense", "retrieve")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paramdex benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "paramdex").is_dir():
        print(f"error: no paramdex source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parents[1])]

    from perfbench import bench, machine

    result, report = bench.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root)
    report["machine"] = machine.facts(BLAS_ENV)
    bench.write_report(root, report)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that the count metrics repeat exactly between two traced runs.

    python3 perfbench/check_counts.py --workload search --seed 3 --seconds 10

Runs ``run.py --trace 1`` twice with the same arguments and compares every
per-layer metric that is a count or a ratio of counts. Exits 1 on any
difference. Times are not compared.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = {"count", "calls/step", "ratio", "bytes"}


def traced_metrics(args) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
        ],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run reported correct=false:\n{done.stdout}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    first, second = traced_metrics(args), traced_metrics(args)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    for name, (a, b) in differ.items():
        print(f"{name}: {a!r} != {b!r}")
    print(f"{args.workload}: {len(first)} count metrics, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

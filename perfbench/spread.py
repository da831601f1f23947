"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 --seconds 30 --trace 0

Runs perfbench/run.py once per seed, one run at a time, and prints a JSON
object with every run's metrics and, per metric, the median, the quartiles
from statistics.quantiles(n=4) and their distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(json.dumps(runs[-1]), file=sys.stderr)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": first["unit"],
            "median": statistics.median(values),
            "p25": q1,
            "p75": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    print(json.dumps({
        "workload": args.workload,
        "seconds": float(args.seconds),
        "trace": int(args.trace),
        "seeds": args.seeds,
        "all_correct": all(run["correct"] for run in runs),
        "metrics": summary,
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

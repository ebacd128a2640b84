"""Print every end-to-end and per-layer metric of every workload as a table.

    python3 bench/report.py --seed 1 --seconds 30

Runs `bench/run.py` twice per workload, untraced then traced, from the root
of the checkout.  Exits non-zero when any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: failed\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"# {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:18s} {name:28s} {metric['value']:14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())

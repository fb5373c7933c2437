"""Run one workload over several seeds and print each metric's median and spread.

    python3 bench/spread.py --workload cold-run --seeds 1-10

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure BENCHMARK.json's bounds are set against. Steal and
other tenants' CPU are summarised from each run's ``host:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    hosts = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        result = json.loads(out[-1])
        hosts.append(json.loads(out[-2].removeprefix("host: ")))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{args.workload} {name}: median {med:.5g}, spread {100 * spread:.2f}%")
    for key in hosts[0]:
        print(f"{args.workload} host {key}: median {statistics.median(h[key] for h in hosts):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

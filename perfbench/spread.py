#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0] [workload ...]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json. Use it to check that the benchmark is steady before
relying on a comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            result = json.loads(out.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect or failed: {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = " OVER" if bound and spread > bound / 3 else ""
            print(f"{workload:18} {name:40} median {med:<12.6g} "
                  f"spread {spread:7.4f} bound {bound}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload tail --seeds 1-5 [--seconds 30] [--trace 0]
    python3 perfbench/spread.py --workload all --seeds 1-10

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the interquartile range as a
share of the median, next to the metric's bound from BENCHMARK.json.
Exits nonzero if any run fails or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(workload, seed_list, seconds, trace, bounds):
    here = os.path.dirname(os.path.abspath(__file__))
    values = {}
    ok = True
    for seed in seed_list:
        run = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True, check=False)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if run.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()), flush=True)
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{workload} {name}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {share:.4f}  bound {bounds.get(name)}", flush=True)
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]] if a.workload == "all" else [a.workload]
    ok = True
    for workload in names:
        ok &= spread(workload, seeds(a.seeds), a.seconds, a.trace, bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

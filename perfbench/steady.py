#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload N times, each run a fresh process with its own seed,
and prints for every declared metric its median and its spread — the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median — against the metric's bound from
BENCHMARK.json:

    python3 perfbench/steady.py --runs 10 [--workloads shard_direct,...]
        [--seed-base 1] [--seconds 30] [--trace 0] [--save first.json]
        [--compare first.json]

The workloads default to those BENCHMARK.json declares. A spread under
a third of the bound reads "steady"; under the bound "wide"; over it
"FAIL". --compare checks that each median is no worse than the saved
run's median by more than the bound. Exit status 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance over the median (statistics.quantiles, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worse_by(old, new, better):
    """How much worse \\p new is than \\p old, as a share of \\p old
    (negative when it is better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    return (new - old) / old if better == "lower" else (old - new) / old


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        print(f"  {workload} seed {seed}: run failed (exit {done.returncode})")
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: a correctness gate failed")
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated workload names")
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="write the medians to this JSON file")
    p.add_argument("--compare", help="JSON file saved by an earlier --save")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    ok = True
    saved = {}
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            got = run(workload, args.seed_base + i, seconds, args.trace)
            if got is None:
                ok = False
                continue
            for k, v in got.items():
                values.setdefault(k, []).append(v)
        print(f"\n{workload}: {len(values.get(declared[0]['name'], []))} good runs"
              f" of {args.runs}, {seconds:g} s each")
        print(f"  {'metric':34} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        saved[workload] = {}
        for m in declared:
            vals = values.get(m["name"], [])
            if len(vals) < 2:
                print(f"  {m['name']:34} {'(too few runs)':>12}")
                ok = False
                continue
            median = statistics.median(vals)
            saved[workload][m["name"]] = median
            bound = m.get("bound")
            s = spread(vals)
            if bound is None:
                verdict = ""
            elif s < bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "wide"
            else:
                verdict, ok = "FAIL", False
            if bound is not None and m["name"] in earlier.get(workload, {}):
                w = worse_by(earlier[workload][m["name"]], median, m["better"])
                verdict += f"; vs saved {w:+.1%}"
                if w > bound:
                    verdict += " FAIL"
                    ok = False
            print(f"  {m['name']:34} {median:12.5g} {s:8.1%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

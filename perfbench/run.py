#!/usr/bin/env python3
"""Build and run the libsting end-to-end benchmark.

One workload, as BENCHMARK.json's command runs it (from the repository
root):

    python3 perfbench/run.py --workload router_keyed --seed 1 --seconds 30 --trace 0

builds perfbench/ (which compiles ../src unchanged) into $CARGO_TARGET_DIR
or .bench_build, runs the stingbench program (untraced: MACHINES fresh
processes, merged), checks its correctness gates, prints a table of
every metric with its unit and sample count, and ends with one JSON line
holding the metrics BENCHMARK.json declares (end_to_end with --trace 0,
per_layer with --trace 1).

Every workload, untraced and traced, with every metric stingbench
measures (the workload-specific read, wildcard-take and job latencies
and fail_ratio included):

    python3 perfbench/run.py --all --seed 1 [--seconds 30]

Self-check of stingbench's statistics and of the merge and spread
arithmetic:

    python3 perfbench/run.py --selfcheck

Exit status: 0 when every gate held, 1 on a failed gate or a missing
metric, 2 when the program cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("router_keyed", "replicated_mix", "substrate_farm", "shard_direct",
             "tuple_pingpong")

# A run that builds may take this long in all; any other run 180 s.
BUILD_RUN_LIMIT_S = 880
RUN_LIMIT_S = 175

# An untraced run measures this many machines, each in a fresh process
# for 1/MACHINES of --seconds, and reports medians over them. A machine's
# throughput is set when it is built and holds for its life, and each
# process's set-up times share a level of their own; medians over several
# processes spread through the run repeat better than one long process.
MACHINES = 12


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    """Configures (once) and builds \\p target. Returns True when it compiled
    anything, so the caller can grant the longer first-run limit."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    configured = os.path.isfile(os.path.join(out, "CMakeCache.txt"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    started = time.monotonic()
    done = subprocess.run(
        ["cmake", "--build", out, "--target", target, "-j", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_RUN_LIMIT_S)
    if done.returncode:
        sys.stderr.write(done.stdout)
        fail(f"build of {target} failed")
    return not configured or time.monotonic() - started > 5


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_bench(workload, seed, seconds, trace, limit_s):
    """Runs stingbench once; returns its parsed result line."""
    cmd = [os.path.join(build_dir(), "stingbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", os.path.join(build_dir(), "traces")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(10, limit_s))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {limit_s:.0f} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: stingbench printed nothing (exit {done.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: unreadable stingbench output: {lines[-1][:200]}")


def merge(results):
    """One result from the MACHINES processes of an untraced run: setup_s
    is the median over every build, counts and attempts are summed, the
    fail ratio is recomputed from the sums, and every other metric is the
    median over the processes."""
    out = dict(results[0])
    out["attempted"] = sum(r["attempted"] for r in results)
    out["failed"] = sum(r["failed"] for r in results)
    out["correct"] = all(r["correct"] for r in results)
    out["gates"] = [g for r in results for g in r["gates"]]
    builds = [x for r in results for x in r["setup_s_samples"]]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        got = [r["metrics"][name] for r in results if name in r["metrics"]]
        n = sum(m["n"] for m in got)
        if name == "setup_s":
            value, n = statistics.median(builds), len(builds)
        elif name == "fail_ratio":
            value = out["failed"] / out["attempted"] if out["attempted"] else 0.0
        elif first["unit"] == "count":
            value = sum(m["value"] for m in got)
        else:
            value = statistics.median(m["value"] for m in got)
        metrics[name] = {"value": value, "unit": first["unit"], "n": n}
    out["metrics"] = metrics
    return out


def measure(workload, seed, seconds, trace, limit_s):
    """One run of \\p workload: a single traced process, or MACHINES
    untraced ones merged."""
    if trace:
        return run_bench(workload, seed, seconds, True, limit_s)
    deadline = time.monotonic() + limit_s
    return merge([run_bench(workload, seed, seconds / MACHINES, False,
                            deadline - time.monotonic())
                  for _ in range(MACHINES)])


def print_table(result, declared_names):
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}"
          f" correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")
    print(f"{'metric':40} {'value':>16} {'unit':10} {'samples':>8}")
    for name, m in result["metrics"].items():
        mark = "" if name in declared_names else "  (not in BENCHMARK.json)"
        print(f"{name:40} {m['value']:16.6g} {m['unit']:10} {m['n']:8}{mark}")
    for g in result["gates"]:
        print(f"gate {'ok  ' if g['ok'] else 'FAIL'} {g['what']}")


def result_line(result, declared):
    """The final line: exactly the declared metrics, value and unit."""
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"{result['workload']}: metric {m['name']} was not measured", 1)
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != declared {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def run_one(args):
    started = time.monotonic()
    built = build("stingbench")
    limit = (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - started)
    result = measure(args.workload, args.seed, args.seconds, args.trace, limit)
    declared = declared_metrics(args.trace)
    print_table(result, {m["name"] for m in declared})
    print(json.dumps(result_line(result, declared)), flush=True)
    return 0 if result["correct"] else 1


def run_all(args):
    build("stingbench")
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, args.seed, args.seconds, trace,
                             BUILD_RUN_LIMIT_S)
            print_table(result, {m["name"] for m in declared_metrics(trace)})
            print()
            ok = ok and bool(result["correct"])
    print("all correctness gates held" if ok else "A CORRECTNESS GATE FAILED")
    return 0 if ok else 1


def selfcheck():
    build("perfbench_selfcheck")
    code = subprocess.run([os.path.join(build_dir(), "perfbench_selfcheck")]).returncode
    py = [subprocess.run([sys.executable, os.path.join(HERE, "test", t)]).returncode
          for t in ("test_steady.py", "test_merge.py")]
    return 1 if code or any(py) else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload is required (or --all / --selfcheck)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

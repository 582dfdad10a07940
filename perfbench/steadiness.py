#!/usr/bin/env python3
"""Run one perfbench workload repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py --workload <name> [--runs 10] [--first-seed 1]
                                    [--seconds 20] [--trace 0|1]

Each run gets its own seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and their distance as a share of the
median -- the spread two sets of runs of the same code have to agree
within. With --bench the spread is checked against the bounds in
BENCHMARK.json and the script exits 1 if any end-to-end metric spreads
wider than a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run with seed %d failed (exit %d)" % (seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("run with seed %d reported incorrect outputs" % seed)
    return result


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bench", action="store_true",
                        help="check spreads against BENCHMARK.json bounds")
    args = parser.parse_args()

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("run %2d seed %-4d %s" % (i + 1, seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    limits = bounds() if args.bench else {}
    too_wide = []
    print("\n%-28s %12s %12s %12s %8s %8s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  WIDE"
            too_wide.append(name)
        print("%-28s %12.6g %12.6g %12.6g %8.4f %8s  %s%s" % (
            name, med, q1, q3, spread, "-" if bound is None else "%.3f" % bound,
            units[name], flag))
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the perfbench binary (Release) under $CARGO_TARGET_DIR (default
.bench_build)/perfbench; later calls only check the build is current. Build
output goes to stderr, so the last line of stdout is the binary's JSON
result. A traced run (--trace 1) also writes its spans, as Chrome
trace-event JSON, to trace-<workload>-<seed>.json in that build directory.
Exits nonzero, without a result, when the sources or the build are missing.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("shared_pu_duel", "shared_pu_cobatch")
# A run measures for --seconds plus its set-up; anything past this is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp")):
        print("perfbench: no mfdfp sources in %s/src" % ROOT, file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if os.path.isfile(os.path.join(out, "CMakeCache.txt")) else [configure]
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 2
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

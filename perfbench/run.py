#!/usr/bin/env python3
"""Builds and runs the fxdist benchmark for one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <local_zipf|remote_uniform|ingest_sweep>
                             --seed <n> --seconds <s> --trace <0|1>

The program is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with CMake,
Release mode.  Build output goes to standard error.  With --trace 1 the
decorator identity test runs first.  The benchmark's report is passed
through to standard output; its last line is the JSON result.  The exit
code is nonzero when the build, the identity test or any correctness
check fails; no result line is printed when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("local_zipf", "remote_uniform", "ingest_sweep")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns False on any failure."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "sim",
                                       "storage_backend.h")):
        log("fxdist sources not found next to the benchmark directory")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    metrics = result["metrics"]
    return isinstance(metrics, dict) and bool(metrics) and all(
        set(m) == {"value", "unit"} for m in metrics.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        return 2

    if args.trace:
        test = subprocess.run([os.path.join(build_dir,
                                            "perfbench_identity_test")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        if test.returncode != 0:
            log("decorator identity test failed")
            return 1

    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--span-dir", span_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        log(f"benchmark exited with {run.returncode}")
        return run.returncode
    if not valid_result(lines[-1]):
        log("benchmark printed no valid result line")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the consensus and KV service code.

Run from the repository root:

    python3 perfbench/run.py --workload kv_single_loop --seed 1 --seconds 45 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt, Release) under the
directory named by CARGO_TARGET_DIR, default .bench_build, then runs the
workload once. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Build logs go to standard
error. Exits non-zero without a result if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

# kv_open_loop and kv_capacity are not in BENCHMARK.json: the open loop's
# latency is too noisy for its bound, and kv_capacity measures the capacity
# that the open loop's offered rate is derived from (see README.md).
WORKLOADS = ("kv_single_loop", "fig2_byzantine", "kv_open_loop",
             "kv_capacity")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    driver = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, out = run([driver, "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print("perfbench: driver exited with %d" % code, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed driver result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

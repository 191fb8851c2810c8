#!/usr/bin/env python3
"""Builds and runs the repository benchmark (one workload, one seed).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The rs library and perfbench are built
from source with CMake (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; the first run builds,
later runs reuse the build. Build output goes to standard error, so the
last line of standard output is perfbench's JSON result. Spans of a traced
run are written under the build directory, in traces/<workload>.tsv.

The exit status is perfbench's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("f2_ingest", "f0_fleet", "adaptive_game")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-dir", traces]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: runs each workload over several seeds and reports,
per end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] \
        [--first-seed 1] [--seconds S] [--out set.json] [--against old.json]

Run from the root of a checkout. --seconds defaults to run_seconds.
--out saves every run's result; --against compares this set's medians
with a saved set, as a second set of runs of the same code must agree.
A spread or a drift above the bound is marked FAIL; above a third of the
bound, WARN. setup_s is exempt from the spread check (its bound applies to
the drift only). --repeat-seed N runs seed N twice per workload and checks
that the counts (attempted, failed, failed_share, footprint_mib,
snapshot_mib) repeat exactly. The exit status is 1 if anything failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("failed_share", "footprint_mib", "snapshot_mib")


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace="0"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_share(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--against")
    parser.add_argument("--repeat-seed", type=int)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    failed = False

    if args.repeat_seed is not None:
        for w in workloads:
            a = run_once(w, args.repeat_seed, args.seconds)
            b = run_once(w, args.repeat_seed, args.seconds)
            keys = ["attempted", "failed"]
            same = all(a[k] == b[k] for k in keys) and all(
                a["metrics"][k]["value"] == b["metrics"][k]["value"]
                for k in EXACT)
            print("%-14s seed %d counts repeat: %s" %
                  (w, args.repeat_seed, "yes" if same else "NO"))
            failed |= not same
        return 1 if failed else 0

    runs = {}
    for w in workloads:
        runs[w] = []
        for i in range(args.seeds):
            seed = args.first_seed + i
            r = run_once(w, seed, args.seconds)
            runs[w].append(r)
            print("%-14s seed %-4d wall %6.1f s correct=%s failed=%d/%d" %
                  (w, seed, r["wall_s"], r["correct"], r["failed"],
                   r["attempted"]), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    old = None
    if args.against:
        with open(args.against) as f:
            old = json.load(f)

    print("%-14s %-14s %14s %14s %14s %8s %6s %8s %s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "drift", "verdict"))
    for w in workloads:
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs[w]
                      if name in r["metrics"]]
            if len(values) < 2:
                continue
            med, q1, q3, sp = spread(values)
            verdict = "ok"
            if name != "setup_s" and sp > m["bound"]:
                verdict = "FAIL"
            elif name != "setup_s" and sp > m["bound"] / 3:
                verdict = "WARN"
            drift = ""
            if old is not None and w in old:
                old_values = [r["metrics"][name]["value"] for r in old[w]
                              if name in r["metrics"]]
                if old_values:
                    d = worse_share(m, statistics.median(old_values), med)
                    drift = "%+.3f" % d
                    if d > m["bound"]:
                        verdict = "FAIL"
            failed |= verdict == "FAIL"
            print("%-14s %-14s %14.6g %14.6g %14.6g %8.4f %6.3f %8s %s" %
                  (w, name, med, q1, q3, sp, m["bound"], drift, verdict))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

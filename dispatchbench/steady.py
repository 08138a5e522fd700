#!/usr/bin/env python3
"""Steadiness check for the dispatch benchmark.

Runs every workload N times in alternation (w1 w2 w3 w4 w1 w2 ...), run i
with seed i, for the run length BENCHMARK.json sets and with --trace 0, and
prints for each end-to-end metric its median, first and third quartile and
spread = (Q3 - Q1) / median, next to its bound in BENCHMARK.json. Quartiles
are Python's statistics.quantiles(values, n=4).

    python3 dispatchbench/steady.py --runs 10

Every run goes through run.py, exactly as a single benchmark run does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s" % " ".join(cmd))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            r = run_once(w, seed, bench["run_seconds"])
            results[w].append(r)
            print("seed %2d %-20s correct=%s attempted=%d failed=%d %s" % (
                seed, w, r["correct"], r["attempted"], r["failed"],
                " ".join("%s=%.6g" % (k, v["value"])
                         for k, v in r["metrics"].items())),
                  file=sys.stderr)

    print("%-20s %-20s %-8s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "spread",
        "bound"))
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%-20s %-20s %-8s %14s" % (w, "failed_share", "", shares))
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            print("%-20s %-20s %-8s %14.6g %14.6g %14.6g %8.4f %6s" % (
                w, name, metric["unit"], med, q1, q3, (q3 - q1) / med,
                bounds[name]))


if __name__ == "__main__":
    main()

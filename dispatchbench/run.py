#!/usr/bin/env python3
"""Builds the dispatch benchmark from source and runs one workload.

Usage (from the repository root):

    python3 dispatchbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 dispatchbench/run.py --selftest

The first call configures and compiles the program's libraries and the
benchmark into .bench_build/ (a few minutes); later calls only re-make what
changed. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["dispatch_bench", "route_check_test"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                 TARGETS)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("dispatchbench: build failed: %s\n" %
                             " ".join(step))
            return False
    return True


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        binary, args = os.path.join(BUILD, "route_check_test"), []
    else:
        binary, args = os.path.join(BUILD, "dispatch_bench"), argv
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("dispatchbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

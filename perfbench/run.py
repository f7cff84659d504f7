#!/usr/bin/env python3
"""Builds the repo benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <serve|churn_local|flash_hrw>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (against ../src) into .bench_build/; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve", "churn_local", "flash_hrw")
REFERENCE = ("event_cost",)  # ungated figures quoted by the README
RUN_TIMEOUT_S = 170


def run(command, timeout=None, stdout=None):
    """Runs `command` to its end and returns its exit status. The child
    is stopped and waited for if it overruns `timeout` seconds or this
    runner is interrupted, so no process outlives the runner."""
    child = subprocess.Popen(command, stdout=stdout, stderr=stdout)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit("perfbench: %s did not finish in %d s"
                 % (os.path.basename(command[0]), timeout))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "kv", "store.hpp")):
        sys.exit("perfbench: no library sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if run(step, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + REFERENCE)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int, default=0,
                        help="worker pool for the ungated concurrent figures")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0 or not 0 <= args.threads <= 64:
        parser.error("need --seconds >= 1, --seed >= 0, 0 <= --threads <= 64")
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(args.threads)]
    sys.exit(run(command, timeout=RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs one workload N times and prints each metric's median and quartiles.

    python3 perfbench/repeat.py --workload serve --runs 10 [--seconds 10]
                                [--first-seed 1] [--trace 0|1] [--json out]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median,
which is what each end-to-end bound in BENCHMARK.json is held against.
It also prints the same table for the wall-clock figures, each run's
reported figures unscaled by its host-speed factor (see the README),
and the factors themselves. With --trace 1 it also prints the tracing
overhead: the traced run's end-to-end figures against the untraced ones
(needs --baseline, a --json file written by an untraced repeat of the
same workload).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_PREFIX = "traced end-to-end: "
HOST_PREFIX = "host speed: "
TIME_UNITS = ("s", "ms", "us", "ns")


def wall_clock(metrics, factor):
    """The run's figures as timed, before the host-speed scaling."""
    wall = {}
    for name, metric in metrics.items():
        value = metric["value"]
        if metric["unit"] in TIME_UNITS:
            value /= factor
        elif metric["unit"] == "1/s":
            value *= factor
        wall[name] = value
    return wall


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("run failed (seed %d):\n%s" % (seed, done.stderr))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    traced, factor = {}, 1.0
    for line in lines[:-1]:
        if line.startswith(TRACED_PREFIX):
            traced = json.loads(line[len(TRACED_PREFIX):])
        if line.startswith(HOST_PREFIX):
            factor = float(line.split("factor ")[1].split(";")[0])
    return result, traced, factor, lines[:-1]


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def table(series, title):
    print(title)
    print("%-40s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                         "spread"))
    for name, values in series.items():
        median, q1, q3, spread = summarize(values)
        print("%-40s %14.6g %14.6g %14.6g %7.2f%%"
              % (name, median, q1, q3, 100 * spread))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json", help="write every run's metrics here")
    parser.add_argument("--baseline",
                        help="--json file of an untraced repeat, for the "
                             "tracing overhead")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    series, traced_series, wall_series, shares = {}, {}, {}, set()
    for i in range(args.runs):
        seed = args.first_seed + i
        result, traced, factor, notes = run_once(args.workload, seed,
                                                 args.seconds, args.trace)
        print("seed %d: correct=%s attempted=%d failed=%d"
              % (seed, result["correct"], result["attempted"],
                 result["failed"]), flush=True)
        for note in notes:
            if note.startswith("CHECK FAILED") or "FAULT" in note:
                print("  " + note)
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
        if args.trace == 0:
            wall_series.setdefault("host_factor", []).append(factor)
            for name, value in wall_clock(result["metrics"], factor).items():
                wall_series.setdefault(name, []).append(value)
        for name, metric in traced.items():
            traced_series.setdefault(name, []).append(metric["value"])

    table(series, "\n%s, %d runs of %d s, trace=%d"
          % (args.workload, args.runs, args.seconds, args.trace))
    print("failed share per run: %s" % sorted(shares))
    if wall_series:
        table(wall_series, "\nwall-clock figures (reported, unscaled by "
              "each run's host factor)")
    if traced_series:
        table(traced_series, "\ntraced end-to-end figures")
        if args.baseline:
            with open(args.baseline) as handle:
                base = json.load(handle)["series"]
            print("\ntracing overhead (traced median vs untraced median)")
            for name, values in traced_series.items():
                if name in base:
                    b = statistics.median(base[name])
                    t = statistics.median(values)
                    print("%-40s %+8.2f%%" % (name, 100 * (t - b) / b))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"workload": args.workload, "series": series,
                       "traced": traced_series, "wall": wall_series},
                      handle, indent=1)


if __name__ == "__main__":
    main()

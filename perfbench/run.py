#!/usr/bin/env python3
"""Builds libcar and the benchmark program from source, then runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload serve_fresh|serve_churn|check_corpus \
      --seed N --seconds S --trace 0|1

Everything is built and written under .bench_build/ in the checkout. The
program's self-tests run before every measurement. The last line of standard
output is its result JSON. The run exits non-zero without a result when the
sources are missing, the build or a self-test fails, or the inputs the workload
generates for the pinned seed no longer hash to the value in
perfbench/pins.json.

  python3 perfbench/run.py --pins

prints a fresh pins.json for the current generators instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("serve_fresh", "serve_churn", "check_corpus")


def run_quietly(command, env):
    """Runs a build step; its output goes to stderr, never into the result."""
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: %s failed\n" % " ".join(command))
        sys.exit(1)


def build():
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", BUILD, "-j", jobs], env)
    run_quietly([os.path.join(BUILD, "perfbench_selftest"),
                 "--gtest_brief=1"], env)


def perfbench(*args):
    return [os.path.join(BUILD, "perfbench")] + [str(a) for a in args]


def print_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    hashes = {}
    for workload in WORKLOADS:
        hashes[workload] = subprocess.run(
            perfbench("--workload", workload, "--seed", pins["default_seed"],
                      "--seconds", pins["seconds"], "--print-hash"),
            check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    pins["input_hashes"] = hashes
    print(json.dumps(pins, indent=2))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--pins", action="store_true")
    args = parser.parse_args()
    if not args.pins and None in (args.workload, args.seed, args.seconds,
                                  args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.pins:
        print_pins()
        return 0

    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    state_dir = os.path.join(BUILD_ROOT, "state",
                             "%s-%d" % (args.workload, os.getpid()))
    command = perfbench(
        "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace,
        "--state-dir", state_dir,
        "--pin-seed", pins["default_seed"],
        "--pin-seconds", pins["seconds"],
        "--pin-hash", pins["input_hashes"][args.workload])
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

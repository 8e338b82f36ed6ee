#!/usr/bin/env python3
"""Builds and runs the CEEMS monitoring-generation / dashboard-query benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_1400 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds a Release tree of the stack's libraries
plus the benchmark under .bench_build/perfbench (about a minute on 4 cores).
The driver's last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_1400", "durable_350", "dashboard_350")
# The driver itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no stack sources at {ROOT}/src; nothing to benchmark")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            log("cmake configure failed")
            return False
    cmd = ["cmake", "--build", BUILD, "-j4", "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def run(cmd):
    """Runs `cmd`, echoing its output; returns its exit code."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 4
    sys.stdout.write(done.stdout)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if args.self_test:
        if not build(["perfbench_test"]):
            return 2
        return run([os.path.join(BUILD, "perfbench_test")])

    if not build(["perfbench_driver"]):
        return 2
    work_dir = os.path.join(
        ROOT, ".bench_build", "runs",
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    return run([os.path.join(BUILD, "perfbench_driver"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())

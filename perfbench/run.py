#!/usr/bin/env python3
"""Builds and runs the served-query benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the repo's own src/) into .bench_build/; later
runs rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Every file the benchmark
writes stays under .bench_build/.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Runs may start side by side; one builds while the others wait.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j4"]]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Scratch files (served filters, twins) live per run and go afterwards;
    # the traced run's span files are kept in .bench_build/traces/.
    workdir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    tracedir = os.path.join(BUILD_DIR, "traces")
    if args.selftest:
        command = [BINARY, "--selftest", "--workdir", workdir]
    else:
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", workdir, "--tracedir", tracedir]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build tdwpbench from this checkout's sources and run one workload.

    python3 tdwpbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The first run configures and builds
(CMake, RelWithDebInfo) into .bench_build/tdwpbench; later runs only let the
build check that it is up to date. Build output goes to stderr; stdout is
the benchmark's own, whose last line is the JSON result. Exits non-zero
without a result when the sources are missing, the build fails, or the run
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tdwpbench")
BINARY = os.path.join(BUILD_DIR, "tdwpbench")


def run_timeout_s(seconds):
    # The set-ups and the reference pass take well under a minute on a
    # 4-core VM; the measured work lasts about `seconds`.
    return 90 + 5 * seconds


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("tdwpbench: no Hyper-Q sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tdwpbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            print("tdwpbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace", type=int, choices=[0, 1])
    mode.add_argument("--dump", action="store_true",
                      help="print the seeded request list and references")
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    cmd += ["--dump"] if args.dump else ["--trace", str(args.trace)]
    sys.stdout.flush()
    timeout = run_timeout_s(args.seconds)
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("tdwpbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

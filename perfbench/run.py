#!/usr/bin/env python3
"""Builds ctdb_perfbench from this checkout's sources and runs it.

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # smoke size of every workload (ctest)

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and so does the benchmark's
scratch data; nothing is read or written outside the checkout. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero without a result when the build fails, e.g. in a directory
that holds only the benchmark and not the repository's sources.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(build):
    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]):
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return step(["cmake", "--build", build, "-j", jobs, "--target",
                 "ctdb_perfbench"])


def main(argv):
    build_path = build_dir()
    if not build(build_path):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--test"]:
        return subprocess.run(["ctest", "--test-dir", build_path,
                               "--output-on-failure"]).returncode
    binary = os.path.join(build_path, "ctdb_perfbench")
    work = os.path.join(build_path, "work")
    try:
        return subprocess.run([binary, *argv, "--work-dir", work],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

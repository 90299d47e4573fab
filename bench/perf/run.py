#!/usr/bin/env python3
"""Builds agbench from this checkout and runs one workload.

Usage (from the repository root):
  python3 bench/perf/run.py --workload NAME --seed N --seconds T --trace 0|1

Configures and builds bench/perf's own CMake project into build-perf/ (a
no-op when it is up to date; build output goes to stderr), then runs
build-perf/agbench with the same flags. The last line of standard output
is agbench's JSON result. Exits non-zero, without a result, when the build
fails -- for example outside a full checkout of the repository.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "perf")
BUILD = os.path.join(ROOT, "build-perf")


def build() -> bool:
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD],
        ["cmake", "--build", BUILD, "--target", "agbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    if not build():
        return 1
    cmd = [
        os.path.join(BUILD, "agbench"),
        "--workload=" + args.workload,
        "--seed=" + args.seed,
        "--seconds=" + args.seconds,
        "--trace=" + args.trace,
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

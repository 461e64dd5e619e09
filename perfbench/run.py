#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench (and the library it links)
into .bench_build/perfbench; later runs reuse that build. The benchmark's
standard output is passed through unchanged: its last line is the result
JSON. Build output goes to standard error. Exits non-zero, without a
result line, when the build or the run fails.
"""

import fcntl
import os
import subprocess
import sys

BUILD_ROOT = ".bench_build"
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", "perfbench", "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench/run.py: build failed: {err}", file=sys.stderr)
        return 1
    work_dir = os.path.join(BUILD_ROOT, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench/run.py: run timed out", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"perfbench/run.py: cannot run perfbench: {err}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

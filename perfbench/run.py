#!/usr/bin/env python3
"""Builds the benchmark (perfbench/CMakeLists.txt) and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid|serve-shared|cache-churn \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset,
and is reused by later runs. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Any failure
(a build error, missing sources, a failed self-check) exits nonzero
without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures once, then builds; a no-op build when nothing changed."""
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        cmds.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        if not build(build_dir):
            print("run.py: building the benchmark failed", file=sys.stderr)
            return 1
    except OSError as e:
        print("run.py: cannot build the benchmark: %s" % e, file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

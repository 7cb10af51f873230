#!/usr/bin/env python3
"""Build the whole-query benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built with dune into .bench_build/ (the dune cache is
disabled, so nothing is written outside the checkout), then run with the
arguments given here.  Build output goes to standard error; the
benchmark's own report goes to standard output, ending with one JSON line.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/qbench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "run.py: the repository sources (dune-project, lib/) are not "
            "here; run from the root of a checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", TARGET],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "qbench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

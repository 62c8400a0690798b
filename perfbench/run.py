#!/usr/bin/env python3
"""Build the benchmark and the plan server from source, then run one
workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Build output goes to standard error;
the last line of standard output is the benchmark's JSON result.  Exits
non-zero without a result when the build fails (for instance when the
library sources are missing).
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVER = os.path.join("_build", "default", "bin", "wireless_agg.exe")
OUT = os.path.join("perfbench", "out")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "perfbench/bench.exe", "bin/wireless_agg.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        stdin=subprocess.DEVNULL, timeout=850)
    if build.returncode != 0 or not os.path.exists(BENCH):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [BENCH, "--server", SERVER, "--out", OUT] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())

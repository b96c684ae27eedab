#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of an xloops checkout.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Builds the benchmark and the service binaries with dune, then runs
perfbench/main.exe with the same arguments.  The last line of stdout is
the JSON result; build output and progress go to stderr.
"""
import os
import subprocess
import sys

TARGETS = ["perfbench/main.exe", "bin/xloops_serve.exe", "bin/xloops_proxy.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of an xloops checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.call([exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

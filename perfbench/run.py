#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hinted --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The script builds perfbench/perfbench.exe from source with dune (shared
build cache off, so the build writes only under _build/) and runs it
with the same arguments.  The last line of standard output is the result
object; everything the build prints goes to standard error.
"""
import os
import shutil
import subprocess
import sys


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the repository root (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

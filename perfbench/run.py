#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pop3_churn --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (output under _build/, no shared dune
cache), then runs it with the same arguments.  The last line of standard
output is the benchmark's JSON result; the exit code is the benchmark's.
Without the repository's sources next to this directory it exits nonzero
before printing anything.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 900
# beyond --seconds: twelve set-ups, the measured epochs, the last replay
# and the traced run's one-client passes
RUN_MARGIN_S = 160


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seconds", type=int, default=10)
    timeout = RUN_MARGIN_S + max(0, parser.parse_known_args()[0].seconds)
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the root of a wedge checkout (no %s here)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    # an opam switch whose environment is not loaded still builds
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

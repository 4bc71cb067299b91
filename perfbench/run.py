#!/usr/bin/env python3
"""Build and run the systrace journey benchmark.

    python3 perfbench/run.py --workload validate|offline|serve_ingest \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/journey.exe
with dune inside the checkout (the dune cache is disabled, so nothing is
written outside it), then runs it with the same arguments.  The program
prints a report and, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Extra arguments (`--inject-fault`,
`--golden-out FILE`) are passed through.  Exits non-zero, printing no
result, when the checkout lacks the sources, the build fails, or the
run fails or overruns.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
EXE = os.path.join("_build", "default", "perfbench", "journey.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a systrace source checkout (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/journey.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    sys.stdout.flush()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

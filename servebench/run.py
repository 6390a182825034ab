#!/usr/bin/env python3
"""Entry point of the served-store benchmark.

Run from the root of a source checkout:

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the server (bin/prefdb.exe) and the benchmark engine
(servebench/servebench.exe) from source with dune, then runs the engine,
whose last stdout line is the JSON result. Workloads: paper-read,
clustered-1m-read, chains-quantified, chains-rw (see servebench/README.md).
"""

import os
import subprocess
import sys

PREFDB = os.path.join("_build", "default", "bin", "prefdb.exe")
ENGINE = os.path.join("_build", "default", "servebench", "servebench.exe")

# What the build needs besides this directory; without them (a directory
# holding only the benchmark) there is nothing to measure.
REQUIRED = ["dune-project", os.path.join("bin", "prefdb.ml"), "lib",
            os.path.join("examples", "data", "mgr.pdb")]


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print("servebench: not a prefdb source checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/prefdb.exe",
         "./servebench/servebench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run([ENGINE] + sys.argv[1:] + ["--prefdb", PREFDB])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

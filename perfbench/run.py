#!/usr/bin/env python3
"""Builds the issa benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Every
argument is passed to the benchmark binary; its standard output (whose
last line is the JSON result) and exit code are passed through.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "issa-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload corridor_aim --seed 11 --seconds 20 --trace 0

Cargo's output goes to stderr; the benchmark's stdout ends with one JSON
result line. Builds land in $CARGO_TARGET_DIR (default: .bench_build).
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "crossroads-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

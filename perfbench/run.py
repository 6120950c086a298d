#!/usr/bin/env python3
"""Builds the benchmark of record from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Both `nachos-sweepd` (from the
repository's workspace) and the `perfbench` package are built in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), so the two
executables sit side by side; then this process becomes `perfbench`,
whose last line of standard output is the JSON result. Exits 2 without
a result when the repository's sources are not there or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "core")
    ):
        fail("the repository's sources are missing; run from the root of a checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "nachos-bench", "--bin", "nachos-sweepd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds tunad and the tunabench driver from source, then runs one benchmark.

Run from the repository root:

    python3 tunabench/run.py --workload tune-tuna --seed 1 --seconds 10 --trace 0

Workloads: tune-tuna, fleet-churn, restart-resume. Cargo builds into
$CARGO_TARGET_DIR (default .bench_build); daemon data goes under
.bench_data. The last line on stdout is the JSON result.
"""

import os
import subprocess
import sys


def fail(message):
    print(f"tunabench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/serve", "tunabench/Cargo.toml"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "tuna-serve", "--bin", "tunad"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "tunabench/Cargo.toml"],
    )
    for cmd in builds:
        # Build output goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    driver = os.path.join(target, "release", "tunabench")
    # tunabench checks the arguments and prints usage on bad ones.
    argv = [driver] + sys.argv[1:]
    argv += ["--tunad", os.path.join(target, "release", "tunad"), "--work", os.path.join(root, ".bench_data")]
    sys.stdout.flush()
    os.execv(driver, argv)


if __name__ == "__main__":
    main()

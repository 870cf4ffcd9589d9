#!/usr/bin/env python3
"""Solver benchmark: build the perfbench package from source and run one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload <vc|cc> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the root).
Run-time scratch stays under that directory too: compiler temporaries, the
C JIT artifact cache and the tile tuner cache. The last line of standard
output is the run's JSON result; the build log and the run's summary go to
standard error. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("vc", "cc")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Budget for the measurement process alone (set-ups, timed cycles, checks,
# and in a traced run the cold compile ledger); the build is not part of it.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cache = os.path.join(target, "perfbench-cache")
    scratch = os.path.join(target, "perfbench-scratch", str(os.getpid()))
    os.makedirs(scratch)
    env.update(
        TMPDIR=scratch,
        SNOWFLAKE_CACHE_DIR=os.path.join(cache, "cjit"),
        SNOWFLAKE_TUNE_DIR=os.path.join(cache, "tune"),
    )
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed with exit code {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"perfbench: result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

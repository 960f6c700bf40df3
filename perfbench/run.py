#!/usr/bin/env python3
"""Build the serving benchmark and run one workload in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark is built from source with
dune (release profile) into $CARGO_TARGET_DIR (default .bench_build),
then main.exe runs the workload; its last line of standard output is
the JSON result.  Scratch files (checkpoint cuts, the traced run's
spans) go under the same build directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    dune_dir = os.path.join(build_dir, "dune")
    os.makedirs(build_dir, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "--cache=disabled", "--build-dir", dune_dir, "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, "perfbench")
    os.makedirs(workdir, exist_ok=True)
    exe = os.path.join(dune_dir, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            cwd=ROOT, timeout=2 * args.seconds + 120,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

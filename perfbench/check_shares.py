#!/usr/bin/env python3
"""Check that every workload keeps the layer share it exists for.

    python3 perfbench/check_shares.py [--seeds 1,2] [--seconds 10]

Run from the repository root.  For each seed and workload this makes one
traced run (``run.py --trace 1``) and checks the workload's character:

- flat-waxman1k is routing-dominated: policy.route_s >= 90% of Engine.run;
- churn-ckpt100 is checkpoint-dominated: checkpoint saves are the largest
  child of Engine.run;
- continent-hier10k is hier-dominated: routing through the hierarchical
  oracle (segment cache in use) is >= 90% of Engine.run;
- burst-jobs2 wastes speculation: on the pool it calls route more often
  per arrival than the serial engine does on the same stream.

Use a seed the benchmark was not tuned on as the held-out seed.  Exits 1
if any check fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    share = {}
    for line in lines:
        m = re.match(
            r"share: route (\S+) checkpoint (\S+) engine_self (\S+)", line)
        if m:
            share.update(zip(("route", "checkpoint", "self"),
                             map(float, m.groups())))
        m = re.match(
            r"share: stream 0 calls_per_arrival serial (\S+) pool (\S+)",
            line)
        if m:
            share.update(zip(("serial_cpa", "pool_cpa"),
                             map(float, m.groups())))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return result["correct"], share, metrics


CHECKS = {
    "flat-waxman1k": ("routing-dominated", lambda s, m: s["route"] >= 0.9),
    "churn-ckpt100": (
        "checkpoint-dominated",
        lambda s, m: s["checkpoint"] > max(s["route"], s["self"]),
    ),
    "continent-hier10k": (
        "hier-dominated",
        lambda s, m: s["route"] >= 0.9 and m["hier.segment_hit_ratio"] > 0,
    ),
    "burst-jobs2": (
        "speculation-wasting",
        lambda s, m: s["pool_cpa"] > s["serial_cpa"],
    ),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    ok = True
    for seed in [int(s) for s in args.seeds.split(",")]:
        for workload, (shape, holds) in CHECKS.items():
            correct, share, metrics = traced_run(workload, seed, args.seconds)
            passed = correct and holds(share, metrics)
            ok = ok and passed
            print(f"seed {seed} {workload:18s} {shape:20s} "
                  f"{'holds' if passed else 'FAILS'}  {share}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

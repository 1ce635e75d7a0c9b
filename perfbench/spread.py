#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: one run per seed, then for each metric the distance between the
first and third quartile (statistics.quantiles(n=4)) over the median.

    python3 perfbench/spread.py --seeds 1-10 [--workload fit-tgae ...]

A metric whose spread exceeds its bound in BENCHMARK.json fails (exit 1); one
whose spread is at least a third of its bound, the steadiness target, is
marked. setup_s is reported but neither fails nor is marked (its bound covers
medians only).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: run failed\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(args.seeds)} seeds)", flush=True)
        for name, vals in values.items():
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [0, 0, 0]
            spread = (q[2] - q[0]) / median if median else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag = f"  <-- FAILS: above the bound {bounds[name]}"
                steady = False
            elif name != "setup_s" and spread >= bounds[name] / 3:
                flag = f"  <-- above a third of the bound {bounds[name]}"
            print(f"  {name:22s} median {median:14.6g}  spread "
                  f"{spread:7.4f}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

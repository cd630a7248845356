#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check sees it.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and
BENCHMARK.json's run_seconds, seed by seed with every workload at each seed,
then prints for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median,
next to the metric's bound. A spread at or above a third
of the bound is flagged ("wide"); setup_s is reported but not held to it.
Raw results go to .bench_build/spread-<workload>.json. Exits non-zero when a
run fails or its correctness gate fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[0])["context"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return result, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    results = {w: [] for w in workloads}
    walls = {w: [] for w in workloads}
    # Seed-major order: each workload's runs are spread over the whole
    # sweep, so slow drift of the host shows in every workload's spread.
    for seed in seeds:
        for workload in workloads:
            result, wall = run_once(workload, seed, bench["run_seconds"])
            results[workload].append(result)
            walls[workload].append(wall)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    for workload in workloads:
        with open(os.path.join(ROOT, ".bench_build",
                               f"spread-{workload}.json"), "w") as f:
            json.dump(results[workload], f, indent=1)
        print(f"{workload}: {len(results[workload])} runs, wall per run "
              f"{statistics.median(walls[workload]):.1f} s "
              f"(max {max(walls[workload]):.1f} s)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results[workload]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            wide = name != "setup_s" and spread >= metric["bound"] / 3
            print(f"  {name:22s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:7.4f}  bound "
                  f"{metric['bound']:5.3f}{'  wide' if wide else ''}")

if __name__ == "__main__":
    main()

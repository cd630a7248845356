#!/usr/bin/env python3
"""Tolerance-based comparison of two google-benchmark JSON files.

Usage:
    scripts/compare_benchmarks.py BASELINE.json CURRENT.json [--tolerance 1.5]

Compares per-benchmark real_time and exits 1 if any benchmark present in both
files regressed by more than the tolerance factor (default 1.5x, generous on
purpose: CI runners are noisy and shared). Benchmarks present in only one
file are reported but never fail the comparison, so adding or retiring a
benchmark does not need a baseline refresh in the same commit.

Refresh the checked-in baseline with: scripts/run_benchmarks.sh --update-baseline
"""

import argparse
import json
import re
import sys

# google-benchmark time_unit values, normalized to nanoseconds so a baseline
# recorded with a different ->Unit() still compares correctly.
_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


# Context keys that parameterize thread-scaling rows. When either differs
# between the two files (different machine, different sweep), benchmarks whose
# names carry a thread/worker axis are not comparable and are auto-skipped.
_THREAD_CONTEXT_KEYS = ("num_cpus", "ingest_threads")
_THREAD_ROW_RE = re.compile(r"workers:|threads:")


def load_timings(path):
    """Maps benchmark name -> real_time in ns.

    A benchmark run with --benchmark_repetitions has one iteration row per
    repetition plus mean/median/stddev/cv aggregate rows; its median row is
    the one compared. A benchmark without repetitions has only its iteration
    row, which is used as is.

    Returns (timings, context) where context is the google-benchmark context
    object (host properties plus any AddCustomContext entries).
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    context = doc.get("context", {})
    iterations = {}
    medians = {}
    for bench in doc.get("benchmarks", []):
        # run_type is absent in very old versions: plain iteration rows.
        run_type = bench.get("run_type", "iteration")
        if run_type == "iteration":
            target = iterations
        elif run_type == "aggregate" and bench.get("aggregate_name") == "median":
            target = medians
        else:
            continue
        unit = bench.get("time_unit", "ns")
        if unit not in _UNIT_TO_NS:
            print(f"warning: {bench['name']} has unknown time_unit "
                  f"'{unit}', skipping")
            continue
        name = bench.get("run_name", bench["name"])
        target[name] = float(bench["real_time"]) * _UNIT_TO_NS[unit]
    return {**iterations, **medians}, context


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="fail when current/baseline real_time exceeds this factor",
    )
    parser.add_argument(
        "--skip",
        default=None,
        metavar="REGEX",
        help="exclude benchmarks whose name matches this regex (e.g. thread-"
        "scaling rows that are meaningless across machines with different "
        "core counts)",
    )
    args = parser.parse_args()
    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")
    skip = re.compile(args.skip) if args.skip else None

    baseline, baseline_ctx = load_timings(args.baseline)
    current, current_ctx = load_timings(args.current)

    # Thread-scaling rows (…/workers:N, …/threads:N) are meaningful only when
    # the two files were produced under the same thread configuration: equal
    # core counts and equal sweep parameters. Otherwise skip them rather than
    # flag phantom regressions.
    mismatched = [
        key
        for key in _THREAD_CONTEXT_KEYS
        if baseline_ctx.get(key) != current_ctx.get(key)
    ]
    if mismatched:
        dropped = sorted(
            n for n in set(baseline) | set(current) if _THREAD_ROW_RE.search(n)
        )
        for name in dropped:
            baseline.pop(name, None)
            current.pop(name, None)
        if dropped:
            detail = ", ".join(
                f"{key}: {baseline_ctx.get(key)!r} vs {current_ctx.get(key)!r}"
                for key in mismatched
            )
            print(
                f"skipping {len(dropped)} thread-scaling benchmark(s): "
                f"context differs ({detail})"
            )

    if skip:
        skipped = sorted(n for n in set(baseline) | set(current) if skip.search(n))
        for name in skipped:
            baseline.pop(name, None)
            current.pop(name, None)
        if skipped:
            print(f"skipping {len(skipped)} benchmark(s) matching "
                  f"'{args.skip}'")

    shared = sorted(set(baseline) & set(current))
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))

    regressions = []
    width = max((len(n) for n in shared), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in shared:
        base_ns = baseline[name]
        cur_ns = current[name]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        marker = ""
        if ratio > args.tolerance:
            marker = "  << REGRESSION"
            regressions.append((name, ratio))
        print(
            f"{name:<{width}}  {base_ns / 1e6:>10.2f}ms  "
            f"{cur_ns / 1e6:>10.2f}ms  {ratio:5.2f}x{marker}"
        )

    for name in only_baseline:
        print(f"note: '{name}' is in the baseline only (retired?)")
    for name in only_current:
        print(f"note: '{name}' is new (not in the baseline)")
    if not shared:
        print("warning: no benchmarks in common — nothing was compared")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond "
            f"{args.tolerance:.2f}x:"
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
        return 1
    print(f"\nOK: no regression beyond {args.tolerance:.2f}x across "
          f"{len(shared)} shared benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The benchmark's own tests: small-scale smokes of every workload.

    python3 perfbench/test_bench.py

Runs each workload at 4,000 users on the same code path the benchmark
measures (perfbench/run.py builds it first) and checks that
  - the correctness gate passes, and fails (exit 1) on corrupted truths;
  - the printed metrics are exactly BENCHMARK.json's, with their units;
  - the same seed gives identical inputs, quality metrics and counts, and a
    different seed gives different inputs;
  - CRH needs more than 3 iterations and weighted vote more than 1, and the
    vote workload's label_error sits strictly between 0 and the
    no-information rate;
  - trace spans nest, self times are >= 0, and each round's phase spans sum
    to no more than the round;
  - without the library sources the benchmark exits non-zero, printing no
    result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
USERS = "4000"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0.5", "--trace", str(trace), "--users",
         USERS, *extra], capture_output=True, text=True, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[0])["context"] if lines else None
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    return proc, context, result


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class WorkloadSmoke(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            cls.runs[workload] = {
                "a": run(workload, seed=1),
                "b": run(workload, seed=1),
                "c": run(workload, seed=2),
                "t": run(workload, seed=1, trace=1),
            }

    def test_gate_passes_and_metrics_match_the_contract(self):
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload, runs in self.runs.items():
            for key, (proc, _, result) in runs.items():
                with self.subTest(workload=workload, run=key):
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = layers if key == "t" else e2e
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    if key != "t":
                        for name, value in values(result).items():
                            self.assertGreater(value, 0, name)

    def test_same_seed_same_outputs_other_seed_other_inputs(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                (_, ca, ra), (_, cb, rb), (_, cc, _) = (
                    runs["a"], runs["b"], runs["c"])
                self.assertEqual(ca["input_digest"], cb["input_digest"])
                self.assertNotEqual(ca["input_digest"], cc["input_digest"])
                for name in ("mae_vs_truth", "label_error",
                             "reports_counted_frac"):
                    self.assertEqual(values(ra)[name], values(rb)[name], name)
                self.assertEqual(ra["failed"], rb["failed"])

    def test_counts_match_the_injected_faults_in_every_run(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                traced = values(runs["t"][2])
                again = values(run(workload, seed=1, trace=1)[2])
                for name in ("crowd.duplicates_ignored",
                             "crowd.malformed_reports", "crowd.reports_rejected",
                             "data.claims", "truth.iterations",
                             "dist.reports_undeliverable"):
                    self.assertEqual(traced[name], again[name], name)
                self.assertGreater(traced["crowd.duplicates_ignored"], 0)
                self.assertGreater(traced["crowd.malformed_reports"], 0)
                self.assertEqual(traced["crowd.reports_rejected"], 0)

    def test_paper_shaped_generator_is_not_saturated(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                iterations = values(runs["t"][2])["truth.iterations"]
                label_error = values(runs["a"][2])["label_error"]
                if "vote" in workload:
                    self.assertGreater(iterations, 1)
                    no_information = 1.0 - 1.0 / 8
                    self.assertGreater(label_error, 0.0)
                    self.assertLess(label_error, no_information)
                else:
                    self.assertGreater(iterations, 3)

    def test_trace_spans_nest(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                path = os.path.join(
                    ROOT, ".bench_build", "traces",
                    f"{workload}-seed1.trace.json")
                with open(path) as f:
                    trace = json.load(f)
                spans = trace["spans"]
                self.assertTrue(spans)
                children = {}
                for i, span in enumerate(spans):
                    self.assertGreaterEqual(span["self_ns"], 0, span["name"])
                    self.assertLessEqual(span["start_ns"], span["end_ns"])
                    parent = span["parent"]
                    if parent < 0:
                        continue
                    p = spans[parent]
                    self.assertEqual(p["process"], span["process"])
                    self.assertLessEqual(p["start_ns"], span["start_ns"],
                                         (p["name"], span["name"]))
                    self.assertLessEqual(span["end_ns"], p["end_ns"],
                                         (p["name"], span["name"]))
                    children.setdefault(parent, []).append(span)
                round_s = {r["round"]: (r["end_ns"] - r["start_ns"])
                           for r in trace["rounds"]}
                rounds = [i for i, s in enumerate(spans)
                          if s["name"] == "round"]
                self.assertTrue(rounds)
                for i in rounds:
                    span = spans[i]
                    phases = sum(c["busy_ns"] for c in children.get(i, []))
                    self.assertLessEqual(phases, span["busy_ns"])
                    self.assertLessEqual(span["busy_ns"],
                                         round_s[span["round"]])


class GateAndPackaging(unittest.TestCase):
    def test_corrupted_truths_fail_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, _, result = run(workload,
                                      extra=("--corrupt-truths", "1"))
                self.assertEqual(proc.returncode, 1)
                self.assertFalse(result["correct"])
                self.assertIn("GATE FAILED", proc.stderr)

    def test_fails_without_the_library_sources(self):
        lone = os.path.join(ROOT, ".bench_build", "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(lone, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [*BENCH["command"], "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=lone, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

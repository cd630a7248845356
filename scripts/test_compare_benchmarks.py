#!/usr/bin/env python3
"""Tests for compare_benchmarks.py: repeated files compare their median rows,
plain files their iteration rows, at the same tolerance.

Usage:
    python3 scripts/test_compare_benchmarks.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_benchmarks  # noqa: E402


def iteration(name, ms, repetition=None):
    row = {"name": name, "run_name": name, "run_type": "iteration",
           "real_time": ms, "time_unit": "ms"}
    if repetition is not None:
        row["repetition_index"] = repetition
    return row


def aggregate(name, kind, ms):
    return {"name": f"{name}_{kind}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": kind,
            "real_time": ms, "time_unit": "ms"}


# Three repetitions of BM_Round whose LAST iteration row is an outlier: the
# median (100 ms) must be compared, never the last row (400 ms).
REPEATED = {
    "context": {"num_cpus": 4},
    "benchmarks": [
        iteration("BM_Round/shards:2", 100.0, 0),
        iteration("BM_Round/shards:2", 90.0, 1),
        iteration("BM_Round/shards:2", 400.0, 2),
        aggregate("BM_Round/shards:2", "mean", 196.7),
        aggregate("BM_Round/shards:2", "median", 100.0),
        aggregate("BM_Round/shards:2", "stddev", 176.7),
        aggregate("BM_Round/shards:2", "cv", 0.9),
        iteration("BM_Once", 10.0),
    ],
}

PLAIN = {
    "context": {"num_cpus": 4},
    "benchmarks": [
        iteration("BM_Round/shards:2", 120.0),
        iteration("BM_Once", 12.0),
    ],
}


class CompareBenchmarksTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def compare(self, baseline, current):
        argv = ["compare_benchmarks.py", baseline, current]
        out = io.StringIO()
        with mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(out):
            code = compare_benchmarks.main()
        return code, out.getvalue()

    def test_repeated_file_uses_its_median_rows(self):
        timings, _ = compare_benchmarks.load_timings(
            self.write("repeated.json", REPEATED))
        self.assertEqual(timings["BM_Round/shards:2"], 100.0 * 1e6)
        # A benchmark without repetitions in the same file keeps its row.
        self.assertEqual(timings["BM_Once"], 10.0 * 1e6)
        self.assertEqual(set(timings), {"BM_Round/shards:2", "BM_Once"})

    def test_plain_file_uses_its_iteration_rows(self):
        timings, _ = compare_benchmarks.load_timings(
            self.write("plain.json", PLAIN))
        self.assertEqual(timings["BM_Round/shards:2"], 120.0 * 1e6)
        self.assertEqual(timings["BM_Once"], 12.0 * 1e6)

    def test_repeated_baseline_against_plain_run_within_tolerance(self):
        code, out = self.compare(self.write("repeated.json", REPEATED),
                                 self.write("plain.json", PLAIN))
        self.assertEqual(code, 0, out)
        self.assertIn("across 2 shared benchmark(s)", out)

    def test_regression_beyond_tolerance_still_fails(self):
        slow = json.loads(json.dumps(PLAIN))
        slow["benchmarks"][0]["real_time"] = 151.0  # 1.51x the 100 ms median
        code, out = self.compare(self.write("repeated.json", REPEATED),
                                 self.write("slow.json", slow))
        self.assertEqual(code, 1, out)
        self.assertIn("BM_Round/shards:2: 1.51x", out)


if __name__ == "__main__":
    unittest.main()

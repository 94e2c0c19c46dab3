#!/usr/bin/env python3
"""Self-checks of the serving benchmark.

    python3 bench/serving/tests/selftest.py

Builds the benchmark the way run.py does and checks that:
  - a deliberately corrupted reference label fails the run (exit 1,
    "correct": false, the mismatch counted in "failed");
  - every workload prints exactly the metrics BENCHMARK.json names for each
    trace mode, each with its declared unit and a finite value;
  - a run whose load generator is later than its bound is rejected as
    invalid (exit 2, no result line) instead of reported as a slow system.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parents[1]
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark's own launcher)

SECONDS = "5"
OUT_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = None


def bench(workload, trace="0", *extra):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    command = [str(BINARY), "--workload", workload, "--seed", "7", "--seconds", SECONDS,
               "--trace", trace, "--out-dir", str(OUT_DIR / "selftest"), *extra]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return result.returncode, result.stdout.strip().splitlines()


def result_of(lines):
    """The JSON result on the last line, or None when there is none."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build(OUT_DIR / "build")
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_corrupted_reference_fails_the_run(self):
        code, lines = bench("serve-pamap", "0", "--corrupt-reference")
        result = result_of(lines)
        self.assertEqual(code, 1)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_every_metric_prints_with_its_unit(self):
        declared = {
            "0": {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in self.spec["per_layer"]},
        }
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, expected in declared.items():
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(workload, trace)
                    result = result_of(lines)
                    self.assertEqual(code, 0, lines[-1:] if lines else "no output")
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    printed = result["metrics"]
                    self.assertEqual(set(printed), set(expected))
                    for name, metric in printed.items():
                        self.assertEqual(set(metric), {"value", "unit"}, name)
                        self.assertEqual(metric["unit"], expected[name], name)
                        self.assertTrue(math.isfinite(metric["value"]), name)

    def test_late_generator_invalidates_the_run(self):
        code, lines = bench("serve-pamap", "0", "--late-bound-us", "0.001")
        self.assertEqual(code, 2)
        self.assertIsNone(result_of(lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""Unit tests for bench_diff.py — the perf-trajectory diff CI depends on.

Covers the contract the workflow assumes: a >threshold drop in a
higher-is-better metric emits a GitHub warning annotation, a missing
baseline (first run on a branch) or missing current artifact is tolerated
with exit code 0, and improvements / new measurements never warn.

Run directly (python3 scripts/test_bench_diff.py) or via ctest -R bench_diff.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_diff.py")


def kernel_doc(events_per_s):
    return {
        "measurements": [{"workload": "ping_pong", "events_per_s": events_per_s}],
        "total_events_per_s": events_per_s,
    }


def run_diff(*args):
    proc = subprocess.run(
        [sys.executable, SCRIPT, *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    return proc.returncode, proc.stdout


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def test_regression_detected(self):
        base = self.write("base.json", kernel_doc(100.0))
        cur = self.write("cur.json", kernel_doc(50.0))  # -50% > default 20%
        rc, out = run_diff(base, cur)
        self.assertEqual(rc, 0)  # warnings, never hard failures
        self.assertIn("::warning", out)
        self.assertIn("perf regression", out)
        self.assertIn("-50.0%", out)

    def test_improvement_and_small_noise_do_not_warn(self):
        base = self.write("base.json", kernel_doc(100.0))
        for current_value in (150.0, 90.0):  # +50% and -10% (under threshold)
            cur = self.write("cur.json", kernel_doc(current_value))
            rc, out = run_diff(base, cur)
            self.assertEqual(rc, 0)
            self.assertNotIn("::warning", out)

    def test_regress_pct_flag_tightens_threshold(self):
        base = self.write("base.json", kernel_doc(100.0))
        cur = self.write("cur.json", kernel_doc(90.0))
        rc, out = run_diff(base, cur, "--regress-pct", "5")
        self.assertEqual(rc, 0)
        self.assertIn("::warning", out)

    def test_missing_baseline_tolerated(self):
        cur = self.write("cur.json", kernel_doc(100.0))
        rc, out = run_diff(os.path.join(self.dir.name, "nope.json"), cur)
        self.assertEqual(rc, 0)
        self.assertIn("no baseline", out)
        self.assertNotIn("::warning", out)
        self.assertIn("ping_pong", out)  # still prints the fresh numbers

    def test_missing_current_tolerated_with_warning(self):
        base = self.write("base.json", kernel_doc(100.0))
        rc, out = run_diff(base, os.path.join(self.dir.name, "nope.json"))
        self.assertEqual(rc, 0)
        self.assertIn("::warning", out)
        self.assertIn("missing", out)

    def test_new_measurement_reported_as_new(self):
        base = self.write("base.json", kernel_doc(100.0))
        doc = kernel_doc(100.0)
        doc["measurements"].append({"workload": "fan_out", "events_per_s": 7.0})
        cur = self.write("cur.json", doc)
        rc, out = run_diff(base, cur)
        self.assertEqual(rc, 0)
        self.assertIn("(new)", out)
        self.assertNotIn("::warning", out)

    def test_throughput_schema_flattens_by_network_and_batch(self):
        doc = {"measurements": [
            {"network": "mlp", "batch": 2, "images_per_s": 10.0}]}
        base = self.write("base.json", doc)
        cur = self.write("cur.json", doc)
        rc, out = run_diff(base, cur)
        self.assertEqual(rc, 0)
        self.assertIn("mlp/b2", out)

    def test_sim_knob_sweep_speedup_tracked(self):
        def doc(speedup):
            return {"measurements": [],
                    "sim_knob_sweep": {"network": "squeezenet", "speedup": speedup}}
        base = self.write("base.json", doc(3.0))
        cur = self.write("cur.json", doc(1.2))  # -60% > default 20%
        rc, out = run_diff(base, cur)
        self.assertEqual(rc, 0)
        self.assertIn("sim_knob/squeezenet", out)
        self.assertIn("cached_speedup", out)
        self.assertIn("::warning", out)

    def test_rob_scaling_flatness_tracked(self):
        def doc(ms16, ms256):
            return {"measurements": [],
                    "rob_scaling": {"network": "resnet18", "simulate_ms_rob16": ms16,
                                    "simulate_ms_rob256": ms256,
                                    "flatness": ms16 / ms256}}
        base = self.write("base.json", doc(160.0, 165.0))
        flat = self.write("flat.json", doc(150.0, 160.0))
        rc, out = run_diff(base, flat)
        self.assertEqual(rc, 0)
        self.assertIn("rob_scaling/resnet18", out)
        self.assertIn("flatness", out)
        self.assertNotIn("::warning", out)
        # A ROB rescan per completion: ROB 256 several times slower than 16.
        quadratic = self.write("quadratic.json", doc(250.0, 920.0))
        rc, out = run_diff(base, quadratic)
        self.assertEqual(rc, 0)
        self.assertIn("::warning", out)
        self.assertIn("flatness", out)


if __name__ == "__main__":
    unittest.main()

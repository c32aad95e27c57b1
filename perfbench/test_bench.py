#!/usr/bin/env python3
"""Tests of the benchmark's own logic: python3 perfbench/test_bench.py"""
import json
import math
import statistics
import unittest
from pathlib import Path

import gen
import metrics
import run

BENCH = Path(__file__).resolve().parent


class PercentileTest(unittest.TestCase):
    def test_matches_inclusive_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        qs = statistics.quantiles(xs, n=10, method="inclusive")
        for i, expected in enumerate(qs, start=1):
            self.assertAlmostEqual(metrics.percentile(xs, i / 10), expected)

    def test_edges(self):
        self.assertEqual(metrics.percentile([4.0], 0.9), 4.0)
        self.assertEqual(metrics.percentile([1.0, 2.0], 0.0), 1.0)
        self.assertEqual(metrics.percentile([1.0, 2.0], 1.0), 2.0)
        self.assertEqual(metrics.percentile(list(range(1, 11)), 0.5), 5.5)
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)

    def test_samples_beyond_counts_what_lies_past_the_percentile(self):
        for n in range(1, 301):
            xs = list(range(n))
            p90 = metrics.percentile(xs, 0.9)
            self.assertEqual(sum(x > p90 for x in xs), metrics.samples_beyond(n, 0.9), n)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(0, 0.9), 0)
        self.assertFalse(metrics.tail_is_valid(91, 0.9))  # 9 beyond
        self.assertTrue(metrics.tail_is_valid(92, 0.9))   # 10 beyond
        self.assertTrue(metrics.tail_is_valid(100, 0.9))
        self.assertFalse(metrics.tail_is_valid(30, 0.9))
        self.assertTrue(metrics.tail_is_valid(20, 0.5))


class GeneratorTest(unittest.TestCase):
    def request_list(self, workload, seed, rounds=40):
        if workload == "zoo_timing":
            it = gen.zoo_rounds(seed, {r: f"rob{r}.json" for r in gen.ZOO_ROBS})
        elif workload == "functional_weights":
            files = {m: f"{m}-{s}.json" for m, s in gen.functional_weight_seeds(seed).items()}
            it = gen.functional_rounds(seed, files)
        else:
            plan = gen.ServePlan(seed)
            warm = plan.warmup()
            it = plan.rounds()
            return json.dumps([warm] + [next(it) for _ in range(rounds)], sort_keys=True)
        return json.dumps([next(it) for _ in range(rounds)], sort_keys=True)

    def test_same_seed_same_bytes(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.request_list(workload, 5), self.request_list(workload, 5),
                             workload)

    def test_seed_changes_the_list(self):
        for workload in run.WORKLOADS:
            self.assertNotEqual(self.request_list(workload, 5), self.request_list(workload, 6),
                                workload)

    def test_rounds_keep_their_mix(self):
        zoo = gen.zoo_rounds(3, {16: "a", 64: "b"})
        for _ in range(5):
            self.assertEqual(sorted(r["key"] for r in next(zoo)),
                             sorted(f"{m}/rob{r}" for m, r in gen.ZOO_ROUND))
        rounds = gen.ServePlan(3).rounds()
        for _ in range(5):
            mix = {}
            for r in next(rounds):
                mix[(r["kind"], r["class"])] = mix.get((r["kind"], r["class"]), 0) + 1
            self.assertEqual(mix, gen.SERVE_ROUND)

    def test_serve_percentiles_fall_inside_one_kind(self):
        # Evaluates are the cheap requests and sweeps the slow ones, so over
        # whole rounds both ranks that p50 and p90 interpolate between must
        # lie inside one kind.
        evaluates = sum(c for (kind, _), c in gen.SERVE_ROUND.items() if kind == "evaluate")
        per_round = sum(gen.SERVE_ROUND.values())
        for rounds in (10, 50, 200):
            n = rounds * per_round
            for q, want in ((0.5, "evaluate"), (0.9, "batch")):
                pos = q * (n - 1)
                for rank in (math.floor(pos), math.ceil(pos)):
                    got = "evaluate" if rank < rounds * evaluates else "batch"
                    self.assertEqual(got, want, (rounds, q))

    def test_serve_sweeps_share_one_shape(self):
        plan = gen.ServePlan(4)
        shapes = {json.dumps({**b, "workloads": [{k: v for k, v in w.items()
                                                   if k != "weight_seed"}
                                                  for w in b["workloads"]]}, sort_keys=True)
                  for b in plan.sweeps}
        self.assertEqual(len(shapes), 1)
        self.assertEqual(len({json.dumps(b, sort_keys=True) for b in plan.sweeps}),
                         len(plan.sweeps))

    def test_warm_evaluates_repeat_recent_cold_ones(self):
        plan = gen.ServePlan(9)
        seen = [r["key"] for r in plan.warmup() if r["kind"] == "evaluate"]
        rounds = plan.rounds()
        for _ in range(30):
            rnd = next(rounds)
            for r in rnd:
                if r["kind"] == "evaluate" and r["class"] == "warm":
                    self.assertIn(r["key"], seen[-gen.SERVE_RECENT:])
            seen += [r["key"] for r in rnd if r["kind"] == "evaluate" and r["class"] == "cold"]
        # A fresh daemon is primed with exactly the recent cold points.
        primed = [r["key"] for r in plan.warmup() if r["kind"] == "evaluate"]
        self.assertEqual(sorted(primed), sorted(seen[-gen.SERVE_RECENT:]))


class ComparisonTest(unittest.TestCase):
    REPORT = {"network": "vgg8", "finished": True, "latency_ms": 3.05, "instructions": 21229,
              "layers": {"0": {"span_us": 1.5, "mvm_count": 12}}}

    def test_identical_reports_match(self):
        a = json.dumps(self.REPORT, indent=2)
        self.assertIsNone(metrics.report_mismatch(a, a))

    def test_a_single_changed_field_is_flagged(self):
        a = json.dumps(self.REPORT, indent=2)
        changed = json.loads(a)
        changed["layers"]["0"]["mvm_count"] = 13
        self.assertEqual(metrics.report_mismatch(a, json.dumps(changed, indent=2)),
                         "layers.0.mvm_count")
        changed = json.loads(a)
        changed["finished"] = 1  # equal under ==, still a different report
        self.assertEqual(metrics.report_mismatch(a, json.dumps(changed, indent=2)), "finished")

    def test_formatting_difference_is_flagged(self):
        a = json.dumps(self.REPORT, indent=2)
        self.assertEqual(metrics.report_mismatch(a, json.dumps(self.REPORT)),
                         "bytes differ (formatting)")

    def test_reply_normalization_drops_only_host_fields(self):
        reply = {"id": 4, "ok": True, "wall_ms": 3.2, "report": self.REPORT}
        other = dict(reply, id=9, wall_ms=7.7)
        self.assertEqual(metrics.normalize_reply(json.dumps(reply)),
                         metrics.normalize_reply(json.dumps(other)))
        other["report"] = dict(self.REPORT, latency_ms=3.06)
        self.assertNotEqual(metrics.normalize_reply(json.dumps(reply)),
                            metrics.normalize_reply(json.dumps(other)))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [{"start_ns": 0, "end_ns": 100, "parent": -1},
                 {"start_ns": 10, "end_ns": 40, "parent": 0},
                 {"start_ns": 50, "end_ns": 90, "parent": 0}]
        self.assertEqual(metrics.self_times_ns(spans), [30, 30, 40])


class HostSpeedTest(unittest.TestCase):
    def test_factor_is_the_median_reference_over_nominal(self):
        nominal = run.REF_NOMINAL_S
        self.assertAlmostEqual(run.host_factor([nominal, 2 * nominal, 3 * nominal]), 2.0)
        # One pass slowed by an interrupt does not move it.
        self.assertAlmostEqual(run.host_factor([nominal / 2, nominal / 2, 9 * nominal]), 0.5)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_what_run_prints(self):
        manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()

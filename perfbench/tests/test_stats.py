"""Unit tests for the benchmark's statistics and its metric declarations.

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import ab  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_needs_ten_beyond(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertEqual(stats.highest_percentile(99), 50.0)
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(999), 90.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(10000), 99.9)

    def test_tail_reports_value_and_sample_count(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        p, v, n = stats.tail(values)
        self.assertEqual((p, v, n), (90.0, 90.0, 100))
        self.assertEqual(stats.tail([1.0] * 5), (None, 0.0, 5))

    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertEqual(stats.percentile(values, 1), 1.0)
        self.assertEqual(stats.percentile([], 50), 0.0)

    def test_cell_percentiles_follow_the_rule(self):
        raw = synthetic_raw(cell_ms=[float(i) for i in range(1, 51)])
        layer = run.summarize(raw, {})[5]
        self.assertEqual(layer["harness.cell_ms_p50"], 25.0)
        self.assertEqual(layer["harness.cell_ms_p90"], 0.0)  # n=50 < 100
        self.assertEqual(layer["harness.cell_samples"], 50)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)

    def test_degenerate_inputs(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(stats.spread([7.0, 7.0, 7.0]), 0.0)
        self.assertEqual(stats.spread([0.0, 0.0]), 0.0)


class NameValidationTest(unittest.TestCase):
    def test_accepts_layer_names(self):
        for name in ("wall_s", "cluster.route_ns", "harness.cell_ms_p90",
                     "a-b", "9lives"):
            self.assertTrue(stats.valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "has space", "slash/name", "ünïcode", "_lead",
                     ".lead", "x" * 65, None):
            self.assertFalse(stats.valid_name(name), name)

    def test_declared_metrics_are_valid_and_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(e2e, {k: v[0] for k, v in run.END_TO_END.items()})
        self.assertEqual(layer, {k: v[0] for k, v in run.PER_LAYER.items()})
        names = list(e2e) + list(layer) + [w["name"]
                                           for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(stats.valid_name(name), name)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class SummarizeTest(unittest.TestCase):
    def test_pinned_gate_mismatch_makes_the_run_incorrect(self):
        pins = {"raid_sweep": {"report_fnv": "aaaa", "verdicts_passed": 30}}
        raw = synthetic_raw(small=False,
                            gate={"report_fnv": "bbbb", "verdicts_passed": 30})
        correct, attempted, failed, failures, *_ = run.summarize(raw, pins)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (11, 1))
        self.assertIn("pinned gate", failures[0])
        raw["gate"]["report_fnv"] = "aaaa"
        self.assertTrue(run.summarize(raw, pins)[0])

    def test_end_to_end_uses_untraced_medians(self):
        raw = synthetic_raw(walls=[1.0, 9.0, 3.0, 9.0, 2.0],
                            traced=[0, 1, 0, 1, 0])
        _, _, _, _, e2e, layer, _ = run.summarize(raw, {})
        self.assertEqual(e2e["wall_s"], 2.0)
        self.assertEqual(e2e["sim_ops_per_s"], 500.0)
        self.assertAlmostEqual(layer["trace.overhead_pct"], 350.0)

    def test_host_timings_scale_with_the_probe(self):
        raw = synthetic_raw(walls=[1.0, 1.0, 1.0])
        raw["pass_probe_s"] = [2 * run.PROBE_REF_S[1]] * 3  # half speed
        e2e = run.summarize(raw, {})[4]
        self.assertAlmostEqual(e2e["wall_s"], 0.5)
        self.assertAlmostEqual(e2e["cpu_s"], 0.5)
        self.assertAlmostEqual(e2e["setup_s"], 0.05)


class AbVerdictTest(unittest.TestCase):
    def test_improved_needs_nine_tenths_of_pairs(self):
        a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        b = [x * 0.8 for x in a]
        self.assertEqual(ab.verdict(a, b, "lower", 0.1)["verdict"], "improved")
        self.assertEqual(ab.verdict(a, b, "higher", 0.1)["verdict"],
                         "regressed")

    def test_wide_spread_is_unresolved(self):
        a = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        b = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0]
        r = ab.verdict(a, b, "lower", 0.1)
        self.assertEqual(r["verdict"], "unresolved")
        self.assertEqual(r["win_frac_b"], 0.5)

    def test_same_values_are_unchanged(self):
        a = [5.0] * 6
        self.assertEqual(ab.verdict(a, list(a), "lower", 0.1)["verdict"],
                         "unchanged")


def synthetic_raw(cell_ms=None, small=True, gate=None, walls=None,
                  traced=None):
    walls = walls or [1.0, 1.0, 1.0]
    traced = traced or [0] * len(walls)
    return {
        "workload": "raid_sweep", "small": small, "attempted": 10,
        "failed": 0, "failures": [], "gate": gate or {},
        "pass_wall_s": walls, "pass_cpu_s": walls, "pass_traced": traced,
        "pass_probe_s": [run.PROBE_REF_S[1]] * len(walls),
        "probe_threads": 1,
        "pass_setup_s": [0.1] * len(walls), "cell_ms": cell_ms or [],
        "det": {"ops": 1000}, "host": {}, "peak_rss_mb": 10.0,
    }


if __name__ == "__main__":
    unittest.main()

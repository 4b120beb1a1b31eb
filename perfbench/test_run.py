"""Tests of run.py's helpers: python3 -m unittest discover -s perfbench"""

import json
import os
import unittest

import run


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile(values, 0.9), 90)
        self.assertEqual(run.percentile([3.0], 0.5), 3.0)

    def test_order_does_not_matter(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)
        with self.assertRaises(ValueError):
            run.percentile(list(range(999)), 0.99)
        with self.assertRaises(ValueError):
            run.percentile(list(range(50)), 0.9)
        self.assertEqual(run.percentile(list(range(100)), 0.9), 89)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)


class EndToEndTest(unittest.TestCase):
    def test_latency_percentiles_are_medians_of_per_pass_ones(self):
        # Three passes; the third has a long tail.  Pooling all samples
        # would put the p99 in that tail, the per-pass median does not.
        fast = [10.0] * 990 + [20.0] * 10 + [30.0] * 10
        slow = [10.0] * 900 + [500.0] * 110
        passes = [{"requests": 1010, "wall_s": 1.0, "setup_s": 0.1,
                   "peak_rss_mb": 10.0, "cycles": 1000, "hit_us": hits,
                   "miss_ms": [1.0, 2.0, 3.0]}
                  for hits in (fast, fast, slow)]
        m = run.end_to_end("service_replay", passes)
        self.assertEqual(m["hit_p50_us"], 10.0)
        self.assertEqual(m["hit_p99_us"], 20.0)
        self.assertEqual(m["miss_p50_ms"], 2.0)
        self.assertEqual(run.percentile(fast + fast + slow, 0.99), 500.0)


class PassSeedTest(unittest.TestCase):
    def test_sweeps_repeat_their_seed(self):
        for workload in run.SWEEPS:
            self.assertEqual({run.pass_seed(workload, 7, i) for i in range(5)},
                             {7})

    def test_service_passes_get_distinct_seeds_from_the_run_seed(self):
        seeds = [run.pass_seed("service_replay", 7, i) for i in range(50)]
        self.assertEqual(len(set(seeds)), 50)
        self.assertEqual(seeds, [run.pass_seed("service_replay", 7, i)
                                 for i in range(50)])
        self.assertNotIn(run.pass_seed("service_replay", 8, 0), seeds)


class MetricNameTest(unittest.TestCase):
    def test_valid_names(self):
        run.check_metric_names(["wall_s", "service.hit_ratio", "run.mot_s",
                                "phase.l2_s", "p-99"])

    def test_invalid_names(self):
        for bad in ["", "hit p50", "hit/s", "lat(ms)", "x\n"]:
            with self.assertRaises(ValueError, msg=repr(bad)):
                run.check_metric_names([bad])

    def test_duplicate_name(self):
        with self.assertRaises(ValueError):
            run.check_metric_names(["wall_s", "wall_s"])

    def test_declared_metrics_are_valid(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        run.check_metric_names(names)
        self.assertIn("setup_s", names)


if __name__ == "__main__":
    unittest.main()

"""Self-tests for the benchmark's own arithmetic and process handling.

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from harness import (  # noqa: E402
    Tracer,
    at_reference_speed,
    ratio,
    repeats,
    run_child,
    self_time,
    spread,
    summary,
    tree_digest,
    trimmed_mean,
    under,
)
from spread import apart, parse_seeds  # noqa: E402


def span(span_id, start, end, parent=None, name="s"):
    return {"id": span_id, "name": name, "parent": parent, "run": "r", "start": start, "end": end}


class Quartiles(unittest.TestCase):
    def test_median_and_quartiles_follow_statistics_quantiles(self):
        values = [7, 1, 10, 4, 2, 9, 3, 8, 6, 5]
        s = summary(values)
        self.assertEqual(s["median"], 5.5)
        self.assertEqual(s["trimmed_mean"], 5.5)
        self.assertEqual((s["q1"], s["q3"]), (2.75, 8.25))
        self.assertEqual(s["n"], 10)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))

    def test_single_sample_has_zero_width(self):
        self.assertEqual(
            summary([3.5]), {"trimmed_mean": 3.5, "median": 3.5, "q1": 3.5, "q3": 3.5, "n": 1}
        )

    def test_trimmed_mean_drops_the_outer_tenths(self):
        # Ten samples: the lowest and the highest are dropped.
        self.assertEqual(trimmed_mean([100, 1, 2, 3, 4, 5, 6, 7, 8, -50]), 4.5)
        # Fewer than ten: nothing is dropped.
        self.assertEqual(trimmed_mean([1, 2, 3, 10]), 4.0)
        # A bimodal sample: the median jumps to one mode, the trimmed mean
        # moves with the share of samples in each.
        bimodal = [0.36] * 5 + [0.54] * 6
        self.assertEqual(summary(bimodal)["median"], 0.54)
        self.assertAlmostEqual(trimmed_mean(bimodal), (0.36 * 4 + 0.54 * 5) / 9)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            summary([])

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(spread(range(1, 11)), (8.25 - 2.75) / 5.5)
        self.assertEqual(spread([2.0, 2.0, 2.0]), 0.0)
        with self.assertRaises(ValueError):
            spread([0, 0, 1])


class Ratios(unittest.TestCase):
    def test_ratio_divides_by_its_base(self):
        self.assertEqual(ratio(3, 4), 0.75)
        self.assertEqual(ratio(0, 4), 0.0)

    def test_ratio_without_a_base_is_refused(self):
        with self.assertRaises(ValueError):
            ratio(1, 0)


class ReferenceSpeed(unittest.TestCase):
    def test_scaling_cancels_a_uniform_slowdown(self):
        self.assertAlmostEqual(at_reference_speed(2.0, 0.4, 0.3), 1.5)
        # At half speed both wall times double; the scaled time stays put.
        self.assertAlmostEqual(at_reference_speed(4.0, 0.8, 0.3), 1.5)

    def test_reference_without_a_time_is_refused(self):
        with self.assertRaises(ValueError):
            at_reference_speed(1.0, 0.0, 0.3)


class Repeats(unittest.TestCase):
    def test_stops_before_a_repeat_would_overrun(self):
        count = 0
        for _ in repeats(1.0, 1):
            time.sleep(0.3)
            count += 1
        # Starts at about 0, 0.3 and 0.6; one at 0.9 would end after 1.0.
        self.assertEqual(count, 3)

    def test_runs_the_minimum_even_past_the_budget(self):
        self.assertEqual(list(repeats(0.0, 2)), [0, 1])


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_time([span(0, 1.0, 4.0)], 0), 3.0)

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            span(0, 0.0, 10.0),
            span(1, 1.0, 3.0, parent=0),
            span(2, 2.0, 5.0, parent=0),  # overlaps span 1: [1, 5] covers 4
            span(3, 8.0, 12.0, parent=0),  # only [8, 10] lies inside the parent
            span(4, 8.5, 9.0, parent=3),  # a grandchild is not the parent's child
        ]
        self.assertEqual(self_time(spans, 0), 10.0 - 4.0 - 2.0)
        self.assertEqual(self_time(spans, 3), 4.0 - 0.5)

    def test_tracer_nests_spans_and_under_filters_by_root(self):
        tracer = Tracer("run-1")
        with tracer.span("generate"):
            with tracer.span("step"):
                pass
        with tracer.span("probe"):
            with tracer.span("step"):
                pass
        spans = tracer.spans
        self.assertEqual([s["parent"] for s in spans], [None, 0, None, 2])
        self.assertEqual({s["run"] for s in spans}, {"run-1"})
        self.assertEqual([s["id"] for s in under(spans, "probe", "step")], [3])
        self.assertGreaterEqual(self_time(spans, 0), 0.0)


class Children(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def child(self, code, timeout_s=60.0):
        return run_child(
            [sys.executable, "-c", code],
            env=dict(os.environ),
            cwd=self.dir,
            log_dir=self.dir,
            timeout_s=timeout_s,
        )

    def test_peak_rss_is_read_per_child(self):
        big = self.child("b = bytearray(150_000_000); b[::4096] = b'x' * len(b[::4096])")
        small = self.child("pass")
        self.assertEqual((big.returncode, small.returncode), (0, 0))
        self.assertGreater(big.peak_rss_mb, 150)
        # A cumulative RUSAGE_CHILDREN reading would still show the big child.
        self.assertLess(small.peak_rss_mb, 100)

    def test_exit_code_and_output_are_kept(self):
        result = self.child("import sys; print('hi'); sys.exit(3)")
        self.assertEqual(result.returncode, 3)
        self.assertEqual(result.stdout, "hi\n")
        self.assertGreater(result.wall_s, 0)

    def test_hung_child_is_killed(self):
        result = self.child("import time; time.sleep(30)", timeout_s=0.5)
        self.assertNotEqual(result.returncode, 0)
        self.assertLess(result.wall_s, 10)


class Digest(unittest.TestCase):
    def test_digest_covers_names_and_bytes(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for root in (Path(a), Path(b)):
                (root / "d").mkdir()
                (root / "d" / "x.json").write_text("{}\n")
                (root / "y.json").write_text("[1]\n")
            first, second = tree_digest(Path(a)), tree_digest(Path(b))
            self.assertEqual(first, second)
            self.assertEqual((first.files, first.bytes), (2, 7))
            (Path(b) / "y.json").write_text("[2]\n")
            self.assertNotEqual(tree_digest(Path(b)).sha256, first.sha256)
            (Path(b) / "y.json").rename(Path(b) / "z.json")
            (Path(b) / "z.json").write_text("[1]\n")
            self.assertNotEqual(tree_digest(Path(b)).sha256, first.sha256)


class Declaration(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))

    def test_information_is_not_declared(self):
        self.assertFalse(run.TRACE_INFO_UNITS.keys() & run.PER_LAYER_UNITS.keys())
        self.assertFalse(run.WALL_UNITS.keys() & run.END_TO_END_UNITS.keys())

    def test_seed_ranges(self):
        self.assertEqual(parse_seeds("1-3,7"), [1, 2, 3, 7])

    def test_same_seed_difference_is_symmetric(self):
        self.assertAlmostEqual(apart(2.0, 2.5), 0.25)
        self.assertAlmostEqual(apart(2.5, 2.0), 0.25)
        self.assertEqual(apart(3.0, 3.0), 0.0)
        self.assertIsNone(apart(0.0, 1.0))


if __name__ == "__main__":
    unittest.main()

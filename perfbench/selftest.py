"""Self-test of the benchmark's own arithmetic, at tiny sizes.

Run with ``python3 perfbench/selftest.py`` (about a second; launches
nothing and does not import the program under test).
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402


def _span(name, start, end, span_id, parent=None, pid=1, **attrs):
    return {"name": name, "start": start, "end": end, "pid": pid, "tid": 0,
            "id": span_id, "parent": parent, "attrs": attrs}


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertFalse(measure.percentile_valid(999, 99.0))
        self.assertTrue(measure.percentile_valid(1000, 99.0))
        self.assertEqual(measure.samples_beyond(1000, 99.0), 10)
        self.assertTrue(measure.percentile_valid(20, 50.0))
        self.assertFalse(measure.percentile_valid(19, 50.0))

    def test_linear_interpolation(self):
        self.assertEqual(measure.percentile([3.0, 1.0, 2.0], 50.0), 2.0)
        self.assertAlmostEqual(measure.percentile([0.0, 10.0], 25.0), 2.5)
        self.assertEqual(measure.percentile([7.0], 99.0), 7.0)


class LedgerTest(unittest.TestCase):
    def test_failures_are_counted_not_dropped(self):
        ledger = measure.OpLedger()
        self.assertTrue(ledger.record(None))
        self.assertFalse(ledger.record("timeout"))
        self.assertFalse(ledger.record("stdout differs"))
        self.assertTrue(ledger.record(None))
        self.assertEqual((ledger.attempted, ledger.failed), (4, 2))
        self.assertEqual(ledger.failed_frac, 0.5)
        self.assertEqual(ledger.reasons, ["timeout", "stdout differs"])

    def test_no_attempt_is_a_total_failure(self):
        self.assertEqual(measure.OpLedger().failed_frac, 1.0)


class StdoutTest(unittest.TestCase):
    def test_timing_suffixes_are_blanked(self):
        first = b"s349  EA=  55.9( 54.2)  [  0.6s]\n  EA K=12: 3 runs [t=  1.5s]\n"
        second = b"s349  EA=  55.9( 54.2)  [ 12.0s]\n  EA K=12: 3 runs [t= 10.0s]\n"
        self.assertEqual(
            measure.normalize_stdout(first), measure.normalize_stdout(second)
        )

    def test_rates_still_compare(self):
        first = b"s349  EA=  55.9( 54.2)  [  0.6s]\n"
        other = b"s349  EA=  55.8( 54.2)  [  0.6s]\n"
        self.assertNotEqual(
            measure.normalize_stdout(first), measure.normalize_stdout(other)
        )

    def test_rate_parsers(self):
        compress = (
            b"9C     rate:  16.52%\n"
            b"EA     rate:  32.62% mean,  33.99% best over 3 runs\n"
            b"best MV usage: {'0011': 5, 'UUUU': 7}\n"
        )
        self.assertEqual(measure.compress_ea_rate(compress), 32.62)
        self.assertEqual(measure.compress_usage_total(compress), 12)
        table = b"a  EA=  50.0( 1.0)  [ 1s]\nb  EA=  40.0( 2.0)  [ 1s]\n"
        self.assertEqual(measure.table1_ea_rate(table), 45.0)
        with self.assertRaises(ValueError):
            measure.compress_ea_rate(b"no rate here\n")


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            _span("root", 0, 100, 0),
            _span("child", 10, 30, 1, parent=0),
            _span("child", 50, 60, 2, parent=0),
            _span("grandchild", 12, 20, 3, parent=1),
        ]
        table = measure.layer_table(spans)
        self.assertAlmostEqual(table["root"]["self_s"], 70e-9)
        self.assertAlmostEqual(table["child"]["self_s"], 22e-9)
        self.assertAlmostEqual(table["child"]["busy_s"], 30e-9)
        self.assertEqual(table["child"]["calls"], 2)

    def test_overlapping_children_count_once(self):
        spans = [
            _span("root", 0, 100, 0),
            _span("a", 10, 50, 1, parent=0),
            _span("b", 40, 120, 2, parent=0),  # overlaps a, overruns root
        ]
        self.assertAlmostEqual(measure.layer_table(spans)["root"]["self_s"], 10e-9)

    def test_same_name_nesting_is_busy_once(self):
        spans = [
            _span("map", 0, 100, 0),
            _span("map", 10, 90, 1, parent=0),
        ]
        table = measure.layer_table(spans)
        self.assertAlmostEqual(table["map"]["busy_s"], 100e-9)
        self.assertAlmostEqual(table["map"]["self_s"], 20e-9 + 80e-9)

    def test_processes_do_not_share_ids(self):
        spans = [
            _span("root", 0, 100, 0, pid=1),
            _span("child", 0, 50, 1, parent=0, pid=1),
            _span("root", 0, 100, 0, pid=2),
        ]
        table = measure.layer_table(spans)
        self.assertAlmostEqual(table["root"]["self_s"], 150e-9)
        self.assertAlmostEqual(table["root"]["busy_s"], 200e-9)

    def test_nested_busy_and_utilization(self):
        spans = [
            _span("cli.main", 0, 100, 0),
            _span("parallel.map", 0, 100, 1, parent=0, jobs=2),
            _span("ea.engine.run", 0, 40, 2, parent=1),
            _span("fit", 5, 25, 3, parent=2),
            _span("fit", 50, 60, 4, parent=1),
            _span("parallel.task", 0, 90, 0, pid=7),
            _span("parallel.task", 0, 60, 0, pid=8),
        ]
        self.assertAlmostEqual(
            measure.nested_busy(spans, "fit", "ea.engine.run"), 20e-9
        )
        self.assertAlmostEqual(measure.utilization(spans), 150 / 200)


if __name__ == "__main__":
    unittest.main()

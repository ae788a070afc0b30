"""Tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger  # noqa: E402


def span(name, ts, dur, tid=0):
    return {"name": name, "ts": float(ts), "dur": float(dur), "tid": tid,
            "ph": "X"}


def self_by_name(events):
    out = {}
    for tid, name, self_us in ledger.self_times(events):
        out[(tid, name)] = out.get((tid, name), 0.0) + self_us
    return out


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_direct_children_only(self):
        events = [
            span("round", 0, 100),
            span("compute", 10, 20),
            span("cross-iter-update", 40, 30),
            span("decode", 45, 10),  # inside cross-iter-update
        ]
        got = self_by_name(events)
        self.assertAlmostEqual(got[(0, "round")], 100 - 20 - 30)
        self.assertAlmostEqual(got[(0, "compute")], 20)
        self.assertAlmostEqual(got[(0, "cross-iter-update")], 30 - 10)
        self.assertAlmostEqual(got[(0, "decode")], 10)
        self.assertAlmostEqual(sum(got.values()), 100)

    def test_spans_of_other_threads_are_not_children(self):
        events = [span("compute", 0, 100, tid=0),
                  span("edge-read", 10, 50, tid=1)]
        got = self_by_name(events)
        self.assertAlmostEqual(got[(0, "compute")], 100)
        self.assertAlmostEqual(got[(1, "edge-read")], 50)

    def test_touching_siblings_and_equal_starts(self):
        events = [span("a", 0, 10), span("b", 10, 10),
                  span("outer", 20, 10), span("inner", 20, 4)]
        got = self_by_name(events)
        self.assertAlmostEqual(got[(0, "a")], 10)
        self.assertAlmostEqual(got[(0, "b")], 10)
        self.assertAlmostEqual(got[(0, "outer")], 6)
        self.assertAlmostEqual(got[(0, "inner")], 4)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        value, percentile, beyond = ledger.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(percentile, 90.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_smallest_count_whose_percentile_lies_above_the_median(self):
        value, percentile, beyond = ledger.tail(list(range(21)))
        self.assertEqual((value, beyond), (10, 10))
        self.assertAlmostEqual(percentile, 100.0 * 11 / 21)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(ledger.tail([3.0, 1.0, 2.0]), (2.0, 50.0, 1))
        self.assertEqual(ledger.tail(list(range(20))), (9.5, 50.0, 10))
        with self.assertRaises(ValueError):
            ledger.tail([])


class LedgerTest(unittest.TestCase):
    def events(self):
        # Consumer (tid 7) with a nested span; loader (tid 3) reading.
        return [
            span("schedule-decision", 1000, 500, tid=7),
            span("compute", 2000, 300000, tid=7),
            span("decode", 3000, 100000, tid=7),  # inside compute
            span("cross-iter-update", 400000, 50000, tid=7),
            span("edge-read", 1500, 350000, tid=3),
            span("decode", 351500, 40000, tid=3),
        ]

    def test_consumer_self_plus_unattributed_is_run_s(self):
        book = ledger.build_ledger(self.events(), run_s=0.6)
        self.assertAlmostEqual(book["consumer_s"],
                               (500 + 300000 + 50000) / 1e6)
        self.assertAlmostEqual(book["consumer_s"] + book["unattributed_s"],
                               0.6, places=12)
        self.assertAlmostEqual(book["consumer"]["compute"], 0.2)
        self.assertAlmostEqual(book["consumer"]["decode"], 0.1)
        self.assertAlmostEqual(book["loader"]["edge-read"], 0.35)
        self.assertAlmostEqual(book["loader"]["decode"], 0.04)
        # Spans cover 1000 us .. 450000 us of the 0.6 s run.
        self.assertAlmostEqual(book["outside_spans_s"], 0.6 - 0.449)

    def test_consumer_is_the_thread_with_engine_spans(self):
        self.assertEqual(ledger.consumer_tid(self.events()), 7)
        self.assertIsNone(ledger.consumer_tid([span("edge-read", 0, 1)]))

    def test_index_read_and_index_load_are_one_layer(self):
        events = [span("compute", 0, 100, tid=0),
                  span("index-read", 200, 10, tid=0),
                  span("index-load", 300, 20, tid=1)]
        book = ledger.build_ledger(events, run_s=1.0)
        self.assertAlmostEqual(
            ledger.span_seconds(book, ["index-read", "index-load"]), 30e-6)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's statistics on fixed inputs (no clocks).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

MS = 1_000_000  # ns per ms


def span(idx, name, ts, dur, parent=-1, request=1):
    return {"span": idx, "name": name, "ts": ts, "dur": dur,
            "parent": parent, "request": request}


class TailTest(unittest.TestCase):
    def test_highest_ladder_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 1001))
        value, pct, n = stats.tail(values)
        self.assertEqual((value, pct, n), (990, 99.0, 1000))
        # Exactly ten samples lie beyond p99 of 1000; p99.9 has one.
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_steps_down_the_ladder(self):
        self.assertEqual(stats.tail(list(range(1, 201))), (190, 95.0, 200))
        self.assertEqual(stats.tail(list(range(1, 200))), (180, 90.0, 199))
        self.assertEqual(stats.tail(list(range(1, 101))), (90, 90.0, 100))
        self.assertEqual(stats.tail(list(range(1, 41))), (30, 75.0, 40))
        self.assertEqual(stats.tail(list(range(1, 21))), (10, 50.0, 20))

    def test_pinned_percentile_is_not_exceeded(self):
        self.assertEqual(stats.tail(list(range(1, 1001)), percentile=95.0),
                         (950, 95.0, 1000))
        # Too few samples for the pinned percentile: step down.
        self.assertEqual(stats.tail(list(range(1, 101)), percentile=95.0),
                         (90, 90.0, 100))

    def test_order_of_input_does_not_matter(self):
        values = [float(v) for v in range(40, 0, -1)]
        self.assertEqual(stats.tail(values), (30.0, 75.0, 40))

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(stats.tail([]), (0.0, 0.0, 0))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        self.assertEqual(stats.percentile(list(range(1, 41)), 75.0), (30, 10))
        # Fewer samples keep the percentile, with fewer beyond it.
        self.assertEqual(stats.percentile(list(range(39, 0, -1)), 75.0),
                         (30, 9))
        self.assertEqual(stats.percentile([5.0], 95.0), (5.0, 0))
        self.assertEqual(stats.percentile([], 50.0), (0.0, 0))


class OpenLoopTest(unittest.TestCase):
    # (due, start, done, ok, light, traced): a stall delays the second send.
    REQUESTS = [
        (0 * MS, 0 * MS, 4 * MS, 1, 0, 0),
        (5 * MS, 9 * MS, 12 * MS, 1, 0, 0),
        (10 * MS, 12 * MS, 13 * MS, 1, 1, 0),
    ]

    def test_latency_counts_from_the_due_time(self):
        self.assertEqual(stats.latencies_ms(self.REQUESTS), [4.0, 7.0, 3.0])

    def test_generator_lag(self):
        self.assertEqual(stats.lags_ms(self.REQUESTS), [0.0, 4.0, 2.0])

    def test_closed_loop_has_no_lag(self):
        closed = [(s, s, d, 1, 0, 0) for _, s, d, *_ in self.REQUESTS]
        self.assertEqual(stats.lags_ms(closed), [0.0, 0.0, 0.0])
        self.assertEqual(stats.latencies_ms(closed), [4.0, 3.0, 1.0])


class ReferenceSpeedTest(unittest.TestCase):
    def test_slowdown_is_median_chunk_over_reference(self):
        self.assertEqual(stats.host_slowdown([1.0, 3.0, 1.5], 1.0), 1.5)
        self.assertEqual(stats.host_slowdown([0.5, 0.5, 9.0], 1.0), 0.5)

    def test_mean_counts_the_stalls(self):
        self.assertEqual(stats.host_slowdown([1.0, 1.0, 4.0], 2.0, "mean"),
                         1.0)

    def test_no_chunks_means_no_scaling(self):
        self.assertEqual(stats.host_slowdown([], 1.0), 1.0)

    def test_times_divide_and_rates_multiply(self):
        measured = {"latency_p50_ms": 300.0, "throughput_per_s": 2.0,
                    "f1": 0.5}
        scaled = stats.at_reference_speed(measured, 1.5, ("latency_p50_ms",),
                                          ("throughput_per_s",))
        self.assertEqual(scaled, {"latency_p50_ms": 200.0,
                                  "throughput_per_s": 3.0, "f1": 0.5})
        self.assertEqual(measured["latency_p50_ms"], 300.0)  # not modified

    def test_each_setup_scales_by_its_own_burst(self):
        self.assertEqual(stats.setups_at_reference_speed(
            [0.5, 0.75, 0.25], [2.0, 0.5, 0.25], 1.0), [0.25, 1.5, 1.0])


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        span(0, "request", 0.0, 100.0),
        span(1, "core.rank", 10.0, 30.0, parent=0),
        span(2, "core.select", 30.0, 30.0, parent=0),  # overlaps rank
        span(3, "core.propagate", 15.0, 5.0, parent=1),
        span(4, "workflow.render", 90.0, 20.0, parent=0),  # runs past root
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = stats.self_times(self.SPANS)
        # Children cover [10, 60) and [90, 100) of the root.
        self.assertEqual(own[0], 40.0)
        self.assertEqual(own[1], 25.0)
        self.assertEqual(own[2], 30.0)
        self.assertEqual(own[3], 5.0)
        self.assertEqual(own[4], 20.0)

    def test_unattributed_is_root_self_over_root_duration(self):
        second = [span(5, "request", 200.0, 100.0, request=2),
                  span(6, "core.rank", 200.0, 100.0, parent=5, request=2)]
        self.assertEqual(stats.unattributed_frac(self.SPANS + second),
                         40.0 / 200.0)

    def test_only_named_roots_count(self):
        ref = [span(0, "reference", 0.0, 10.0)]
        self.assertEqual(stats.unattributed_frac(ref), 0.0)

    def test_table_sums_by_name(self):
        table = stats.self_time_table(self.SPANS)
        self.assertEqual(table["request"], {"count": 1, "total": 100.0,
                                            "self": 40.0})
        self.assertEqual(table["core.rank"]["self"], 25.0)

    def test_per_request_sums(self):
        spans = [span(0, "request", 0, 10, request=1),
                 span(1, "schema.parse", 0, 2, parent=0, request=1),
                 span(2, "schema.parse", 2, 3, parent=0, request=1),
                 span(3, "schema.parse", 20, 4, request=2)]
        self.assertEqual(sorted(stats.per_request_sums(spans, "schema.parse")),
                         [4, 5])

    def test_wire_time_is_round_trip_minus_server_time(self):
        spans = [span(0, "client.roundtrip", 0.0, 10.0),
                 span(1, "service.queue_wait", 1.0, 2.0, parent=0),
                 span(2, "service.handler", 3.0, 5.0, parent=0),
                 span(3, "service.write", 8.0, 1.0, parent=0),
                 span(4, "client.roundtrip", 20.0, 4.0)]  # not joined
        self.assertEqual(stats.wire_times(spans), [3.0])


if __name__ == "__main__":
    unittest.main()

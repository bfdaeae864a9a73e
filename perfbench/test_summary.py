"""Tests of the benchmark's summary arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import tempfile
import unittest

import summary

HERE = os.path.dirname(os.path.abspath(__file__))


def span(i, name, start, end, parent=-1, n=1, m=0):
    return {"name": name, "start": start, "end": end, "id": i,
            "parent": parent, "job": 0, "n": n, "m": m}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_reports_sample_count(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(summary.percentile(values, 50), (50, 100))
        self.assertEqual(summary.percentile(values, 90), (90, 100))
        self.assertEqual(summary.percentile(values, 99), (99, 100))
        self.assertEqual(summary.percentile([7.0], 90), (7.0, 1))

    def test_order_does_not_matter(self):
        self.assertEqual(summary.percentile([3, 1, 2, 5, 4], 80), (4, 5))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            summary.percentile([], 50)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(summary.highest_supported_percentile(1000), 99)
        self.assertEqual(summary.highest_supported_percentile(999), 90)
        self.assertEqual(summary.highest_supported_percentile(100), 90)
        self.assertEqual(summary.highest_supported_percentile(99), 50)
        self.assertEqual(summary.highest_supported_percentile(5), 50)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = summary.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 5.5)
        self.assertAlmostEqual(summary.spread(values), (q3 - q1) / q2)

    def test_constant_samples_have_no_spread(self):
        self.assertEqual(summary.spread([4.0] * 10), 0.0)


class ThroughputTest(unittest.TestCase):
    def test_mib_per_second(self):
        self.assertEqual(summary.mb_per_s(1 << 20, 1.0), 1.0)
        self.assertEqual(summary.mb_per_s(100 << 20, 2.0), 50.0)
        self.assertAlmostEqual(summary.mb_per_s(104606610, 1.3), 76.7390, 3)

    def test_jobs_per_second_over_cycles(self):
        # Two full cycles of 2 ops (100 ms, then 50 ms per cycle) and a
        # dropped trailing op.
        self.assertEqual(summary.jobs_per_s([40, 60, 20, 30, 999], [1] * 5,
                                            cycle=2), 30.0)
        # A session of 104 jobs in 500 ms.
        self.assertEqual(summary.jobs_per_s([500.0], [104]), 208.0)

    def test_end_to_end(self):
        raw = {"op_ms": [10.0, 30.0, 20.0], "upload_text_bytes": 2 << 20,
               "upload_wall_s": [0.5, 1.0, 2.0], "stored_bytes": 300,
               "input_bytes": 100, "setup_s": [3.0, 1.0, 2.0],
               "peak_rss_kb": 2048}
        m = summary.end_to_end(raw)
        self.assertEqual(m["upload_mb_per_s"], 2.0)
        self.assertEqual(m["stored_bytes_per_input_byte"], 3.0)
        self.assertEqual(m["job_wall_ms_p50"], 20.0)
        self.assertEqual(m["jobs_per_s"], 50.0)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["peak_rss_mb"], 2.0)

    def test_session_job_wall_is_per_job(self):
        raw = {"op_ms": [100.0, 300.0], "jobs_per_op": [10, 10],
               "upload_text_bytes": 1, "upload_wall_s": [1.0],
               "stored_bytes": 1, "input_bytes": 1, "setup_s": [1.0],
               "peak_rss_kb": 1024}
        self.assertEqual(summary.end_to_end(raw)["job_wall_ms_p50"], 20.0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(0, "replay.job", 0, 100),
                 span(1, "mapreduce.read_split", 10, 40, parent=0),
                 span(2, "index.lookup", 50, 60, parent=0),
                 span(3, "layout.pax_open", 15, 25, parent=1)]
        self.assertEqual(summary.self_times(spans), [60, 20, 10, 10])
        table = summary.layer_table(spans)
        self.assertEqual(table["replay"], [1, 100, 60])
        self.assertEqual(table["mapreduce"], [1, 30, 20])

    def test_per_layer_rates_and_zero_for_unexercised(self):
        spans = [span(0, "query.filter", 0, 1000, n=100, m=25),
                 span(1, "util.crc32c", 0, 1000000000, n=3 << 20)]
        m = summary.per_layer({"layer": {"sim.job_s_p50": 4.5}}, spans)
        self.assertEqual(set(m), set(summary.PER_LAYER))
        self.assertEqual(m["query.filter_ns_per_row"], 10.0)
        self.assertEqual(m["query.selectivity"], 0.25)
        self.assertEqual(m["util.crc32c_mb_per_s"], 3.0)
        self.assertEqual(m["sim.job_s_p50"], 4.5)
        self.assertEqual(m["planner.plan_ms_per_job"], 0.0)

    def test_job_overhead_is_run_minus_read_splits(self):
        spans = [span(0, "mapreduce.run_query", 0, 5000000),
                 span(1, "mapreduce.read_split", 0, 1000000),
                 span(2, "mapreduce.read_split", 0, 1000000)]
        m = summary.per_layer({}, spans)
        self.assertEqual(m["mapreduce.job_overhead_ms"], 3.0)
        self.assertEqual(m["mapreduce.read_split_ns_per_task"], 1000000.0)

    def test_load_spans_round_trips_chrome_events(self):
        doc = {"traceEvents": [{"name": "index.lookup", "ph": "X", "pid": 1,
                                "tid": 1, "ts": 1.5, "dur": 0.25,
                                "args": {"id": 0, "parent": -1, "job": 3,
                                         "n": 1, "m": 7}}]}
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(doc, f)
        try:
            (s,) = summary.load_spans(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual((s["start"], s["end"], s["job"], s["m"]),
                         (1500, 1750, 3, 7))


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_lists_the_summary_metrics(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        for key, table in (("end_to_end", summary.END_TO_END),
                           ("per_layer", summary.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
            self.assertEqual(listed, table)


if __name__ == "__main__":
    unittest.main()

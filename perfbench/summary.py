"""Summary arithmetic for the HAIL wall-clock benchmark.

hailbench (the C++ program) emits raw samples: per-operation wall times,
set-up times, byte counts, registry counters and, in a traced run, a span
file. Everything that turns samples into the named metrics lives here, so
it can be tested without building anything (see test_summary.py).
"""

import json
import math
import statistics

MIB = 1 << 20

# name -> (unit, better). BENCHMARK.json lists the same names and units;
# test_summary.py keeps the two in step.
END_TO_END = {
    "upload_mb_per_s": ("MiB/s", "higher"),
    "stored_bytes_per_input_byte": ("B/B", "lower"),
    "job_wall_ms_p50": ("ms", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER = {
    "schema.parse_ns_per_row": ("ns/row", "lower"),
    "schema.rows_parsed": ("rows/op", "lower"),
    "util.crc32c_mb_per_s": ("MiB/s", "higher"),
    "util.crc32c_bytes": ("B/op", "lower"),
    "layout.pax_build_ns_per_row": ("ns/row", "lower"),
    "layout.permute_ns_per_block": ("ns/block", "lower"),
    "layout.pax_open_ns_per_block": ("ns/block", "lower"),
    "index.sort_build_ns_per_block": ("ns/block", "lower"),
    "index.lookup_ns": ("ns", "lower"),
    "index.rows_examined_per_row_returned": ("ratio", "lower"),
    "query.filter_ns_per_row": ("ns/row", "lower"),
    "query.selectivity": ("ratio", "higher"),
    "hdfs.namenode_lookup_ns": ("ns", "lower"),
    "hdfs.cache_verify_hit_rate": ("ratio", "higher"),
    "hdfs.cache_index_decodes": ("count/op", "lower"),
    "hdfs.cache_invalidations": ("count/op", "lower"),
    "hdfs.upload_other_ms": ("ms", "lower"),
    "hail.replica_build_ns": ("ns", "lower"),
    "mapreduce.read_split_ns_per_task": ("ns", "lower"),
    "mapreduce.tasks_per_job": ("count", "lower"),
    "mapreduce.index_scan_share": ("ratio", "higher"),
    "mapreduce.job_overhead_ms": ("ms", "lower"),
    "planner.plan_ms_per_job": ("ms", "lower"),
    "planner.plan_cache_hit_rate": ("ratio", "higher"),
    "adaptive.maintenance_tasks": ("count/op", "lower"),
    "adaptive.reorg_prepare_ms": ("ms", "lower"),
    "adaptive.reorg_commit_ms": ("ms", "lower"),
    "sim.job_s_p50": ("s", "lower"),
    "sim.upload_s": ("s", "lower"),
    "sim.billed_s": ("s", "lower"),
    "sim.session_s": ("s", "lower"),
    "sim.query_latency_p99_s": ("s", "lower"),
    "obs.tracing_overhead": ("ratio", "lower"),
}


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank p-th percentile and the sample count it rests on."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def highest_supported_percentile(n, candidates=(99, 90, 50)):
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in candidates:
        if n * (100 - p) / 100.0 >= 10:
            return p
    return 50


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def mb_per_s(nbytes, seconds):
    """MiB (2**20 bytes) per second."""
    return nbytes / MIB / seconds


def jobs_per_s(op_ms, jobs, cycle=1):
    """Completed jobs per wall second: the median, over consecutive cycles
    of `cycle` operations (one pass of the query mix), of each cycle's
    jobs divided by its wall time. Incomplete trailing cycles are dropped.
    """
    rates = []
    for start in range(0, len(op_ms) - cycle + 1, cycle):
        ms = sum(op_ms[start:start + cycle])
        rates.append(sum(jobs[start:start + cycle]) / (ms / 1e3))
    return median(rates)


def end_to_end(raw):
    """The end-to-end metrics of one untraced run's raw samples.

    An operation is one upload (upload), one job (hadoop_scan, hail_index)
    or one session Run() (mixed_session, whose jobs_per_op lists the jobs
    each session completed).
    """
    op_ms = raw["op_ms"]
    jobs = raw.get("jobs_per_op") or [1] * len(op_ms)
    per_job_ms = [ms / j for ms, j in zip(op_ms, jobs)]
    cycle = raw.get("ops_per_cycle", 1)
    return {
        "upload_mb_per_s": mb_per_s(raw["upload_text_bytes"],
                                    median(raw["upload_wall_s"])),
        "stored_bytes_per_input_byte": raw["stored_bytes"] / raw["input_bytes"],
        "job_wall_ms_p50": median(per_job_ms),
        "jobs_per_s": jobs_per_s(op_ms, jobs, cycle),
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def load_spans(path):
    """Spans of a hailbench trace file as dicts with integer nanoseconds."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        a = e["args"]
        start = round(e["ts"] * 1e3)
        spans.append({"name": e["name"], "start": start,
                      "end": start + round(e["dur"] * 1e3),
                      "id": a["id"], "parent": a["parent"], "job": a["job"],
                      "n": a["n"], "m": a["m"]})
    return spans


def self_times(spans):
    """Each span's duration minus the time its children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_table(spans):
    """layer -> [calls, total ns, self ns]; the layer is the name's prefix."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"].split(".")[0], [0, 0, 0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own
    return table


def span_totals(spans):
    """name -> {"count", "ns", "n", "m"} summed over that name's spans."""
    totals = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"count": 0, "ns": 0, "n": 0, "m": 0})
        t["count"] += 1
        t["ns"] += s["end"] - s["start"]
        t["n"] += s["n"]
        t["m"] += s["m"]
    return totals


def per_layer(raw, spans):
    """Every PER_LAYER metric of a traced run; 0 where the workload does
    not exercise the layer (no span of that name, no such counter)."""
    t = span_totals(spans)

    def ns(name):
        return t[name]["ns"] if name in t else 0

    def per(name, key, scale=1.0):
        if name not in t or t[name][key] == 0:
            return 0.0
        return t[name]["ns"] / t[name][key] * scale

    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({k: v for k, v in raw.get("layer", {}).items() if k in out})
    out["schema.parse_ns_per_row"] = per("schema.parse", "n")
    if ns("util.crc32c") > 0:
        out["util.crc32c_mb_per_s"] = mb_per_s(t["util.crc32c"]["n"],
                                               ns("util.crc32c") / 1e9)
    out["layout.pax_build_ns_per_row"] = per("layout.pax_build", "n")
    out["layout.permute_ns_per_block"] = per("layout.permute", "count")
    out["layout.pax_open_ns_per_block"] = per("layout.pax_open", "count")
    if "index.build" in t:
        out["index.sort_build_ns_per_block"] = (
            (ns("index.argsort") + ns("index.build")) / t["index.build"]["count"])
    out["index.lookup_ns"] = per("index.lookup", "count")
    out["query.filter_ns_per_row"] = per("query.filter", "n")
    if "query.filter" in t and t["query.filter"]["n"] > 0:
        out["query.selectivity"] = t["query.filter"]["m"] / t["query.filter"]["n"]
    out["hdfs.namenode_lookup_ns"] = per("hdfs.namenode_lookup", "count")
    if "replay_share" in raw:
        replayed = sum(ns(name) for name in ("layout.pax_build",
                                             "layout.serialize",
                                             "hail.begin_block",
                                             "hail.replica_build"))
        out["hdfs.upload_other_ms"] = (
            median(raw["upload_wall_s"]) * 1e3
            - replayed / raw["replay_share"] / 1e6)
    out["hail.replica_build_ns"] = per("hail.replica_build", "count")
    out["mapreduce.read_split_ns_per_task"] = per("mapreduce.read_split",
                                                  "count")
    if "mapreduce.run_query" in t:
        out["mapreduce.job_overhead_ms"] = (
            (ns("mapreduce.run_query") - ns("mapreduce.read_split"))
            / t["mapreduce.run_query"]["count"] / 1e6)
    out["planner.plan_ms_per_job"] = per("planner.plan", "count", 1e-6)
    out["adaptive.reorg_prepare_ms"] = per("adaptive.reorg_prepare", "count",
                                           1e-6)
    out["adaptive.reorg_commit_ms"] = per("adaptive.reorg_commit", "count",
                                          1e-6)
    if raw.get("untraced_op_ms") and raw.get("traced_op_ms"):
        out["obs.tracing_overhead"] = (median(raw["traced_op_ms"])
                                       / median(raw["untraced_op_ms"]))
    return out

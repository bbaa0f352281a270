#!/usr/bin/env python3
"""Turn an lshe_e2e span dump into the per-layer table and metrics.

    python3 bench/e2e/trace_summary.py TRACE.json [--json]

The dump is Chrome trace-event JSON (open it in chrome://tracing or
Perfetto). Each span carries its id, its parent span's id (-1 for none),
a wave id and named numbers (args) recorded by the driver.

Two tables are printed:

* per span name: count, total time and self time, where a span's self
  time is its duration minus the part of it its child spans cover;
* per layer of the replay (README.md, "Traced run"): each layer boundary's
  total time, the time of the boundary below it, and the difference, the
  layer's self time. Shards run in parallel inside the sharded boundary,
  so its children count as their sum over min(shards, workers).

Coverage check (exit 1 on failure): for every span with children, the
children plus the self time must equal the span within 5% (children that
overlap or stick out break this), and the replay's wave spans, summed,
must be covered by their layer calls to within 5%.
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

TOLERANCE = 0.05

# Every per-layer metric, in BENCHMARK.json order. A layer the workload
# does not exercise reports 0.
with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json") as _f:
    LAYER_METRICS = [m["name"] for m in json.load(_f)["per_layer"]]


def load(path):
    """Spans of a dump: dicts with id, parent, name, start, dur (in us)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        args = dict(e.get("args", {}))
        spans.append({
            "id": args.pop("id"), "parent": args.pop("parent"),
            "wave": args.pop("wave"), "name": e["name"], "tid": e["tid"],
            "start": e["ts"], "dur": e["dur"], "args": args,
        })
    return spans


def children_of(spans):
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    return children


def covered(span, kids):
    """Microseconds of `span` covered by the union of its children."""
    lo, hi = span["start"], span["start"] + span["dur"]
    total, reach = 0.0, lo
    for k in sorted(kids, key=lambda k: k["start"]):
        a, b = max(k["start"], reach), min(k["start"] + k["dur"], hi)
        if b > a:
            total += b - a
            reach = b
    return total


def check_coverage(spans):
    """Problems found by the 5% coverage check (empty when it passes)."""
    problems = []
    children = children_of(spans)
    container = defaultdict(lambda: [0.0, 0.0])  # name -> [dur, self]
    for s in spans:
        kids = children.get(s["id"])
        if not kids or s["dur"] <= 0:
            continue
        cover = covered(s, kids)
        self_time = s["dur"] - cover
        gap = abs(sum(k["dur"] for k in kids) + self_time - s["dur"])
        if gap > TOLERANCE * s["dur"]:
            problems.append(f"{s['name']}#{s['id']}: children + self differ "
                            f"from the span by {gap / s['dur']:.1%}")
        if s["args"].get("container"):
            container[s["name"]][0] += s["dur"]
            container[s["name"]][1] += self_time
    # Over all waves together: one wave preempted between two calls must
    # not fail the check, but recording overhead or untimed work must.
    for name, (dur, self_time) in container.items():
        if self_time > TOLERANCE * dur:
            problems.append(f"{name}: layer calls cover only "
                            f"{1 - self_time / dur:.1%} of the waves")
    return problems


def span_table(spans):
    """name -> [count, total_us, self_us]."""
    children = children_of(spans)
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = table[s["name"]]
        row[0] += 1
        row[1] += s["dur"]
        row[2] += s["dur"] - covered(s, children.get(s["id"], []))
    return table


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _total(spans, name):
    return sum(s["dur"] for s in _named(spans, name))


def _arg_sum(spans, name, key):
    return sum(s["args"].get(key, 0.0) for s in _named(spans, name))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_table(spans):
    """(layer, boundary_us, children_us, self_us) rows of the replay."""
    root = _named(spans, "replay")
    if not root:
        return []
    lanes = min(root[0]["args"]["shards"], root[0]["args"]["workers"])
    sharded = _total(spans, "sharded.BatchQuery")
    dynamic = _total(spans, "dynamic.BatchQuery")
    ensemble = _total(spans, "ensemble.BatchQuery")
    tune = _total(spans, "ensemble.Tune")
    rows = [("sharded", sharded, dynamic / lanes),
            ("dynamic", dynamic, ensemble),
            ("ensemble", ensemble, tune),
            ("tuning", tune, 0.0)]
    return [(name, total, kids, total - kids) for name, total, kids in rows]


def layer_metrics(spans):
    """Every per-layer metric, from the spans and their args."""
    m = dict.fromkeys(LAYER_METRICS, 0.0)

    for ref in _named(spans, "serve.reference"):
        a = ref["args"]
        m["serve.batch_fill_mean"] = a["batch_fill_mean"]
        m["serve.coalesce_wait_us_mean"] = a["coalesce_us_mean"]
        m["serve.dispatch_us_mean"] = a["dispatch_us_mean"]
        m["serve.sheds"] = a["sheds"]
        m["serve.bytes_per_req"] = a["bytes_per_req"]
        m["serve.self_us_per_req"] = (a["latency_us_mean"] -
                                      a["coalesce_us_mean"] -
                                      a["dispatch_us_mean"])
        m["serve.decode_ns_per_resp"] = a["decode_ns_mean"]
    for phase in _named(spans, "serve.reference") + _named(spans,
                                                           "phase.ingest"):
        m["gen.lateness_p99_ms"] = phase["args"]["lateness_p99_ms"]
        m["gen.outstanding_max"] = phase["args"]["outstanding_max"]
    for phase in _named(spans, "phase.ingest"):
        a = phase["args"]
        m["dynamic.delta_size_mean"] = a["delta_size_mean"]
        m["dynamic.tombstones_mean"] = a["tombstones_mean"]
        m["dynamic.rebuilds"] = a["rebuilds"]
        m["dynamic.rebuild_stall_ms_max"] = a["rebuild_stall_ms_max"]

    queries = _arg_sum(spans, "replay.wave", "queries")
    if queries:
        root = _named(spans, "replay")[0]["args"]
        lanes = min(root["shards"], root["workers"])
        sharded = _total(spans, "sharded.BatchQuery")
        busy = defaultdict(float)
        for s in _named(spans, "dynamic.BatchQuery"):
            busy[s["args"]["shard"]] += s["dur"]
        dynamic = sum(busy.values())
        ensemble = _total(spans, "ensemble.BatchQuery")
        m["sharded.wave_us_per_query"] = sharded / queries
        m["sharded.parallel_efficiency"] = _ratio(dynamic, sharded * lanes)
        m["sharded.shard_imbalance"] = _ratio(max(busy.values()),
                                              dynamic / len(busy))
        m["sharded.allocs_per_query"] = _arg_sum(
            spans, "sharded.BatchQuery", "allocs") / queries
        m["dynamic.delta_scan_us_per_query"] = (dynamic - ensemble) / queries
        m["ensemble.us_per_query"] = ensemble / queries
        m["ensemble.tune_us_per_call"] = _ratio(
            _total(spans, "ensemble.Tune"),
            _arg_sum(spans, "ensemble.Tune", "calls"))
        stats = _named(spans, "replay.stats")[0]["args"]
        n = stats["queries"]
        m["ensemble.partitions_probed_per_query"] = stats[
            "partitions_probed"] / n
        m["ensemble.partitions_pruned_per_query"] = stats[
            "partitions_pruned"] / n
        m["ensemble.filter_skipped_per_query"] = stats["filter_skipped"] / n
        m["ensemble.candidates_per_query"] = stats["candidates"] / n
        m["ensemble.slot0_hit_rate"] = _ratio(
            stats["slot0_hits"], _arg_sum(spans, "ensemble.Tune", "trees"))
        m["ensemble.gallop_resumes_per_query"] = stats["gallop_resumes"] / n

    topk_queries = _arg_sum(spans, "topk.BatchSearch", "queries")
    if topk_queries:
        m["topk.us_per_query"] = _total(spans,
                                        "topk.BatchSearch") / topk_queries
        m["topk.allocs_per_query"] = _arg_sum(
            spans, "topk.BatchSearch", "allocs") / topk_queries

    for s in _named(spans, "setup.sketch"):
        m["sketch.mvalues_per_s"] = s["args"]["values"] / s["dur"]
    for s in _named(spans, "sketch.replay"):
        m["sketch.us_per_insert"] = _ratio(s["dur"], s["args"]["inserts"])
    for s in _named(spans, "setup.flush"):
        m["build.flush_s"] = s["dur"] / 1e6
    for s in _named(spans, "build.partition"):
        m["build.partition_ms"] = s["dur"] / 1e3 / s["args"]["calls"]
    for s in _named(spans, "setup.save"):
        m["io.save_s"] = s["dur"] / 1e6
        m["io.snapshot_mb"] = s["args"]["mb"]
    for s in _named(spans, "setup.open"):
        m["io.open_s"] = s["dur"] / 1e6

    joins = _named(spans, "cluster.join")
    if joins:
        collects = _named(spans, "cluster.collect")
        m["cluster.collect_s"] = _total(spans, "cluster.collect") / len(
            collects) / 1e6
        m["cluster.join_s"] = _total(spans, "cluster.join") / len(joins) / 1e6
        m["cluster.candidates_per_record"] = _ratio(
            _arg_sum(spans, "cluster.join", "candidates"),
            _arg_sum(spans, "cluster.join", "records"))
        m["cluster.unique_pairs"] = _arg_sum(spans, "cluster.join",
                                             "unique_pairs") / len(joins)

    for s in _named(spans, "trace.overhead"):
        m["trace.overhead_frac"] = 1.0 - _ratio(s["args"]["traced_qps"],
                                                s["args"]["untraced_qps"])
    return m


def render(spans):
    lines = [f"{'span':24s} {'count':>7s} {'total_ms':>11s} {'self_ms':>11s}"]
    for name, (count, total, self_time) in span_table(spans).items():
        lines.append(f"{name:24s} {count:7d} {total / 1e3:11.3f} "
                     f"{self_time / 1e3:11.3f}")
    rows = layer_table(spans)
    if rows:
        lines.append("")
        lines.append(f"{'layer (replay)':24s} {'boundary_ms':>11s} "
                     f"{'below_ms':>11s} {'self_ms':>11s}")
        for name, total, kids, self_time in rows:
            lines.append(f"{name:24s} {total / 1e3:11.3f} {kids / 1e3:11.3f} "
                         f"{self_time / 1e3:11.3f}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--json", action="store_true",
                        help="print the per-layer metrics as JSON")
    args = parser.parse_args(argv)
    spans = load(args.trace)
    problems = check_coverage(spans)
    if args.json:
        print(json.dumps(layer_metrics(spans), indent=1))
    else:
        print(render(spans))
        print()
        for name, value in layer_metrics(spans).items():
            print(f"{name} {value!r}")
    for p in problems:
        print(f"coverage check failed: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Metric declarations and their computation from measurements and spans.

One *op* is a query on the query workloads and an epoch (``epoch``
arrivals followed by one publish) on ``stream-sliding``; every
end-to-end metric is defined per op, so each applies to all four
workloads.  ``BENCHMARK.json`` declares the same names and units; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from common import Measurement, blocks, median, peak_rss_mb, tail_percentile
from tracer import Span, Tracer, blocking_path, self_times

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("first_result_p50_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("tuples_per_query", "tuples"),
    ("messages_per_query", "msgs"),
    ("peak_rss_mb", "MiB"),
    ("notify_p50_ms", "ms"),
    ("notify_tail_ms", "ms"),
    ("arrivals_per_s", "1/s"),
    ("uplink_tuples_per_epoch", "tuples"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("site.build_s", "s"),
    ("site.build_calls", "count"),
    ("site.columns_s", "s"),
    ("site.columns_calls", "count"),
    ("site.prepare_s", "s"),
    ("site.prepare_calls", "count"),
    ("site.skyline_candidates", "tuples"),
    ("site.pop_s", "s"),
    ("site.pop_calls", "count"),
    ("site.probe_s", "s"),
    ("site.probe_calls", "count"),
    ("site.probe_targets", "tuples"),
    ("site.feedback_s", "s"),
    ("site.pruned", "tuples"),
    ("site.prune_ratio", "ratio"),
    ("site.write_s", "s"),
    ("site.write_calls", "count"),
    ("coordinator.self_s", "s"),
    ("coordinator.steps", "count"),
    ("net.messages", "msgs"),
    ("net.tuples", "tuples"),
    ("net.rpc_s", "s"),
    ("net.rpc_calls", "count"),
    ("net.rpc_p50_ms", "ms"),
    ("net.rpc_tail_ms", "ms"),
    ("net.dial_s", "s"),
    ("fault.retries", "count"),
    ("fault.failures", "count"),
    ("fault.degraded_queries", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.passes", "count"),
    ("serve.client_wakeups", "count"),
    ("stream.ingest_s", "s"),
    ("stream.epoch_s", "s"),
    ("stream.site_epoch_s", "s"),
    ("stream.deliver_s", "s"),
    ("stream.candidates_shipped", "tuples"),
    ("stream.replicas_shipped", "tuples"),
    ("stream.suppression_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

#: Largest share of the traced wall time the named layers may leave
#: unaccounted along the blocking path (event-loop glue, the load
#: generator's own loop).
LAYER_SUM_TOLERANCE = 0.10

UNITS = dict(END_TO_END + PER_LAYER)


def _metric(name: str, value: float) -> Dict[str, Any]:
    return {"value": value, "unit": UNITS[name]}


def _block_tail(values: List[float]) -> Tuple[float, float, int]:
    """The median over blocks of each block's tail: (percentile, value, samples)."""
    tails = [tail_percentile(block) for block in blocks(values)]
    return median([t[0] for t in tails]), median([t[1] for t in tails]), int(median([t[2] for t in tails]))


def end_to_end(meas: Measurement) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The user-visible metrics, plus the detail recorded beside them."""
    done = [op for op in meas.ops if not op.failed]
    latency = [op.latency for op in done]
    notify = [op.notify for op in done]
    firsts = [op.first for op in done if op.first is not None]
    lat_pct, lat_tail, lat_n = _block_tail(latency)
    not_pct, not_tail, not_n = _block_tail(notify)
    values = {
        "setup_s": median(meas.setup_s),
        "latency_p50_ms": median(latency) * 1e3,
        "latency_tail_ms": lat_tail * 1e3,
        "first_result_p50_ms": median(firsts) * 1e3,
        "throughput_qps": len(done) / meas.elapsed,
        "tuples_per_query": sum(op.tuples for op in meas.ops) / len(meas.ops),
        "messages_per_query": sum(op.messages for op in meas.ops) / len(meas.ops),
        "peak_rss_mb": peak_rss_mb(),
        "notify_p50_ms": median(notify) * 1e3,
        "notify_tail_ms": not_tail * 1e3,
        "arrivals_per_s": meas.arrivals / meas.elapsed,
        "uplink_tuples_per_epoch": sum(op.uplink for op in meas.ops) / len(meas.ops),
    }
    detail = {
        "ops": len(meas.ops),
        "elapsed_s": meas.elapsed,
        "setup_reps_s": meas.setup_s,
        "latency_tail_percentile": lat_pct,
        "latency_samples_per_block": lat_n,
        "notify_tail_percentile": not_pct,
        "notify_samples_per_block": not_n,
        "tail_blocks": len(blocks(latency)),
        "first_result_samples": len(firsts),
    }
    return {name: _metric(name, values[name]) for name, _ in END_TO_END}, detail


def _rollup(spans: List[Span], own: Dict[int, float]) -> Dict[str, List[float]]:
    """Per span name: [self seconds, calls, work]."""
    out: Dict[str, List[float]] = {}
    for span in spans:
        row = out.setdefault(span.name, [0.0, 0, 0])
        row[0] += own[span.sid]
        row[1] += 1
        row[2] += span.n
    return out


def per_layer(
    tracer: Tracer,
    root: Span,
    meas: Measurement,
    untraced: Measurement,
) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """Layer metrics of a traced run and the reconciliation verdicts.

    What ``NetworkStats.record`` saw must reproduce, per query and in
    total, the (messages, tuples) each coordinator booked
    (``meas.ledger``).
    """
    spans = tracer.spans
    own = self_times(spans)
    roll = _rollup(spans, own)

    def seconds(name: str) -> float:
        return roll.get(name, [0.0, 0, 0])[0]

    def calls(name: str) -> float:
        return roll.get(name, [0.0, 0, 0])[1]

    def work(name: str) -> float:
        return roll.get(name, [0.0, 0, 0])[2]

    rpc = [span.duration for span in spans if span.name == "net.rpc"]
    rpc_tail = tail_percentile(rpc)[1] if len(rpc) > 10 else 0.0
    books = meas.books
    messages = sum(book[0] for book in tracer.books.values())
    tuples = sum(book[1] for book in tracer.books.values())
    arrivals = books.get("arrivals", 0.0)
    blocking, lowest = blocking_path(spans, root)
    layered = sum(v for name, v in blocking.items() if not name.startswith("bench."))
    unattributed = (root.duration - layered) / root.duration
    values = {
        "site.build_s": seconds("site.build"),
        "site.build_calls": calls("site.build"),
        "site.columns_s": seconds("site.columns"),
        "site.columns_calls": calls("site.columns"),
        "site.prepare_s": seconds("site.prepare"),
        "site.prepare_calls": calls("site.prepare"),
        "site.skyline_candidates": work("site.prepare"),
        "site.pop_s": seconds("site.pop"),
        "site.pop_calls": calls("site.pop"),
        "site.probe_s": seconds("site.probe"),
        "site.probe_calls": calls("site.probe"),
        "site.probe_targets": work("site.probe"),
        "site.feedback_s": seconds("site.feedback"),
        "site.pruned": work("site.feedback"),
        "site.prune_ratio": work("site.feedback") / work("site.prepare") if work("site.prepare") else 0.0,
        "site.write_s": seconds("site.write"),
        "site.write_calls": calls("site.write"),
        "coordinator.self_s": seconds("coordinator.step"),
        "coordinator.steps": calls("coordinator.step"),
        "net.messages": messages,
        "net.tuples": tuples,
        "net.rpc_s": seconds("net.rpc"),
        "net.rpc_calls": calls("net.rpc"),
        "net.rpc_p50_ms": median(rpc) * 1e3,
        "net.rpc_tail_ms": rpc_tail * 1e3,
        "net.dial_s": seconds("net.dial"),
        "fault.retries": books.get("retries", 0.0),
        "fault.failures": books.get("failures", 0.0),
        "fault.degraded_queries": books.get("degraded", 0.0),
        "serve.queue_wait_s": books.get("queue_wait_s", 0.0),
        "serve.run_s": books.get("run_s", 0.0),
        "serve.passes": books.get("passes", 0.0),
        "serve.client_wakeups": books.get("client_wakeups", 0.0),
        "stream.ingest_s": seconds("stream.ingest"),
        "stream.epoch_s": seconds("stream.epoch"),
        "stream.site_epoch_s": seconds("stream.site_epoch"),
        "stream.deliver_s": seconds("stream.deliver"),
        "stream.candidates_shipped": books.get("candidates", 0.0),
        "stream.replicas_shipped": books.get("replicas", 0.0),
        "stream.suppression_ratio": 1.0 - books.get("candidates", 0.0) / arrivals if arrivals else 0.0,
        "trace.wall_s": root.duration,
        "trace.unattributed_ratio": unattributed,
        "trace.overhead_ratio": meas.elapsed / untraced.elapsed - 1.0,
    }
    problems = []
    want_messages = sum(book[0] for book in meas.ledger.values())
    want_tuples = sum(book[1] for book in meas.ledger.values())
    if (messages, tuples) != (want_messages, want_tuples):
        problems.append(
            f"trace books {messages} msgs/{tuples} tuples != NetworkStats {want_messages}/{want_tuples}"
        )
    for query, (m, t) in meas.ledger.items():
        if query is None:
            continue
        seen = tracer.books.get(query, [0, 0])
        if (seen[0], seen[1]) != (m, t):
            problems.append(f"query {query}: trace books {seen} != NetworkStats {[m, t]}")
    if lowest < -1e-9:
        problems.append(f"a span on the blocking path has negative self time ({lowest:.3g} s)")
    if unattributed > LAYER_SUM_TOLERANCE:
        problems.append(
            f"layers cover {1 - unattributed:.2%} of the traced wall time "
            f"(tolerance {LAYER_SUM_TOLERANCE:.0%})"
        )
    detail = {
        "blocking_path_s": blocking,
        "layer_sum_tolerance": LAYER_SUM_TOLERANCE,
        "spans": len(spans),
        "untraced_elapsed_s": untraced.elapsed,
        "traced_elapsed_s": meas.elapsed,
        "rpc_samples": len(rpc),
    }
    return {name: _metric(name, float(values[name])) for name, _ in PER_LAYER}, detail, problems

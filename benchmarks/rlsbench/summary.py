"""From timed segments and counter snapshots to named metrics.

Every metric is ``{"value", "unit", "n"}`` plus, where it was computed
per segment, the per-segment values under ``rounds`` (``compare.py``
reads its spread from those); its value is then the decile of those on
the good side (:func:`quantiles.quiet`).  ``n`` is the number of calls
behind the number.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from quantiles import highest_supported_percentile, median, percentile, quiet
from workloads import Segment

Metric = dict[str, Any]

#: Per-kind latencies are reported under the scalar name; on ``lrc_bulk``
#: they are per 1000-name request.
KIND_METRIC = {
    "query": "query_p50_us", "bulk_query": "query_p50_us", "rli_query": "query_p50_us",
    "add": "add_p50_us", "bulk_add": "add_p50_us",
    "delete": "delete_p50_us", "bulk_delete": "delete_p50_us",
    "full_update": "full_update_p50_us", "bloom_update": "bloom_update_p50_us",
}


def _metric(value: float, unit: str, n: int, rounds: Sequence[float] | None = None) -> Metric:
    metric: Metric = {"value": value, "unit": unit, "n": n}
    if rounds is not None:
        metric["rounds"] = list(rounds)
    return metric


def _per_segment(
    segments: Sequence[Segment], fn: Callable[[Segment], float], unit: str,
    n: int, better: str = "lower",
) -> Metric:
    rounds = [fn(seg) for seg in segments]
    return _metric(quiet(rounds, better), unit, n, rounds)


def end_to_end(
    segments: Sequence[Segment], setups: Sequence[float], rss_mb: float
) -> dict[str, Metric]:
    """The gated metrics of one workload."""
    calls = sum(seg.calls for seg in segments)
    samples = sum(len(seg.latencies) for seg in segments)
    return {
        "setup_s": _metric(median(setups), "s", len(setups), setups),
        "ops_per_s": _per_segment(
            segments, lambda s: s.calls / s.wall_s, "1/s", calls, "higher"
        ),
        "names_per_s": _per_segment(
            segments, lambda s: s.names / s.wall_s, "1/s", calls, "higher"
        ),
        "latency_p50_us": _per_segment(
            segments, lambda s: percentile(s.latencies, 50) * 1e6, "us", samples
        ),
        "server_cpu_us_per_op": _per_segment(
            segments, lambda s: s.server_cpu_s / s.calls * 1e6, "us", calls
        ),
        "server_rss_mb": _metric(rss_mb, "MB", 1),
    }


def client_side(
    segments: Sequence[Segment], final_wrong: int, calib_us: Sequence[float]
) -> dict[str, Metric]:
    """Per-kind latencies, tails, correctness, and the generator's own cost."""
    out: dict[str, Metric] = {}
    calls = sum(seg.calls for seg in segments)
    for kind in dict.fromkeys(kind for seg in segments for kind in seg.by_kind):
        having = [seg for seg in segments if kind in seg.by_kind]
        n = sum(len(seg.by_kind[kind]) for seg in having)
        out[KIND_METRIC[kind]] = _per_segment(
            having, lambda s: percentile(s.by_kind[kind], 50) * 1e6, "us", n
        )
    pooled = [v for seg in segments for v in seg.latencies]
    for q in (95.0, 99.0):
        # A percentile is reported only with ten samples beyond it.
        if highest_supported_percentile(len(pooled)) >= q:
            out[f"client.latency_p{q:.0f}_us"] = _metric(
                percentile(pooled, q) * 1e6, "us", len(pooled)
            )
    failed = sum(seg.failed for seg in segments)
    wrong = sum(seg.wrong for seg in segments) + final_wrong
    out["error_rate"] = _metric(failed / calls, "ratio", calls)
    out["wrong_results"] = _metric(wrong, "count", calls)
    out["client.cpu_us_per_op"] = _per_segment(
        segments, lambda s: s.client_cpu_s / s.calls * 1e6, "us", calls
    )
    rates = [seg.calls / seg.wall_s for seg in segments]
    out["client.round_spread"] = _metric(
        (max(rates) - min(rates)) / median(rates), "ratio", len(rates)
    )
    out["host.calib_us"] = _metric(median(calib_us), "us", len(calib_us), calib_us)
    steal = [seg.host_steal_s / seg.wall_s for seg in segments]
    out["host.steal_share"] = _metric(median(steal), "ratio", len(steal), steal)
    asked = sum(len(seg.by_kind.get("rli_query", ())) for seg in segments)
    if asked:
        positives = sum(seg.false_positives for seg in segments)
        out["core.bloom.false_positive_ratio"] = _metric(positives / asked, "ratio", asked)
    return out


def _total(counters: dict[str, float], name: str, *labels: str) -> float:
    """Sum a metric over its label sets; ``labels`` are ``k=v`` filters."""
    total = 0.0
    for key, value in counters.items():
        base, _, rest = key.partition("{")
        if base == name and all(label in rest for label in labels):
            total += value
    return total


def layer_counts(
    before: dict[str, float], after: dict[str, float], ops: int
) -> dict[str, Metric]:
    """Program counters read from outside (``client.metrics()``), as
    deltas around the counted segments, per client call."""
    delta = {key: after[key] - before.get(key, 0.0) for key in after}

    def per_op(name: str, *labels: str) -> float:
        return _total(delta, name, *labels) / ops

    hits = _total(delta, "db.stmt_cache_hits")
    lookups = hits + _total(delta, "db.stmt_cache_misses")
    # The snapshot call itself is an RPC; it is not part of the load.
    own = _total(delta, "rpc.requests", "method=admin_metrics") + _total(
        delta, "rpc.errors", "method=admin_metrics"
    )
    handled = _total(delta, "rpc.requests") + _total(delta, "rpc.errors") - own
    values = {
        "db.sql.statements_per_op": (per_op("db.statements"), "count/op"),
        "db.sql.rows_examined_per_op": (per_op("usage.rows_examined"), "count/op"),
        "db.sql.stmt_cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "db.wal.records_per_op": (per_op("wal.records_appended"), "count/op"),
        "db.wal.bytes_per_op": (per_op("usage.wal_bytes"), "B/op"),
        "db.table.dead_tuples": (_total(after, "db.table.dead_tuples"), "count"),
        "net.transport.bytes_in_per_op": (per_op("net.bytes_in", "transport=tcp"), "B/op"),
        "net.transport.bytes_out_per_op": (per_op("net.bytes_out", "transport=tcp"), "B/op"),
        "net.transport.batch_frames_per_op": (per_op("net.batch_frames"), "count/op"),
        "net.rpc.requests_per_op": (handled / ops, "count/op"),
        "net.rpc.errors": (_total(delta, "rpc.errors"), "count"),
        "core.updates.names_sent": (per_op("updates.names_sent"), "count/op"),
        "core.updates.bloom_bytes_sent": (per_op("updates.bloom_bytes_sent"), "B/op"),
        "core.rli.updates_applied": (per_op("rli.updates_applied"), "count/op"),
        "cluster.combined.routes_per_op": (per_op("cluster.routes"), "count/op"),
        "cluster.combined.failovers": (_total(delta, "cluster.failovers"), "count"),
    }
    return {name: _metric(value, unit, ops) for name, (value, unit) in values.items()}

"""Metrics: counters, gauges and log-bucketed latency histograms.

The paper's contribution is *measurement*, and its successor work (Zhang
et al., cs/0304015) shows grid services need built-in monitoring surfaces
to be evaluated at scale.  This module is that surface's data model:

* :class:`Counter` — monotonically increasing count (requests, bytes);
* :class:`Gauge` — point-in-time value (queue depth, open connections);
* :class:`Histogram` — log-bucketed latency distribution with p50/p95/p99;
* :class:`MetricsRegistry` — a thread-safe, label-aware instrument store
  whose :meth:`~MetricsRegistry.snapshot` is a plain-data, *mergeable*
  value (snapshots from many servers combine into a deployment view, and
  two snapshots subtract to isolate one benchmark run).

**Cost model.**  Instrumented code paths resolve their instruments once
(at construction) and call ``inc()``/``observe()`` per operation.  When no
registry is installed the module-level :data:`NULL_REGISTRY` hands out
no-op singletons whose methods are empty, so the per-operation cost is one
cheap method call; hot paths can additionally skip ``perf_counter`` pairs
by checking the instrument's ``noop`` attribute (or ``registry.enabled``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

# Log-spaced latency buckets: 1 µs doubling up to ~134 s, plus overflow.
# Fine enough that p95/p99 interpolation lands within a factor of 2 of the
# true value anywhere in the range an RLS operation can take.
_BUCKET_START = 1e-6
NUM_BUCKETS = 28
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    _BUCKET_START * (2.0**i) for i in range(NUM_BUCKETS)
)


def bucket_index(value: float) -> int:
    """Index of the histogram bucket holding ``value`` (last = overflow)."""
    return bisect_left(BUCKET_BOUNDS, value)


class Counter:
    """Thread-safe monotonically increasing counter."""

    noop = False
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Thread-safe point-in-time value."""

    noop = False
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Log-bucketed distribution of non-negative values (usually seconds)."""

    noop = False
    __slots__ = ("_lock", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (NUM_BUCKETS + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            value = 0.0
        idx = bisect_left(BUCKET_BOUNDS, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def snapshot(self) -> "HistogramSnapshot":
        with self._lock:
            return HistogramSnapshot(
                counts=tuple(self._counts),
                count=self._count,
                sum=self._sum,
                min=self._min if self._count else 0.0,
                max=self._max,
            )

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, p: float) -> float:
        return self.snapshot().percentile(p)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable histogram state; merges with and subtracts from peers."""

    counts: tuple[int, ...]
    count: int
    sum: float
    min: float
    max: float

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0-100) by linear interpolation
        within the covering log bucket.  Exact at bucket edges; within one
        bucket width (factor of 2) everywhere else."""
        if self.count == 0:
            return 0.0
        if p <= 0:
            return self.min
        if p >= 100:
            return self.max
        rank = (p / 100.0) * self.count
        cumulative = 0
        for idx, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lower = 0.0 if idx == 0 else BUCKET_BOUNDS[idx - 1]
                upper = (
                    self.max
                    if idx >= NUM_BUCKETS
                    else min(BUCKET_BOUNDS[idx], max(self.max, lower))
                )
                if upper < lower:
                    upper = lower
                fraction = (rank - cumulative) / n
                return lower + (upper - lower) * fraction
            cumulative += n
        return self.max

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two snapshots (e.g. the same metric from two servers)."""
        return HistogramSnapshot(
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min) if other.count and self.count
            else (self.min if self.count else other.min),
            max=max(self.max, other.max),
        )

    def delta(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations recorded since ``earlier`` (cumulative subtraction).

        ``min``/``max`` cannot be subtracted, so the delta keeps this
        snapshot's extremes — an upper bound on the interval's range.
        """
        return HistogramSnapshot(
            counts=tuple(
                max(0, a - b) for a, b in zip(self.counts, earlier.counts)
            ),
            count=max(0, self.count - earlier.count),
            sum=max(0.0, self.sum - earlier.sum),
            min=self.min,
            max=self.max,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HistogramSnapshot":
        return cls(
            counts=tuple(data["counts"]),
            count=data["count"],
            sum=data["sum"],
            min=data["min"],
            max=data["max"],
        )


# ---------------------------------------------------------------------------
# No-op instruments (installed-registry-absent fast path)
# ---------------------------------------------------------------------------


class _NullCounter:
    noop = True
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    noop = True
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    noop = True
    __slots__ = ()
    count = 0

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot((0,) * (NUM_BUCKETS + 1), 0, 0.0, 0.0, 0.0)

    def percentile(self, p: float) -> float:
        return 0.0


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Registry stand-in that hands out no-op singletons."""

    enabled = False

    def counter(self, name: str, **labels: str) -> _NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> _NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, **labels: str) -> _NullHistogram:
        return NULL_HISTOGRAM

    def register_gauge_fn(
        self, name: str, fn: Callable[[], float], **labels: str
    ) -> None:
        pass

    def unregister_gauge_fn(self, name: str, **labels: str) -> None:
        pass

    def register_counters(self, fn: Callable[[], dict[str, float]]) -> None:
        pass

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot()


NULL_REGISTRY = NullRegistry()


def metric_key(name: str, labels: dict[str, str]) -> str:
    """Flattened instrument key: ``name{k=v,...}`` with sorted label keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key`."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = {}
    for pair in rest[:-1].split(","):
        if pair:
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


def flatten_metric_name(name: str) -> str:
    """Dotted internal name -> Prometheus-legal flat name."""
    return name.replace(".", "_").replace("-", "_")


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format (0.0.4)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def escape_help_text(text: str) -> str:
    """Escape ``# HELP`` free text (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


#: Exposition HELP strings for the stable metric inventory (see
#: docs/OBSERVABILITY.md); unknown names get a generated fallback.
_METRIC_HELP: dict[str, str] = {
    "rpc_requests": "Requests dispatched per RPC method",
    "rpc_errors": "Requests that raised, including unknown methods",
    "rpc_latency": "RPC handler latency in seconds (ACL+SQL+WAL inclusive)",
    "rpc_inflight": "Requests currently executing in handlers",
    "net_bytes_in": "Wire bytes received, including frame headers",
    "net_bytes_out": "Wire bytes sent, including frame headers",
    "net_connections_total": "Connections accepted",
    "net_connections_active": "Currently open TCP connections",
    "wal_flush_latency": "WAL device sync latency in seconds",
    "wal_records_appended": "Records written to the write-ahead log",
    "wal_queue_depth": "Records buffered since the last WAL sync",
    "lrc_mappings_created": "Mappings created via the catalog API",
    "lrc_mappings_added": "Replica mappings added via the catalog API",
    "lrc_mappings_deleted": "Mappings deleted via the catalog API",
    "lrc_mappings_bulk_loaded": "Mappings ingested via bulk_load",
    "lrc_lfns": "Live logical-name count",
    "lrc_mappings": "Live mapping count",
    "rli_updates_applied": "Soft-state updates absorbed by the index",
    "rli_update_apply_latency": "Seconds to apply one soft-state update",
    "rli_entries_expired": "Index mappings dropped by timeout sweeps",
    "rli_mappings": "Index mapping count",
    "rli_bloom_filters": "Bloom filters held by the index",
    "rli_staleness_age": "Seconds since the least-recently-updated LRC",
    "updates_sent": "Soft-state updates pushed to RLIs",
    "updates_duration": "End-to-end soft-state update send time in seconds",
    "updates_bloom_generation": "Bloom filter (re)build time in seconds",
    "updates_names_sent": "LFNs shipped in full/incremental updates",
    "updates_bloom_bytes_sent": "Compressed filter bytes shipped",
    "updates_pending_changes": "Logical names changed since the last RLI flush",
    "db_statements": "SQL statements executed, by statement class",
    "db_statement_latency": "Per-statement execution time in seconds",
    "db_slow_statements": "Statements at or above the slow-query threshold",
    "db_stmt_cache_hits": "Prepared-plan cache hits",
    "db_stmt_cache_misses": "Prepared-plan cache misses (parse + plan)",
    "db_latch_wait": "Seconds spent waiting for a contended table latch",
    "db_wal_lock_wait": "Seconds spent waiting for the WAL append lock",
    "db_table_live_tuples": "Live rows in the table heap",
    "db_table_dead_tuples": "Dead (tombstoned) tuples awaiting VACUUM",
    "db_table_inserts": "Rows inserted since table creation",
    "db_table_deletes": "Rows deleted since table creation",
    "db_table_dead_index_hits": "Index probes that landed on dead tuples",
    "db_table_vacuums": "VACUUM passes completed",
    "db_table_tuples_reclaimed": "Dead tuples reclaimed by VACUUM",
    "obs_profiler_samples": "Thread stacks sampled by the wall-clock profiler",
    "obs_profiler_walk_latency": "Seconds per profiler frame-walk pass",
    "obs_profiler_duty_cycle": "Fraction of wall time the profiler spends walking",
    "obs_slo_ticks": "SLI recorder passes over the metrics registry",
    "obs_slo_tick_latency": "Seconds per SLI recorder pass",
    "obs_selfcheck_observer_errors": "Exceptions a request observer raised (fenced)",
    "obs_selfcheck_task_errors": "Exceptions a periodic background task raised (fenced)",
    "slo_availability": "Availability SLI per operation class (fast window)",
    "slo_latency_sli": "Fraction of requests under the class latency threshold",
    "slo_burn_rate": "Error-budget burn rate per operation class and window",
    "slo_budget_remaining": "Fraction of the error budget left in the window",
    "usage_requests": "Requests accounted per principal and operation class",
    "usage_errors": "Failed requests accounted per principal and class",
    "usage_wall_time": "Handler wall seconds charged per principal and class",
    "usage_rows_examined": "DB rows examined charged per principal and class",
    "usage_wal_bytes": "WAL bytes appended charged per principal and class",
    "usage_bytes_in": "Request bytes received per principal (class net)",
    "usage_bytes_out": "Response bytes sent per principal (class net)",
}


def help_text(flat_name: str) -> str:
    """HELP string for one flattened metric name."""
    known = _METRIC_HELP.get(flat_name)
    if known is not None:
        return escape_help_text(known)
    return f"RLS metric {flat_name}"


class MetricsRegistry:
    """Thread-safe store of named, labelled instruments."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauge_fns: dict[str, Callable[[], float]] = {}
        self._counter_fns: list[Callable[[], dict[str, float]]] = []

    # -- instrument factories (get-or-create) ---------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, Counter())
        return counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = metric_key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge())
        return gauge

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = metric_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(key, Histogram())
        return histogram

    def register_gauge_fn(
        self, name: str, fn: Callable[[], float], **labels: str
    ) -> None:
        """Register a callback sampled at snapshot time (e.g. a row count)."""
        with self._lock:
            self._gauge_fns[metric_key(name, labels)] = fn

    def unregister_gauge_fn(self, name: str, **labels: str) -> None:
        """Drop a callback gauge whose subject is gone (no-op if absent)."""
        with self._lock:
            self._gauge_fns.pop(metric_key(name, labels), None)

    def register_counters(self, fn: Callable[[], dict[str, float]]) -> None:
        """Register a callback returning ``{metric_key: total}`` counter
        series at snapshot time, for an owner that holds the totals."""
        with self._lock:
            self._counter_fns.append(fn)

    # -- output ----------------------------------------------------------

    def snapshot(self) -> "MetricsSnapshot":
        """Consistent-enough point-in-time copy of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            gauge_fns = dict(self._gauge_fns)
            counter_fns = list(self._counter_fns)
        counter_values = {key: c.value for key, c in counters.items()}
        for counters_fn in counter_fns:
            counter_values.update(counters_fn())
        gauge_values = {key: float(g.value) for key, g in gauges.items()}
        for key, fn in gauge_fns.items():
            try:
                gauge_values[key] = float(fn())
            except Exception:
                continue  # a failing callback must not break the snapshot
        return MetricsSnapshot(
            counters=counter_values,
            gauges=gauge_values,
            histograms={key: h.snapshot() for key, h in histograms.items()},
        )

    def render_text(self) -> str:
        return self.snapshot().render_text()


@dataclass
class MetricsSnapshot:
    """Plain-data view of a registry: mergeable, subtractable, wire-safe."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Union of two snapshots: counters/gauges add, histograms merge."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = gauges.get(key, 0.0) + value
        histograms = dict(self.histograms)
        for key, hist in other.histograms.items():
            mine = histograms.get(key)
            histograms[key] = hist if mine is None else mine.merge(hist)
        return MetricsSnapshot(counters, gauges, histograms)

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened since ``earlier``: counters subtract, histograms
        subtract bucket-wise, gauges keep their current values.

        Counter deltas clamp at zero: a counter lower than it was in
        ``earlier`` means the process restarted (counters are monotonic),
        and a negative "events since" would poison every rate computed
        from it downstream."""
        counters = {
            key: max(0, value - earlier.counters.get(key, 0))
            for key, value in self.counters.items()
        }
        histograms = {
            key: (
                hist.delta(earlier.histograms[key])
                if key in earlier.histograms
                else hist
            )
            for key, hist in self.histograms.items()
        }
        return MetricsSnapshot(counters, dict(self.gauges), histograms)

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: h.to_dict() for key, h in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={
                key: HistogramSnapshot.from_dict(h)
                for key, h in data.get("histograms", {}).items()
            },
        )

    def render_text(self) -> str:
        """Prometheus text exposition (format 0.0.4).

        Dots/dashes in names become underscores; every metric gets one
        ``# HELP`` and one ``# TYPE`` line before its first sample; label
        values escape backslash, double-quote and newline as the format
        requires (``\\\\``, ``\\"``, ``\\n``).
        """
        lines: list[str] = []
        seen_headers: set[str] = set()

        def label_block(labels: dict[str, str]) -> str:
            if not labels:
                return ""
            inner = ",".join(
                f'{k}="{escape_label_value(str(labels[k]))}"'
                for k in sorted(labels)
            )
            return f"{{{inner}}}"

        def headers(flat: str, mtype: str) -> None:
            if flat in seen_headers:
                return
            seen_headers.add(flat)
            lines.append(f"# HELP {flat} {help_text(flat)}")
            lines.append(f"# TYPE {flat} {mtype}")

        def emit(key: str, value: float, suffix: str = "",
                 extra_labels: dict[str, str] | None = None,
                 mtype: str = "") -> None:
            name, labels = split_metric_key(key)
            flat = flatten_metric_name(name)
            if mtype:
                headers(flat, mtype)
            if extra_labels:
                labels = {**labels, **extra_labels}
            if isinstance(value, float) and not value.is_integer():
                rendered = f"{value:.9f}".rstrip("0").rstrip(".")
            else:
                rendered = str(int(value))
            lines.append(f"{flat}{suffix}{label_block(labels)} {rendered}")

        for key in sorted(self.counters):
            emit(key, self.counters[key], mtype="counter")
        for key in sorted(self.gauges):
            emit(key, self.gauges[key], mtype="gauge")
        for key in sorted(self.histograms):
            hist = self.histograms[key]
            name, labels = split_metric_key(key)
            for q in (50.0, 95.0, 99.0):
                emit(
                    key,
                    hist.percentile(q),
                    extra_labels={"quantile": f"{q / 100:g}"},
                    mtype="summary",
                )
            flat = flatten_metric_name(name)
            block = label_block(labels)
            lines.append(f"{flat}_count{block} {hist.count}")
            lines.append(f"{flat}_sum{block} {hist.sum:.9f}")
        return "\n".join(lines) + "\n"


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold many per-server snapshots into one deployment-wide view."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        merged = merged.merge(snapshot)
    return merged

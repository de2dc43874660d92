"""Bounded time-series storage and the snapshot-delta scraper.

PR 1's registry answers "what happened so far"; the paper's evaluation is
about *trajectories* — the VACUUM sawtooth (Fig. 8), soft-state staleness
between updates (§4.2), WAN update contention (Fig. 13).  This module adds
the time axis:

* :class:`TimeSeries` — a bounded ring buffer of ``(t, value)`` points;
* :class:`SeriesStore` — a thread-safe map of series keyed like metrics;
* :class:`Scraper` — periodically pulls :class:`MetricsSnapshot`\\ s from a
  source (an in-process registry or a remote ``admin_metrics`` RPC),
  subtracts consecutive snapshots, and records per-interval **rates** for
  counters, **values** for gauges, and **interval p95s** for histograms.

Series keys derive from metric keys: a counter ``rpc.requests{method=m}``
produces ``rpc.requests{method=m}:rate`` (per-second over the scrape
interval); a histogram produces ``<key>:p95`` and ``<key>:rate``; gauges
keep their key unchanged.  The scraper also folds every ``rpc.requests``
counter into one ``ops:rate`` series — the node's total operation
throughput, the quantity the paper plots on most of its y-axes.

The clock is injectable (``clock=lambda: sim.now`` drives the scraper in
virtual time from the discrete-event simulator); :meth:`Scraper.start`
spawns a real-time background thread for live deployments.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.obs.metrics import MetricsSnapshot, split_metric_key
from repro.obs.periodic import Periodic

#: Default number of points retained per series (ring buffer size).
DEFAULT_CAPACITY = 720

#: Default scrape period for background scrapers, seconds.
DEFAULT_INTERVAL = 1.0

#: Suffix conventions for series derived from one metric key.
RATE_SUFFIX = ":rate"
P95_SUFFIX = ":p95"

#: Series key for the node-wide operation throughput signal.
OPS_RATE_KEY = "ops:rate"


class TimeSeries:
    """Bounded sequence of ``(t, value)`` samples, oldest evicted first."""

    __slots__ = ("_points", "_lock")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._points.maxlen or 0

    def append(self, t: float, value: float) -> None:
        with self._lock:
            self._points.append((t, float(value)))

    def points(self) -> list[tuple[float, float]]:
        with self._lock:
            return list(self._points)

    def values(self) -> list[float]:
        with self._lock:
            return [v for _, v in self._points]

    def times(self) -> list[float]:
        with self._lock:
            return [t for t, _ in self._points]

    def latest(self) -> tuple[float, float] | None:
        with self._lock:
            return self._points[-1] if self._points else None

    def window(self, since: float) -> list[tuple[float, float]]:
        """Points with ``t >= since`` (the live tail of the series)."""
        with self._lock:
            return [(t, v) for t, v in self._points if t >= since]

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    def __bool__(self) -> bool:
        return len(self) > 0


class SeriesStore:
    """Thread-safe collection of named :class:`TimeSeries`.

    Keys follow the metric-key grammar (``name{label=value}`` plus a
    derivation suffix such as ``:rate``); :meth:`record` creates series on
    first use, so producers never pre-declare what they emit.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._series: dict[str, TimeSeries] = {}

    def series(self, key: str) -> TimeSeries:
        """Get-or-create the series for ``key``."""
        existing = self._series.get(key)
        if existing is None:
            with self._lock:
                existing = self._series.setdefault(
                    key, TimeSeries(self.capacity)
                )
        return existing

    def record(self, key: str, t: float, value: float) -> None:
        self.series(key).append(t, value)

    def get(self, key: str) -> TimeSeries | None:
        return self._series.get(key)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def latest(self, key: str) -> float | None:
        series = self._series.get(key)
        if series is None:
            return None
        point = series.latest()
        return point[1] if point is not None else None

    def items(self) -> list[tuple[str, TimeSeries]]:
        with self._lock:
            return sorted(self._series.items())

    def to_dict(self) -> dict[str, list[list[float]]]:
        """JSON-safe dump: ``{key: [[t, value], ...]}`` (artifact schema)."""
        return {
            key: [[t, v] for t, v in series.points()]
            for key, series in self.items()
        }


@dataclass(frozen=True)
class ScrapeResult:
    """One scrape: the cumulative snapshot plus the interval delta."""

    t: float
    interval: float
    snapshot: MetricsSnapshot
    delta: MetricsSnapshot

    def counter_rate(self, key: str) -> float:
        """Per-second rate of one counter over this scrape interval."""
        if self.interval <= 0:
            return 0.0
        return self.delta.counters.get(key, 0) / self.interval

    def ops_rate(self) -> float:
        """Total RPC request rate (all methods) over this interval."""
        if self.interval <= 0:
            return 0.0
        total = sum(
            value
            for key, value in self.delta.counters.items()
            if split_metric_key(key)[0] == "rpc.requests"
        )
        return total / self.interval


class Scraper:
    """Turns a snapshot source into time series via snapshot subtraction.

    The first call to :meth:`scrape_once` primes the baseline and records
    nothing (there is no interval yet); every later call records derived
    series into ``store``.  ``source`` is any zero-argument callable
    returning a :class:`MetricsSnapshot` — a bound ``registry.snapshot``
    for in-process use, or a lambda wrapping the ``admin_metrics`` RPC for
    remote nodes.
    """

    def __init__(
        self,
        source: Callable[[], MetricsSnapshot],
        store: SeriesStore | None = None,
        interval: float = DEFAULT_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
        on_scrape: Callable[[ScrapeResult], None] | None = None,
    ) -> None:
        self.source = source
        self.store = store if store is not None else SeriesStore()
        self.interval = interval
        self.clock = clock
        self.on_scrape = on_scrape
        self.scrapes = 0
        self._last: tuple[float, MetricsSnapshot] | None = None
        #: The background loop; a failing source (e.g. a node mid-restart)
        #: is counted on it and the next tick retries.
        self.task = Periodic(
            "obs-scraper", interval, self.scrape_once, role="scraper"
        )

    @property
    def last_snapshot(self) -> MetricsSnapshot | None:
        """The most recently scraped cumulative snapshot, if any."""
        return self._last[1] if self._last is not None else None

    # -- one scrape ------------------------------------------------------

    def scrape_once(self, now: float | None = None) -> ScrapeResult | None:
        """Pull one snapshot; returns ``None`` on the priming scrape.

        ``now`` overrides the clock (simulator integration and tests).
        """
        t = self.clock() if now is None else now
        snapshot = self.source()
        last = self._last
        self._last = (t, snapshot)
        self.scrapes += 1
        if last is None:
            return None
        last_t, last_snapshot = last
        interval = t - last_t
        if interval <= 0:
            return None  # clock did not advance; nothing to rate
        delta = snapshot.delta(last_snapshot)
        result = ScrapeResult(
            t=t, interval=interval, snapshot=snapshot, delta=delta
        )
        self._record(result)
        if self.on_scrape is not None:
            self.on_scrape(result)
        return result

    def _record(self, result: ScrapeResult) -> None:
        store, t, dt = self.store, result.t, result.interval
        ops_total = 0
        for key, value in result.delta.counters.items():
            store.record(f"{key}{RATE_SUFFIX}", t, value / dt)
            if split_metric_key(key)[0] == "rpc.requests":
                ops_total += value
        store.record(OPS_RATE_KEY, t, ops_total / dt)
        for key, value in result.delta.gauges.items():
            store.record(key, t, value)
        for key, hist in result.delta.histograms.items():
            if hist.count:
                store.record(f"{key}{P95_SUFFIX}", t, hist.percentile(95))
                store.record(f"{key}{RATE_SUFFIX}", t, hist.count / dt)

    # -- background operation -------------------------------------------

    def start(self) -> "Scraper":
        """Scrape every ``interval`` seconds on a daemon thread."""
        if not self.task.running:
            self.scrape_once()  # prime immediately so the first tick rates
            self.task.start()
        return self

    def stop(self) -> bool:
        return self.task.stop()

    def __enter__(self) -> "Scraper":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def rate_key(name: str, **labels: str) -> str:
    """Series key for a counter's rate (mirrors :func:`metric_key`)."""
    from repro.obs.metrics import metric_key

    return f"{metric_key(name, labels)}{RATE_SUFFIX}"


def merge_points(
    series_list: Iterable[TimeSeries],
) -> list[tuple[float, float]]:
    """Time-ordered union of points from several series (render helper)."""
    merged: list[tuple[float, float]] = []
    for series in series_list:
        merged.extend(series.points())
    merged.sort(key=lambda point: point[0])
    return merged


def summarize(series: TimeSeries) -> dict[str, Any]:
    """Plain-data summary of one series (used by CLI surfaces)."""
    values = series.values()
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
        "last": values[-1],
    }

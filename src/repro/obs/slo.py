"""Service-level objectives: SLIs, multi-window burn rates, error budgets.

The paper's end-to-end claims (Figs. 4-6, 11-13) are statements about
operation rates and latency under load; this module turns the live metric
stream into the operational version of those statements — "is the cluster
meeting its targets per operation class right now, and how fast is it
spending its error budget?"

Two service-level indicators per **operation class** (``add``, ``query``,
``bulk``, ``wildcard``):

* **availability** — ``1 - errors/requests`` over a window, from the
  ``rpc.requests``/``rpc.errors`` counters;
* **latency** — the fraction of requests completing under the class
  threshold, from the ``rpc.latency`` histogram buckets (the threshold
  rounds up to the next bucket boundary, a conservative under-count of
  slow requests by at most one bucket).

Alerting follows the multi-window multi-burn-rate recipe: *burn rate* is
``(1 - SLI) / (1 - target)`` (1.0 = spending the budget exactly on
schedule), and an alert fires only when **both** a short and a long
window exceed the threshold — the short window for fast reaction, the
long window to suppress blips:

* **fast**: burn >= 14.4 over 5 m *and* 1 h (critical — a 30-day budget
  gone in ~2 days);
* **slow**: burn >= 1.0 over 6 h *and* 3 d (warning — on track to just
  exhaust the budget).

The targets, thresholds and windows are module constants
(:data:`AVAILABILITY_TARGET`, :data:`LATENCY_TARGET`,
:data:`DEFAULT_LATENCY_THRESHOLDS`, :data:`WINDOWS`,
:data:`BUDGET_WINDOW`): one fixed policy for every deployment.

The :class:`SLITracker` is the windowed arithmetic over explicit
``(t, requests, errors, slow)`` records.  Its one feed, the
:class:`SLIRecorder`, subtracts snapshots of a
:class:`~repro.obs.metrics.MetricsRegistry`, one
:meth:`SLIRecorder.tick` per ``admin_slo`` call, and exports ``slo.*``
gauges back into the registry, so ``admin_metrics`` and ``GET /metrics``
serve burn rates like any other gauge.  A tick files all traffic since
the previous one at its own time, so a window is only as fine as the
polling of ``admin_slo``, and the gauges are as of the last call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    bucket_index,
    split_metric_key,
)

__all__ = [
    "BurnWindow",
    "DEFAULT_LATENCY_THRESHOLDS",
    "FAST_BURN_THRESHOLD",
    "OPERATION_CLASSES",
    "SLIRecorder",
    "SLITracker",
    "SLOW_BURN_THRESHOLD",
]


# -- operation classes ------------------------------------------------------

#: The SLO-bearing operation classes, in display order.
OPERATION_CLASSES: tuple[str, ...] = ("add", "query", "bulk", "wildcard")


# -- policy -----------------------------------------------------------------


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window alert rule: fire when burn exceeds ``threshold``
    over **both** the ``short`` and ``long`` window."""

    name: str
    short: float
    long: float
    threshold: float
    severity: str


#: Fast burn: a 30-day budget consumed in ~2 days.
FAST_BURN_THRESHOLD = 14.4
#: Slow burn: budget being spent exactly on schedule.
SLOW_BURN_THRESHOLD = 1.0

FAST_WINDOW = BurnWindow(
    name="fast",
    short=300.0,
    long=3600.0,
    threshold=FAST_BURN_THRESHOLD,
    severity="critical",
)
SLOW_WINDOW = BurnWindow(
    name="slow",
    short=6 * 3600.0,
    long=3 * 86400.0,
    threshold=SLOW_BURN_THRESHOLD,
    severity="warning",
)

#: Per-class latency thresholds (seconds): bulk and wildcard operations
#: legitimately take longer than point reads/writes.
DEFAULT_LATENCY_THRESHOLDS: dict[str, float] = {
    "add": 0.050,
    "query": 0.050,
    "bulk": 1.0,
    "wildcard": 0.500,
}


#: The availability and latency targets every class is held to.
AVAILABILITY_TARGET = 0.999
LATENCY_TARGET = 0.99
#: The multi-window alert rules.
WINDOWS: tuple[BurnWindow, ...] = (FAST_WINDOW, SLOW_WINDOW)
#: Error-budget accounting horizon (seconds).
BUDGET_WINDOW = 3 * 86400.0
#: Oldest record any window can still see.
_HORIZON = max([w.long for w in WINDOWS] + [BUDGET_WINDOW])


def _policy_dict() -> dict[str, Any]:
    """The targets and windows, as the ``admin_slo`` payload shows them."""
    return {
        "availability_target": AVAILABILITY_TARGET,
        "latency_target": LATENCY_TARGET,
        "latency_thresholds": {
            cls: DEFAULT_LATENCY_THRESHOLDS[cls] for cls in OPERATION_CLASSES
        },
        "windows": [
            {
                "name": w.name,
                "short": w.short,
                "long": w.long,
                "threshold": w.threshold,
                "severity": w.severity,
            }
            for w in WINDOWS
        ],
        "budget_window": BUDGET_WINDOW,
    }


# -- windowed SLI arithmetic ------------------------------------------------


class SLITracker:
    """Windowed SLI/burn-rate arithmetic for one operation class.

    Feed it ``record(t, requests, errors, slow)`` deltas on any clock;
    query SLIs, burn rates, alerts and the error budget at any ``now``.
    Windows with no traffic have an undefined SLI (``None``) and burn
    zero — silence is not an outage.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: deque[tuple[float, int, int, int]] = deque()

    def record(
        self, t: float, requests: int, errors: int, slow: int = 0
    ) -> None:
        """Append one interval's delta, trimming beyond the horizon."""
        with self._lock:
            self._records.append((t, requests, errors, slow))
            while self._records and self._records[0][0] < t - _HORIZON:
                self._records.popleft()

    def _sums(self, window: float, now: float) -> tuple[int, int, int]:
        cutoff = now - window
        requests = errors = slow = 0
        with self._lock:
            for t, r, e, s in reversed(self._records):
                if t <= cutoff:
                    break
                requests += r
                errors += e
                slow += s
        return requests, errors, slow

    def availability(self, window: float, now: float) -> float | None:
        requests, errors, _ = self._sums(window, now)
        if requests == 0:
            return None
        return 1.0 - min(errors, requests) / requests

    def latency_sli(self, window: float, now: float) -> float | None:
        requests, _, slow = self._sums(window, now)
        if requests == 0:
            return None
        return 1.0 - min(slow, requests) / requests

    def burn_rate(self, window: float, now: float, kind: str) -> float:
        """Budget spend rate over a window; 0.0 when the SLI is undefined."""
        if kind == "availability":
            sli = self.availability(window, now)
            target = AVAILABILITY_TARGET
        else:
            sli = self.latency_sli(window, now)
            target = LATENCY_TARGET
        if sli is None:
            return 0.0
        return (1.0 - sli) / (1.0 - target)

    def alerts(self, now: float) -> list[dict[str, Any]]:
        """Multi-window rules that currently fire (short AND long)."""
        out: list[dict[str, Any]] = []
        for window in WINDOWS:
            for kind in ("availability", "latency"):
                short_burn = self.burn_rate(window.short, now, kind)
                long_burn = self.burn_rate(window.long, now, kind)
                if (
                    short_burn >= window.threshold
                    and long_burn >= window.threshold
                ):
                    out.append(
                        {
                            "window": window.name,
                            "kind": kind,
                            "severity": window.severity,
                            "threshold": window.threshold,
                            "burn_short": short_burn,
                            "burn_long": long_burn,
                        }
                    )
        return out

    def budget(self, now: float) -> dict[str, Any]:
        """Error-budget accounting over :data:`BUDGET_WINDOW`."""
        window = BUDGET_WINDOW
        requests, errors, slow = self._sums(window, now)
        allowed_err = (1.0 - AVAILABILITY_TARGET) * requests
        allowed_slow = (1.0 - LATENCY_TARGET) * requests
        return {
            "window": window,
            "requests": requests,
            "errors": errors,
            "slow": slow,
            "availability_budget_remaining": (
                max(0.0, 1.0 - errors / allowed_err) if allowed_err > 0
                else 1.0
            ),
            "latency_budget_remaining": (
                max(0.0, 1.0 - slow / allowed_slow) if allowed_slow > 0
                else 1.0
            ),
        }

    def to_dict(self, now: float) -> dict[str, Any]:
        windows: dict[str, Any] = {}
        for window in WINDOWS:
            for label, span in (("short", window.short), ("long", window.long)):
                key = f"{window.name}_{label}"
                requests, errors, slow = self._sums(span, now)
                windows[key] = {
                    "seconds": span,
                    "requests": requests,
                    "errors": errors,
                    "slow": slow,
                    "availability": self.availability(span, now),
                    "latency_sli": self.latency_sli(span, now),
                    "burn_availability": self.burn_rate(
                        span, now, "availability"
                    ),
                    "burn_latency": self.burn_rate(span, now, "latency"),
                }
        return {
            "windows": windows,
            "alerts": self.alerts(now),
            "budget": self.budget(now),
        }


def slow_observations(
    counts: Iterable[int], threshold: float
) -> int:
    """Observations *slower than* ``threshold`` in a histogram delta.

    Counts every bucket lying entirely above the threshold — a request
    finishing exactly at the threshold is on time.  Exact when the
    threshold sits on a bucket boundary (the log-2 grid starting at
    1 µs: 32.768 ms, 65.536 ms, ...); for mid-bucket thresholds — the
    50 ms default included — a conservative under-count by at most one
    bucket, so the latency SLI errs toward "meeting", never toward
    false alerts.
    """
    counts = tuple(counts)
    # counts[i] holds values in (BUCKET_BOUNDS[i-1], BUCKET_BOUNDS[i]];
    # bucket_index(threshold) is the bucket that contains the threshold
    # itself, which may also hold on-time values — skip it.
    return sum(counts[bucket_index(threshold) + 1:])


# -- registry-driven recorder -----------------------------------------------


class SLIRecorder:
    """Feeds per-class :class:`SLITracker`\\ s from a metrics registry.

    Each :meth:`tick` snapshots the registry, subtracts the previous
    snapshot (the first tick only primes), classifies
    every ``rpc.requests{method=}`` delta into an operation class by
    ``classes`` (method -> class; an unlisted method is in none), counts
    slow observations from the ``rpc.latency{method=}`` bucket deltas
    above the class threshold, and exports the resulting burn rates and
    SLIs as ``slo.*`` gauges tagged ``class=``/``shard=``/``endpoint=``.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        shard: str = "",
        endpoint: str = "",
        clock: Callable[[], float] = time.monotonic,
        classes: Mapping[str, str] | None = None,
    ) -> None:
        self.registry = registry
        self.classes: Mapping[str, str] = classes or {}
        self.shard = shard
        self.endpoint = endpoint
        self.clock = clock
        self.trackers: dict[str, SLITracker] = {
            cls: SLITracker() for cls in OPERATION_CLASSES
        }
        self._lock = threading.Lock()
        self._last: MetricsSnapshot | None = None
        self.ticks = 0
        # Self-metering, like the profiler: the recorder's
        # own cost is visible in admin_metrics.
        self._m_ticks = registry.counter("obs.slo.ticks")
        self._m_tick_latency = registry.histogram("obs.slo.tick_latency")

    def _labels(self, **extra: str) -> dict[str, str]:
        labels = dict(extra)
        if self.shard:
            labels["shard"] = self.shard
        if self.endpoint:
            labels["endpoint"] = self.endpoint
        return labels

    def tick(self, now: float | None = None) -> None:
        """One recording pass.  The server runs one when it starts (the
        priming tick) and one per ``admin_slo`` call; no thread ticks."""
        t0 = time.perf_counter()
        if now is None:
            now = self.clock()
        with self._lock:
            snapshot = self.registry.snapshot()
            last, self._last = self._last, snapshot
            if last is None:
                # Priming tick: no interval to attribute yet, but the
                # snapshot work still happened — meter it.
                self._m_ticks.inc()
                self._m_tick_latency.observe(time.perf_counter() - t0)
                return
            delta = snapshot.delta(last)
            per_class: dict[str, list[int]] = {
                cls: [0, 0, 0] for cls in OPERATION_CLASSES
            }
            for key, value in delta.counters.items():
                name, labels = split_metric_key(key)
                if name not in ("rpc.requests", "rpc.errors"):
                    continue
                cls = self.classes.get(labels.get("method", ""))
                if cls is None:
                    continue
                if name == "rpc.requests":
                    per_class[cls][0] += value
                else:
                    per_class[cls][1] += value
            for key, hist in delta.histograms.items():
                name, labels = split_metric_key(key)
                if name != "rpc.latency":
                    continue
                cls = self.classes.get(labels.get("method", ""))
                if cls is None:
                    continue
                per_class[cls][2] += slow_observations(
                    hist.counts, DEFAULT_LATENCY_THRESHOLDS[cls]
                )
            for cls, (requests, errors, slow) in per_class.items():
                # rpc.requests counts successes only; the SLI denominator
                # is all attempts.
                self.trackers[cls].record(
                    now, requests + errors, errors, slow
                )
            self._export(now)
            self.ticks += 1
        self._m_ticks.inc()
        self._m_tick_latency.observe(time.perf_counter() - t0)

    def _export(self, now: float) -> None:
        for cls, tracker in self.trackers.items():
            labels = self._labels(**{"class": cls})
            avail = tracker.availability(FAST_WINDOW.short, now)
            self.registry.gauge("slo.availability", **labels).set(
                1.0 if avail is None else avail
            )
            lat = tracker.latency_sli(FAST_WINDOW.short, now)
            self.registry.gauge("slo.latency_sli", **labels).set(
                1.0 if lat is None else lat
            )
            budget = tracker.budget(now)
            self.registry.gauge("slo.budget_remaining", **labels).set(
                min(
                    budget["availability_budget_remaining"],
                    budget["latency_budget_remaining"],
                )
            )
            for window in WINDOWS:
                burn = max(
                    tracker.burn_rate(window.short, now, "availability"),
                    tracker.burn_rate(window.short, now, "latency"),
                )
                self.registry.gauge(
                    "slo.burn_rate",
                    **self._labels(**{"class": cls, "window": window.name}),
                ).set(burn)

    def alerts(self, now: float | None = None) -> list[dict[str, Any]]:
        if now is None:
            now = self.clock()
        out: list[dict[str, Any]] = []
        for cls, tracker in self.trackers.items():
            for alert in tracker.alerts(now):
                alert["class"] = cls
                if self.shard:
                    alert["shard"] = self.shard
                if self.endpoint:
                    alert["endpoint"] = self.endpoint
                out.append(alert)
        return out

    def to_dict(self, now: float | None = None) -> dict[str, Any]:
        """The ``admin_slo`` payload."""
        if now is None:
            now = self.clock()
        return {
            "enabled": True,
            "shard": self.shard,
            "endpoint": self.endpoint,
            "ticks": self.ticks,
            "policy": _policy_dict(),
            "classes": {
                cls: tracker.to_dict(now)
                for cls, tracker in self.trackers.items()
            },
            "alerts": self.alerts(now),
        }

"""Cluster-wide metrics collection (the scraper/aggregator architecture).

Grid monitoring studies (Zhang et al., cs/0304015) converge on one shape
for many-node monitoring: a periodic collector pulls per-node snapshots
and aggregates them centrally.  :class:`ClusterCollector` is that layer
for an RLS deployment: every scrape round it pulls one
:class:`~repro.obs.metrics.MetricsSnapshot` from each LRC/RLI node —
in-process registries and remote ``admin_metrics`` RPCs mix freely —
computes per-node interval rates via snapshot subtraction, and derives
cluster signals:

==============================  =============================================
cluster series key              meaning
==============================  =============================================
``cluster.ops_rate``            sum of node operation rates, this round
``cluster.wal_queue_depth``     sum of per-node WAL queue depths
``cluster.rli_staleness_age``   worst (max) RLI staleness across nodes
``cluster.nodes_up``            nodes that answered this scrape round
``node.ops_rate{node=N}``       per-node operation rate (cluster store copy)
``node.up{node=N}``             1.0 answered / 0.0 failed, per round
==============================  =============================================

**Aggregate consistency.**  ``cluster.ops_rate`` is computed as the exact
sum of the ``node.ops_rate{node=...}`` values recorded in the same round
(not re-derived from merged snapshots), so per-node and cluster rates
always add up within one scrape interval — the invariant ``rls top``
renders and the acceptance tests assert.

Per-node raw series (every counter rate, gauge, histogram p95) live in
each node's own :class:`~repro.obs.timeseries.SeriesStore`, reachable via
:meth:`ClusterCollector.node_store`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, split_metric_key
from repro.obs.periodic import Periodic
from repro.obs.timeseries import (
    DEFAULT_CAPACITY,
    DEFAULT_INTERVAL,
    OPS_RATE_KEY,
    Scraper,
    SeriesStore,
)

#: Gauge keys folded into cluster aggregates: (metric key, aggregation).
_SUM_GAUGES = ("wal.queue_depth",)
_MAX_GAUGES = ("rli.staleness_age",)


@dataclass
class NodeSource:
    """One scrape target: a name plus a snapshot fetcher."""

    name: str
    fetch: Callable[[], MetricsSnapshot]


def registry_source(name: str, registry: MetricsRegistry) -> NodeSource:
    """Scrape an in-process registry (same-process server or test)."""
    return NodeSource(name=name, fetch=registry.snapshot)


def server_source(server: Any) -> NodeSource:
    """Scrape an in-process :class:`~repro.core.server.RLSServer`."""
    return registry_source(server.config.name, server.metrics)


def client_source(name: str, client: Any) -> NodeSource:
    """Scrape a remote node through the ``admin_metrics`` RPC.

    ``client`` is an :class:`~repro.core.client.RLSClient` (or anything
    with a ``metrics()`` returning the snapshot dict); the caller owns the
    connection's lifetime.
    """
    return NodeSource(
        name=name,
        fetch=lambda: MetricsSnapshot.from_dict(client.metrics()),
    )


@dataclass
class NodeSample:
    """One node's contribution to a scrape round."""

    name: str
    up: bool
    ops_rate: float = 0.0
    wal_queue_depth: float = 0.0
    rli_staleness_age: float = 0.0
    error: str | None = None


@dataclass
class ClusterSample:
    """One collector round: per-node samples plus derived aggregates."""

    t: float
    interval: float
    nodes: dict[str, NodeSample] = field(default_factory=dict)

    @property
    def cluster_ops_rate(self) -> float:
        """Exact sum of per-node rates in this round (the invariant)."""
        return sum(n.ops_rate for n in self.nodes.values() if n.up)

    @property
    def nodes_up(self) -> int:
        return sum(1 for n in self.nodes.values() if n.up)


class ClusterCollector:
    """Scrapes every node of a deployment and derives cluster signals."""

    def __init__(
        self,
        nodes: Sequence[NodeSource],
        interval: float = DEFAULT_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if not nodes:
            raise ValueError("collector needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")
        self.interval = interval
        self.clock = clock
        #: Cluster-level derived series.
        self.store = SeriesStore(capacity)
        self._node_stores: dict[str, SeriesStore] = {
            node.name: SeriesStore(capacity) for node in nodes
        }
        self._scrapers: dict[str, Scraper] = {
            node.name: Scraper(
                node.fetch,
                store=self._node_stores[node.name],
                interval=interval,
                clock=clock,
            )
            for node in nodes
        }
        self.rounds = 0
        self.last_sample: ClusterSample | None = None
        self.task = Periodic(
            "obs-collector", interval, self.scrape_once, role="collector"
        )

    # -- structure -------------------------------------------------------

    @property
    def node_names(self) -> list[str]:
        return list(self._node_stores)

    def node_store(self, name: str) -> SeriesStore:
        return self._node_stores[name]

    # -- scraping --------------------------------------------------------

    def scrape_once(self, now: float | None = None) -> ClusterSample:
        """Run one scrape round over every node.

        A node whose fetch raises is marked down for the round
        (``node.up{node=N}`` = 0) and contributes nothing to the
        aggregates; the collector keeps going — partial visibility beats
        none when a node is mid-restart.
        """
        t = self.clock() if now is None else now
        sample = ClusterSample(t=t, interval=self.interval)
        for name, scraper in self._scrapers.items():
            try:
                result = scraper.scrape_once(now=t)
            except Exception as exc:
                sample.nodes[name] = NodeSample(
                    name=name, up=False, error=f"{type(exc).__name__}: {exc}"
                )
                continue
            if result is None:
                # Priming scrape (or stalled clock): node is up, no rates.
                snapshot = scraper.last_snapshot
                sample.nodes[name] = NodeSample(
                    name=name,
                    up=True,
                    wal_queue_depth=_gauge_sum(snapshot, _SUM_GAUGES[0]),
                    rli_staleness_age=_gauge_max(snapshot, _MAX_GAUGES[0]),
                )
                continue
            sample.nodes[name] = NodeSample(
                name=name,
                up=True,
                ops_rate=result.ops_rate(),
                wal_queue_depth=_gauge_sum(result.snapshot, _SUM_GAUGES[0]),
                rli_staleness_age=_gauge_max(result.snapshot, _MAX_GAUGES[0]),
            )
        self._record(sample)
        self.rounds += 1
        self.last_sample = sample
        return sample

    def _record(self, sample: ClusterSample) -> None:
        t = sample.t
        rated = self.rounds > 0  # first round only primes the scrapers
        for name, node in sample.nodes.items():
            self.store.record(f"node.up{{node={name}}}", t, 1.0 if node.up else 0.0)
            if node.up and rated:
                self.store.record(
                    f"node.ops_rate{{node={name}}}", t, node.ops_rate
                )
        if rated:
            self.store.record("cluster.ops_rate", t, sample.cluster_ops_rate)
        up = [n for n in sample.nodes.values() if n.up]
        self.store.record(
            "cluster.wal_queue_depth", t, sum(n.wal_queue_depth for n in up)
        )
        self.store.record(
            "cluster.rli_staleness_age",
            t,
            max((n.rli_staleness_age for n in up), default=0.0),
        )
        self.store.record("cluster.nodes_up", t, float(len(up)))

    # -- background operation -------------------------------------------

    def start(self) -> "ClusterCollector":
        if not self.task.running:
            self.scrape_once()  # priming round
            self.task.start()
        return self

    def stop(self) -> bool:
        return self.task.stop()

    def __enter__(self) -> "ClusterCollector":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def _gauge_sum(snapshot: MetricsSnapshot | None, name: str) -> float:
    if snapshot is None:
        return 0.0
    return sum(
        value
        for key, value in snapshot.gauges.items()
        if split_metric_key(key)[0] == name
    )


def _gauge_max(snapshot: MetricsSnapshot | None, name: str) -> float:
    if snapshot is None:
        return 0.0
    return max(
        (
            value
            for key, value in snapshot.gauges.items()
            if split_metric_key(key)[0] == name
        ),
        default=0.0,
    )

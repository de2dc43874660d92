"""Hierarchical RLI propagation (paper §7, "Ongoing and Future Work").

"The latest RLS version includes support for a hierarchy of RLI servers
that update one another."  This module implements that extension: an RLI
forwards its aggregated soft state to higher-level RLIs, preserving
per-LRC attribution so a top-level query still answers "which LRCs hold
this name".

* Bloom-mode state forwards each stored per-LRC filter upward unchanged
  (a union would lose attribution).
* Relational state forwards, per contributing LRC, the list of logical
  names currently mapped to it, as an ordinary full update.

Parents expire forwarded entries exactly like LRC-fed ones, so the
forwarder re-pushes periodically (:meth:`HierarchicalUpdater.task`,
interval < parent timeout).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.delivery import DeliveryEngine
from repro.core.rli import ReplicaLocationIndex
from repro.core.updates import UpdatePolicy, UpdateSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.periodic import Periodic


@dataclass
class HierarchyStats:
    forward_passes: int = 0
    bloom_filters_forwarded: int = 0
    names_forwarded: int = 0
    last_duration: float = 0.0
    extra: dict = field(default_factory=dict)


class HierarchicalUpdater:
    """Forwards one RLI's aggregated state to parent RLIs.

    Each parent is a wholesale (always-full) target of the shared delivery
    engine, backing off on the LRC→RLI feed's default curve: a dead one is
    isolated and visible in :meth:`target_health` (``hierarchy.*`` metrics)
    like any RLI, and the parents after it in the list are served regardless.
    """

    def __init__(
        self,
        rli: ReplicaLocationIndex,
        sink_resolver: Callable[[str], UpdateSink],
        parents: Sequence[str],
        clock: Callable[[], float] = time.monotonic,
        rng: Callable[[], float] = random.random,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.rli = rli
        self.sink_resolver = sink_resolver
        self.stats = HierarchyStats()
        self.engine = DeliveryEngine(
            "hierarchy", "hierarchy", UpdatePolicy().retry, clock, rng, metrics
        )
        for parent in parents:
            self.engine.target(parent)

    def target_health(self) -> dict[str, dict]:
        return self.engine.health()

    def forward_once(self) -> None:
        """Push current state to every parent RLI not inside a backoff
        window; the first failure is re-raised once all were attempted."""
        for failure in self._forward():
            raise failure

    def _forward(self) -> list[Exception]:
        start = time.perf_counter()
        relational = self._relational_state()
        bloom_state = self._bloom_state()
        outcomes = [
            self.engine.push(
                state.name,
                lambda parent=state.name: self._send(
                    parent, relational, bloom_state
                ),
            )
            for state in self.engine.ready()
        ]
        self.stats.forward_passes += 1
        self.stats.last_duration = time.perf_counter() - start
        return [failure for failure in outcomes if failure is not None]

    def task(self, interval: float = 60.0) -> Periodic:
        """The background forwarder.  An unreachable parent is the engine's
        to count; only a pass that cannot read this RLI fails the task."""
        return Periodic(
            f"rli-hierarchy-{self.rli.name}",
            interval,
            self._forward,
            role="hierarchy",
            metrics=self.engine.metrics,
        )

    def _send(self, parent: str, relational: dict, bloom_state: dict) -> None:
        sink = self.sink_resolver(parent)
        for lrc_name, lfns in relational.items():
            sink.full_update(lrc_name, lfns)
            self.stats.names_forwarded += len(lfns)
        for lrc_name, (bitmap, nbits, k, entries) in bloom_state.items():
            sink.bloom_update(lrc_name, bitmap, nbits, k, entries)
            self.stats.bloom_filters_forwarded += 1

    def _relational_state(self) -> dict[str, list[str]]:
        """Per-LRC logical-name lists from the relational store."""
        rows = self.rli.conn.execute(
            "SELECT c.name, l.name FROM t_map m "
            "JOIN t_lrc c ON m.pfn_id = c.id "
            "JOIN t_lfn l ON m.lfn_id = l.id"
        ).rows
        state: dict[str, list[str]] = {}
        for lrc_name, lfn in rows:
            state.setdefault(lrc_name, []).append(lfn)
        return state

    def _bloom_state(self) -> dict[str, tuple[bytes, int, int, int]]:
        """Per-LRC packed filters from the Bloom store."""
        return {
            name: (
                bloom.to_bytes(),
                bloom.params.num_bits,
                bloom.params.num_hashes,
                bloom.approx_entries,
            )
            for name, bloom in self.rli._bloom.filters.items()
        }

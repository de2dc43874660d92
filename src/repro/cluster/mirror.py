"""Shard-aware replication: master → read-only mirror LRC streaming.

Each shard master streams its (lfn, pfn) replica mappings to read-only
mirror LRCs under the soft-state delivery rule of
:mod:`repro.core.delivery` — the one the LRC→RLI feed runs under: per-
mirror health and backlog, merge-before-send (a failed push never loses
changes that raced in behind it), a full sync owed after a failed one,
:class:`~repro.net.retry.RetryPolicy` backoff.

What differs from LRC→RLI updates is the payload and the freshness
contract: mirrors receive full ``(lfn, pfn)`` pairs (they answer queries
directly, not just "which LRC might know"), and they run much hotter —
mirror staleness is user-visible, so each mirror exports a
``mirror.staleness_age{shard=...}`` gauge using the same machinery as the
RLI's ``rli.staleness_age``, which means the staleness-burn detector in
:mod:`repro.obs.analyze` fires on a stalled mirror feed unchanged.

Master side: :class:`MirrorManager`.  Mirror side: :class:`MirrorIngest`
applies the stream idempotently — redelivery after a lost ack must not
error.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from repro.core.errors import MappingExistsError, MappingNotFoundError
from repro.core.lrc import LocalReplicaCatalog
from repro.core.delivery import DeliveryEngine
from repro.core.updates import UpdatePolicy
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

Pair = tuple[str, str]


class MirrorSink(Protocol):
    """Receiving side of a mirror feed (a mirror LRC, however reached)."""

    def full_sync(self, master: str, pairs: Sequence[Pair]) -> None: ...

    def incremental(
        self, master: str, added: Sequence[Pair], removed: Sequence[Pair]
    ) -> None: ...


class RPCMirrorSink:
    """Sink calling a mirror server through an :class:`~repro.net.rpc.RPCClient`."""

    def __init__(self, client) -> None:  # repro.net.rpc.RPCClient
        self.client = client

    def full_sync(self, master: str, pairs: Sequence[Pair]) -> None:
        self.client.call("mirror_full_sync", master, [list(p) for p in pairs])

    def incremental(
        self, master: str, added: Sequence[Pair], removed: Sequence[Pair]
    ) -> None:
        self.client.call(
            "mirror_incremental",
            master,
            [list(p) for p in added],
            [list(p) for p in removed],
        )


class DirectMirrorSink:
    """Sink writing straight into an in-process :class:`MirrorIngest`."""

    def __init__(self, ingest: "MirrorIngest") -> None:
        self.ingest = ingest

    def full_sync(self, master: str, pairs: Sequence[Pair]) -> None:
        self.ingest.apply_full(master, pairs)

    def incremental(
        self, master: str, added: Sequence[Pair], removed: Sequence[Pair]
    ) -> None:
        self.ingest.apply_incremental(master, added, removed)


def resolve_mirror_sink(name: str) -> MirrorSink:
    """Resolve a mirror name to a sink via static membership, falling back
    to the in-process transport registry (mirrors that never registered a
    membership entry)."""
    from repro.core.errors import UpdateTargetError
    from repro.core.membership import DEFAULT
    from repro.net.rpc import RPCClient
    from repro.net.transport import connect_local

    try:
        return RPCMirrorSink(DEFAULT.connect(name))
    except UpdateTargetError:
        return RPCMirrorSink(RPCClient(connect_local(name)))


@dataclass
class MirrorStats:
    """Counters for observability and the benchmarks."""

    full_syncs: int = 0
    incremental_pushes: int = 0
    pairs_sent: int = 0
    errors: int = 0
    retries: int = 0


class MirrorManager:
    """Master side: tracks mapping changes, streams them to mirror LRCs.

    Runs under the same background scheduler as the RLI feed
    (:func:`~repro.core.updates.tick_task`).
    """

    def __init__(
        self,
        lrc: LocalReplicaCatalog,
        sink_resolver: Callable[[str], MirrorSink] | None = None,
        policy: UpdatePolicy | None = None,
        push_interval: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        rng: Callable[[], float] = random.random,
        flight=None,
    ) -> None:
        self.lrc = lrc
        self.sink_resolver = sink_resolver or resolve_mirror_sink
        self.policy = policy or UpdatePolicy()
        self.push_interval = push_interval
        self.clock = clock
        self.stats = MirrorStats()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = registry
        self.engine = DeliveryEngine(
            "mirror", "mirror", self.policy.retry, clock, rng, registry,
            flight, self.stats,
        )
        self._lock = self.engine.lock
        self._targets = self.engine.targets  # read by the write-path listener
        self._pending_added: set[Pair] = set()
        self._pending_removed: set[Pair] = set()
        self._last_flush = clock()
        self._m_sent = {
            kind: registry.counter("mirror.sent", kind=kind)
            for kind in ("full", "incremental")
        }
        self._m_pairs = registry.counter("mirror.pairs_sent")
        registry.register_gauge_fn(
            "mirror.pending_changes", lambda: float(sum(self.pending_changes()))
        )
        lrc.add_mapping_listener(self._on_mapping_change)

    # ------------------------------------------------------------------
    # Mirror registry
    # ------------------------------------------------------------------

    def add_mirror(self, name: str) -> None:
        """Register a mirror; its first delivery is a full sync."""
        with self._lock:
            self.engine.target(name).needs_full = True

    def remove_mirror(self, name: str) -> None:
        self.engine.forget(name)

    def mirrors(self) -> list[str]:
        with self._lock:
            return sorted(self._targets)

    def target_health(self) -> dict[str, dict]:
        return self.engine.health()

    # ------------------------------------------------------------------
    # Change tracking
    # ------------------------------------------------------------------

    def _on_mapping_change(self, lfn: str, pfn: str, added: bool) -> None:
        pair = (lfn, pfn)
        with self._lock:
            if not self._targets:
                return  # no mirrors registered: keep the write path cheap
            if added:
                self._pending_removed.discard(pair)
                self._pending_added.add(pair)
            else:
                self._pending_added.discard(pair)
                self._pending_removed.add(pair)

    def pending_changes(self) -> tuple[int, int]:
        with self._lock:
            return len(self._pending_added), len(self._pending_removed)

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------

    def all_pairs(self) -> list[Pair]:
        """Every (lfn, pfn) mapping — the payload of a full sync."""
        return self.lrc.query_wildcard("*")

    def _send_full(self, name: str, pairs: Sequence[Pair]) -> None:
        self.sink_resolver(name).full_sync(self.lrc.name, pairs)
        with self._lock:
            self.stats.full_syncs += 1
            self.stats.pairs_sent += len(pairs)
        self._m_sent["full"].inc()
        self._m_pairs.inc(len(pairs))

    def _send_delta(
        self, name: str, added: Sequence[Pair], removed: Sequence[Pair]
    ) -> None:
        self.sink_resolver(name).incremental(self.lrc.name, added, removed)
        with self._lock:
            self.stats.incremental_pushes += 1
            self.stats.pairs_sent += len(added) + len(removed)
        self._m_sent["incremental"].inc()
        self._m_pairs.inc(len(added) + len(removed))

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def send_full_sync(self, name: str | None = None) -> int:
        """Full-sync one mirror (or all); returns pairs pushed per mirror.

        Like :meth:`UpdateManager.send_full_update`, a failing mirror does
        not abort the fan-out: it is marked unhealthy + ``needs_full`` and
        ``tick()`` re-pushes it after backoff.
        """
        names = [name] if name is not None else self.mirrors()
        pairs = self.all_pairs()
        pushed = 0
        for target in names:
            failure = self.engine.push_full(
                target, lambda target=target: self._send_full(target, pairs)
            )
            if failure is None:
                pushed = len(pairs)
        return pushed

    def flush(self) -> int:
        """Push the pending delta to every registered mirror now.

        A mirror still owed its full sync only has the delta folded into
        its backlog (the sync subsumes it): it never sees a delta on top
        of a base state it does not have.
        """
        with self._lock:
            added = sorted(self._pending_added)
            removed = sorted(self._pending_removed)
            self._pending_added.clear()
            self._pending_removed.clear()
            self._last_flush = self.clock()
        for name in self.mirrors():
            self.engine.push_delta(
                name,
                lambda a, r, name=name: self._send_delta(name, a, r),
                added,
                removed,
            )
        return len(added) + len(removed)

    def tick(self) -> list[str]:
        """Run the due flush, then redeliveries; returns action markers.

        Redelivery candidates are chosen after the flush (which re-arms
        the backoff of a mirror it failed on): one attempt per mirror per
        tick.
        """
        performed: list[str] = []
        now = self.clock()
        with self._lock:
            pending = len(self._pending_added) + len(self._pending_removed)
            due_flush = pending > 0 and (
                now - self._last_flush >= self.push_interval
                or pending >= self.policy.immediate_count_threshold
            )
        if due_flush:
            self.flush()
            performed.append("incremental")
        for state in self.engine.due():
            name = state.name
            performed.append(
                self.engine.redeliver(
                    state,
                    lambda: self._send_full(name, self.all_pairs()),
                    lambda a, r: self._send_delta(name, a, r),
                )
            )
        return performed


class MirrorIngest:
    """Mirror side: applies a master's replica stream to the local LRC.

    Application is **idempotent** — redelivery after a lost acknowledgement
    replays pairs the mirror already holds, so "exists" errors are
    swallowed rather than surfaced back to the master.

    Freshness bookkeeping mirrors the RLI's ``staleness_age`` machinery:
    a per-master last-update clock exported as the
    ``mirror.staleness_age{shard=...}`` gauge, which the PR 2
    staleness-burn detector consumes unchanged.
    """

    def __init__(
        self,
        lrc: LocalReplicaCatalog,
        master: str,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.lrc = lrc
        self.master = master
        self.clock = clock
        self._lock = threading.Lock()
        self._last_update_at: dict[str, float] = {}
        self.full_syncs = 0
        self.incremental_applied = 0
        self.pairs_applied = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_applied = {
            kind: registry.counter("mirror.applied", kind=kind)
            for kind in ("full", "incremental")
        }
        registry.register_gauge_fn(
            "mirror.staleness_age", self.staleness_age, shard=master
        )

    def staleness_age(self) -> float:
        """Seconds since the stalest master feed delivered (0 before any)."""
        with self._lock:
            if not self._last_update_at:
                return 0.0
            return max(0.0, self.clock() - min(self._last_update_at.values()))

    def staleness_ages(self) -> dict[str, float]:
        now = self.clock()
        with self._lock:
            return {
                master: max(0.0, now - at)
                for master, at in sorted(self._last_update_at.items())
            }

    def _record_apply(self, kind: str, master: str) -> None:
        with self._lock:
            self._last_update_at[master] = self.clock()
        self._m_applied[kind].inc()

    def _apply_add(self, lfn: str, pfn: str) -> bool:
        try:
            self.lrc.create_mapping(lfn, pfn)
            return True
        except MappingExistsError:
            pass  # LFN exists: this pfn may still be new
        try:
            self.lrc.add_mapping(lfn, pfn)
            return True
        except MappingExistsError:
            return False  # replayed pair: already applied

    def _apply_remove(self, lfn: str, pfn: str) -> bool:
        try:
            self.lrc.delete_mapping(lfn, pfn)
            return True
        except MappingNotFoundError:
            return False  # replayed removal: already applied

    def apply_full(self, master: str, pairs: Sequence[Pair]) -> int:
        """Converge the local catalog onto exactly ``pairs``; returns the
        number of mappings changed."""
        want = {tuple(p) for p in pairs}
        have = {tuple(p) for p in self.lrc.query_wildcard("*")}
        changed = 0
        for lfn, pfn in sorted(want - have):
            if self._apply_add(lfn, pfn):
                changed += 1
        for lfn, pfn in sorted(have - want):
            if self._apply_remove(lfn, pfn):
                changed += 1
        self.full_syncs += 1
        self.pairs_applied += changed
        self._record_apply("full", master)
        return changed

    def apply_incremental(
        self, master: str, added: Sequence[Pair], removed: Sequence[Pair]
    ) -> tuple[int, int]:
        """Apply a delta; returns (adds applied, removes applied)."""
        applied_adds = sum(
            1 for lfn, pfn in added if self._apply_add(lfn, pfn)
        )
        applied_removes = sum(
            1 for lfn, pfn in removed if self._apply_remove(lfn, pfn)
        )
        self.incremental_applied += 1
        self.pairs_applied += applied_adds + applied_removes
        self._record_apply("incremental", master)
        return applied_adds, applied_removes

    def to_dict(self) -> dict:
        return {
            "master": self.master,
            "staleness_age": self.staleness_age(),
            "staleness_ages": self.staleness_ages(),
            "full_syncs": self.full_syncs,
            "incremental_applied": self.incremental_applied,
            "pairs_applied": self.pairs_applied,
        }

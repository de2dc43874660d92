"""Shard-aware replication: a read-only mirror LRC replays its master's log.

A shard master's durable write-ahead log (:mod:`repro.db.wal`) is the one
change feed, and a mirror's tables are always the replay of a prefix of
it through :meth:`~repro.db.engine.Database.apply_records`, the replay
crash recovery uses: between ships a mirror never serves a state its
master never had, and every table replicates alike (mappings,
attributes, RLI targets).  A checkpoint's image replaces the tables row
by row, so a row it shares with them stays readable throughout.

Master side: :class:`MirrorManager` ships each mirror what the mirror's
own :class:`~repro.db.wal.LogReader` reads after the LSN it acknowledged
(the whole log, if it is at 0 or the log no longer holds those records)
under the delivery rule of :mod:`repro.core.delivery`, as the LRC→RLI
feed, which reads the log the same way, does.
Mirror side: :class:`MirrorIngest` skips what it has already applied (a
lost acknowledgement redelivers harmlessly), refuses a gap, and answers
with the LSN it has applied through, which the master adopts, so a mirror
restarted empty is re-fed from where it really is.  Each mirror exports a
``mirror.staleness_age{shard=...}`` gauge, shown by ``rls stats`` and
``GET /metrics`` beside the RLI's ``rli.staleness_age``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Protocol

from repro.core import membership
from repro.core.delivery import DeliveryEngine
from repro.core.lrc import LocalReplicaCatalog
from repro.core.updates import UpdatePolicy
from repro.db.wal import decode_records
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY


class MirrorSink(Protocol):
    """Receiving side of a mirror feed (a mirror LRC, however reached)."""

    def ship(self, master: str, after: int, data: bytes) -> int:
        """Apply ``data``, the log records after LSN ``after`` (0: the
        whole log); returns the LSN applied through."""
        ...


class RPCMirrorSink:
    """Sink calling a mirror server through an :class:`~repro.net.rpc.RPCClient`."""

    def __init__(self, client) -> None:  # repro.net.rpc.RPCClient
        self.client = client

    def ship(self, master: str, after: int, data: bytes) -> int:
        return self.client.call("mirror_ship", master, after, data)


def resolve_mirror_sink(name: str) -> MirrorSink:
    """Resolve a mirror name to a sink (see :func:`repro.core.membership.client`)."""
    return RPCMirrorSink(membership.client(name))


@dataclass
class MirrorStats:
    """Counters for observability and the benchmarks."""

    ships: int = 0
    resets: int = 0
    records_shipped: int = 0
    errors: int = 0
    retries: int = 0


class MirrorManager:
    """Master side: ships the durable log to mirror LRCs.

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
        self.wal = lrc.conn.database.wal
        self.sink_resolver = sink_resolver or resolve_mirror_sink
        self.policy = policy or UpdatePolicy()
        self.push_interval = push_interval
        self.clock = clock
        self.stats = MirrorStats()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = registry
        self.engine = DeliveryEngine(
            "mirror", "mirror", self.policy.retry, clock, rng, registry,
            flight, self.stats, reader=self.wal.reader,
        )
        self._lock = self.engine.lock
        #: Held around each ship: one at a time, each read after the last
        #: one's answer, so two (from a tick and a sync) never overlap.
        self._ship_lock = threading.Lock()
        self._last_ship = clock()
        self._m_sent = {
            kind: registry.counter("mirror.sent", kind=kind)
            for kind in ("reset", "log")
        }
        self._m_records = registry.counter("mirror.records_shipped")

    # ------------------------------------------------------------------
    # Mirror registry
    # ------------------------------------------------------------------

    def add_mirror(self, name: str) -> None:
        """Register a mirror, due at once: its first ship is the whole
        log, which replaces its tables (first contact, or a master that
        restarted and so numbers its log afresh)."""
        with self._lock:
            state = self.engine.target(name)
            state.reader.position, state.needs_full = 0, True

    def remove_mirror(self, name: str) -> None:
        self.engine.forget(name)

    def mirrors(self) -> list[str]:
        with self._lock:
            return sorted(self.engine.targets)

    def target_health(self) -> dict[str, dict]:
        """The engine's health per mirror, ``backlog`` being its lag."""
        return self.engine.health()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _ship(self, name: str) -> None:
        """One delivery to ``name``: the durable records after its
        position, or the whole log if it is at 0 or the log no longer
        holds them, and adopt the LSN it answers with.  A mirror that
        refuses a gap (it restarted) is shipped again at once from its
        answer; one removed meanwhile is not shipped.  Raises whatever the
        sink raises."""
        with self._ship_lock:
            if (state := self.engine.targets.get(name)) is None:
                return
            reader = state.reader
            for _attempt in range(2):
                after = reader.position
                read = reader.read() if after else None
                if read is None:
                    after, read = 0, self.wal.read_all()
                data, records, _last = read
                applied = self.sink_resolver(name).ship(self.lrc.name, after, data)
                with self._lock:
                    reader.position = applied
                    self.stats.ships += 1
                    self.stats.resets += not after
                    self.stats.records_shipped += records
                self._m_sent["log" if after else "reset"].inc()
                self._m_records.inc(records)
                if applied >= after:
                    break

    def sync(self, name: str | None = None) -> int:
        """Ship to one mirror (or every one) now, whatever the schedule;
        returns the records shipped.  A failing mirror does not abort the
        fan-out: it is marked unhealthy and :meth:`tick` retries it after
        backoff."""
        before = self.stats.records_shipped
        for target in [name] if name is not None else self.mirrors():
            self.engine.push(target, partial(self._ship, target), "ship")
        return self.stats.records_shipped - before

    def tick(self) -> list[str]:
        """Ship to every due mirror, once each; returns action markers.

        Due: a mirror owed its first ship, a failed one past its backoff,
        one ``immediate_count_threshold`` records behind, and every mirror
        once per ``push_interval`` — empty when it is current, which keeps
        its position and staleness fresh on an idle master.
        """
        now = self.clock()
        threshold = self.policy.immediate_count_threshold
        with self._lock:
            scheduled = now - self._last_ship >= self.push_interval
            if scheduled:
                self._last_ship = now
            due = [
                state
                for state in self.engine.ready()
                if scheduled
                or not state.healthy
                or state.needs_full
                or state.reader.backlog >= threshold
            ]
        return [
            self.engine.redeliver(
                state, partial(self._ship, state.name), full_kind="ship"
            )
            for state in due
        ]


class MirrorIngest:
    """Mirror side: replays its master's log into the local LRC.

    Its freshness is the RLI's ``staleness_age`` machinery: the time since
    the last ship applied, exported as the ``mirror.staleness_age{shard=...}``
    gauge, which the staleness-burn detector consumes unchanged.
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
        self._applied_at: float | None = None
        #: The LSN of the last master record applied here.
        self.applied_lsn = 0
        self.resets = self.ships_applied = self.records_applied = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_applied = {
            kind: registry.counter("mirror.applied", kind=kind)
            for kind in ("reset", "log")
        }
        registry.register_gauge_fn(
            "mirror.staleness_age", self.staleness_age, shard=master
        )

    def staleness_age(self) -> float:
        """Seconds since the last ship was applied (0 before any)."""
        at = self._applied_at
        return 0.0 if at is None else max(0.0, self.clock() - at)

    def apply_log(self, master: str, after: int, data: bytes) -> int:
        """Apply one ship from ``master`` (this mirror's, named on the
        wire): ``data``, the log records after LSN ``after``; returns the
        LSN applied through.

        A ship is applied if and only if ``after`` is at most the applied
        LSN, the records at or below which are skipped; one from further
        on is a gap, refused, and the master re-feeds this mirror from the
        answer.  ``after`` 0 is the whole log, which replaces the tables
        with :meth:`~repro.db.engine.Database.rebuild`, and a checkpoint
        met later replaces them with its image: either way a row the old
        and the new state share stays readable throughout.  A replay that
        fails drops the mirror to LSN 0, since its tables are no longer a
        prefix of the log.
        """
        if type(after) is not int or after < 0:
            # An older master's ``reset`` flag: applied as an LSN, it would
            # rebuild the tables from a suffix.
            raise ValueError(f"mirror_ship: after must be an LSN, not {after!r}")
        db = self.lrc.conn.database
        with self._lock:
            if after > self.applied_lsn:
                return self.applied_lsn
            if not after:
                self.applied_lsn = 0
                self.resets += 1
            records = [r for r in decode_records(data) if r.lsn > self.applied_lsn]
            try:
                (db.apply_records if after else db.rebuild)(records)
            except BaseException:
                self.applied_lsn = 0
                raise
            if records:
                self.applied_lsn = records[-1].lsn
            self.ships_applied += 1
            self.records_applied += len(records)
            self._applied_at = self.clock()
        self._m_applied["log" if after else "reset"].inc()
        return self.applied_lsn

    #: An ingest is its own in-process :class:`MirrorSink`.
    ship = apply_log

    def to_dict(self) -> dict:
        return {
            "master": self.master,
            "staleness_age": self.staleness_age(),
            "applied_lsn": self.applied_lsn,
            "resets": self.resets,
            "ships_applied": self.ships_applied,
            "records_applied": self.records_applied,
        }

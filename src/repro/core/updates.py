"""Soft-state update manager: the LRC side of LRC→RLI propagation.

Implements the four update flavours of §3.2–§3.5:

* **Full uncompressed** — the complete logical-name list is pushed to each
  registered RLI (what Figure 12 measures);
* **Immediate / incremental mode** (§3.3) — recent adds/removes are pushed
  after a short interval (default 30 s) or once enough changes accumulate,
  with infrequent full updates refreshing soft state;
* **Bloom-filter compression** (§3.4) — a counting Bloom filter is kept in
  sync with the catalog, and its packed bitmap snapshot is pushed instead
  of the name list (Table 3, Figure 13);
* **Partitioning** (§3.5) — per-RLI regexes select the namespace subset an
  RLI receives.

The changes are read off the catalog's write-ahead log as a shard master's
mirrors read it: a ``t_lfn`` insert is a name gained, a delete a name lost,
and the later record per name wins.  Nothing is added to the write path,
and an LRC with no RLI target never reads its log.

The manager is transport-agnostic: it resolves RLI names to
:class:`UpdateSink` objects, which may write straight into an in-process
:class:`~repro.core.rli.ReplicaLocationIndex`, call through the RPC layer,
or record traffic for tests.

**Delivery is reliable per target.**  The rule lives in
:mod:`repro.core.delivery` and is shared with the mirror feed and the RLI
hierarchy: each target keeps the log position it acknowledged, so one
whose incremental push failed is sent what follows that position next time
(newer records always win over older ones), one whose reader the log no
longer holds records for (after a ``bulk_load``, say) is owed a full, a
failed full/Bloom push marks the target unhealthy and due for a fresh full
push, and :meth:`UpdateManager.tick` redelivers with the backoff of the
policy's :class:`~repro.net.retry.RetryPolicy`.  Nothing is lost to a transient
failure; the soft-state full refresh remains the backstop, not the only
healer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Protocol, Sequence

from repro.core.bloom import BloomParameters, CountingBloomFilter
from repro.core.delivery import DeliveryEngine, TargetDeliveryState
from repro.core.errors import UpdateTargetError
from repro.core.lrc import LocalReplicaCatalog, RLITarget
from repro.core.partition import PartitionRouter
from repro.core.rli import ReplicaLocationIndex
from repro.db.wal import OP_INSERT, OP_UPDATE, LogReader, decode_records
from repro.net.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.periodic import Periodic


class UpdateSink(Protocol):
    """Receiving side of soft-state updates (an RLI, however reached)."""

    def full_update(self, lrc_name: str, lfns: Sequence[str]) -> None: ...

    def incremental_update(
        self, lrc_name: str, added: Sequence[str], removed: Sequence[str]
    ) -> None: ...

    def bloom_update(
        self,
        lrc_name: str,
        bitmap: bytes,
        num_bits: int,
        num_hashes: int,
        approx_entries: int,
    ) -> None: ...


class DirectSink:
    """Sink writing straight into an in-process RLI (no RPC)."""

    def __init__(self, rli: ReplicaLocationIndex) -> None:
        self.rli = rli

    def full_update(self, lrc_name: str, lfns: Sequence[str]) -> None:
        self.rli.apply_full_update(lrc_name, lfns)

    def incremental_update(
        self, lrc_name: str, added: Sequence[str], removed: Sequence[str]
    ) -> None:
        self.rli.apply_incremental_update(lrc_name, added, removed)

    def bloom_update(
        self,
        lrc_name: str,
        bitmap: bytes,
        num_bits: int,
        num_hashes: int,
        approx_entries: int,
    ) -> None:
        self.rli.apply_bloom_update(
            lrc_name, bitmap, num_bits, num_hashes, approx_entries
        )


class RPCSink:
    """Sink calling an RLI server through an :class:`~repro.net.rpc.RPCClient`.

    Large incremental updates are split into ``chunk_size`` slices sent
    with ``call_async`` + ``drain``: over TCP the slices share about one
    round trip, and an in-process channel delivers each as it is made.
    RLI set updates are idempotent, so a partially delivered burst is
    safe: the update manager's redelivery re-sends the whole batch.  Full
    updates replace the LRC's entry wholesale and are never chunked.
    """

    def __init__(self, client, chunk_size: int = 5000) -> None:
        # client: repro.net.rpc.RPCClient
        self.client = client
        self.chunk_size = max(1, int(chunk_size))

    def full_update(self, lrc_name: str, lfns: Sequence[str]) -> None:
        self.client.call("rli_full_update", lrc_name, list(lfns))

    def incremental_update(
        self, lrc_name: str, added: Sequence[str], removed: Sequence[str]
    ) -> None:
        added = list(added)
        removed = list(removed)
        chunk = self.chunk_size
        client = self.client
        if len(added) + len(removed) <= chunk:
            client.call("rli_incremental_update", lrc_name, added, removed)
            return
        pending = []
        for start in range(0, len(added), chunk):
            pending.append(
                client.call_async(
                    "rli_incremental_update",
                    lrc_name,
                    added[start : start + chunk],
                    [],
                )
            )
        for start in range(0, len(removed), chunk):
            pending.append(
                client.call_async(
                    "rli_incremental_update",
                    lrc_name,
                    [],
                    removed[start : start + chunk],
                )
            )
        client.drain()
        for call in pending:
            call.result()

    def bloom_update(
        self,
        lrc_name: str,
        bitmap: bytes,
        num_bits: int,
        num_hashes: int,
        approx_entries: int,
    ) -> None:
        self.client.call(
            "rli_bloom_update",
            lrc_name,
            bitmap,
            num_bits,
            num_hashes,
            approx_entries,
        )


#: Hash functions per Bloom filter (the paper's 3).
BLOOM_NUM_HASHES = 3
#: Headroom multiplier when sizing a filter from the current catalog, so
#: modest growth does not force an immediate rebuild.
BLOOM_SIZING_HEADROOM = 1.25


@dataclass
class UpdatePolicy:
    """Timing and compression knobs for soft-state updates.

    Defaults follow the paper: immediate-mode flushes after 30 seconds or
    ``immediate_count_threshold`` buffered changes, and Bloom filters use
    ~10 bits per mapping with :data:`BLOOM_NUM_HASHES` hash functions.
    """

    immediate_mode: bool = True
    immediate_interval: float = 30.0
    immediate_count_threshold: int = 100
    full_interval: float = 600.0
    bloom_bits_per_entry: int = 10
    #: Floor for the counting Bloom filter's expected-entry sizing.  The
    #: filter is sized "based on the number of mappings in an LRC" (§3.4)
    #: with this minimum, and is rebuilt larger automatically when the
    #: catalog outgrows it (see UpdateManager._send_bloom).
    bloom_expected_entries: int = 1024
    #: Backoff schedule for per-target redelivery after a failed push.
    #: ``max_attempts`` is deliberately ignored here — soft state never
    #: gives up on a target; only the delay curve (base/multiplier/max/
    #: jitter) shapes how quickly ``tick()`` re-tries it.
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            backoff_base=2.0, backoff_multiplier=2.0, backoff_max=120.0
        )
    )


@dataclass
class UpdateStats:
    """Counters for observability and the benchmarks."""

    full_updates: int = 0
    incremental_updates: int = 0
    bloom_updates: int = 0
    names_sent: int = 0
    bytes_sent_bloom: int = 0
    last_full_duration: float = 0.0
    last_bloom_duration: float = 0.0
    bloom_generation_time: float = 0.0
    #: Failed push attempts (any flavour, any target).
    errors: int = 0
    #: Redelivery attempts made by ``tick()`` for unhealthy/backlogged targets.
    retries: int = 0


class UpdateManager:
    """Reads catalog changes off the write-ahead log and pushes soft-state
    updates to RLIs."""

    def __init__(
        self,
        lrc: LocalReplicaCatalog,
        sink_resolver: Callable[[str], UpdateSink],
        policy: UpdatePolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        rng: Callable[[], float] = random.random,
        flight=None,
    ) -> None:
        self.lrc = lrc
        self.wal = lrc.conn.database.wal
        self.sink_resolver = sink_resolver
        self.policy = policy or UpdatePolicy()
        self.clock = clock
        self.stats = UpdateStats()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = registry
        #: Per-target position, health and redelivery (the shared rule).
        self.engine = DeliveryEngine(
            "updates", "update", self.policy.retry, clock, rng, registry,
            flight, self.stats, error_kinds=("full", "incremental", "bloom"),
            reader=self.wal.reader,
        )
        self._lock = self.engine.lock
        #: The shared fold's reader (from the first read): its position is
        #: the one read through, which the counting filter is current to
        #: (or to ``_bloom_lsn`` if that is later).
        self._reader: LogReader | None = None
        #: Where ``_pending`` starts: the position the targets share once
        #: a flush reached them all.
        self._base = self.wal.last_lsn
        #: The LFN presence changes logged in (``_base``, the fold's], the
        #: later record per name winning.
        self._pending: dict[str, bool] = {}
        self._last_immediate_flush = clock()
        self._last_full_update = clock()
        self._bloom: CountingBloomFilter | None = None
        #: The LSN the counting filter was built at.
        self._bloom_lsn = 0
        self._name_at = (
            lrc.conn.database.table("t_lfn").schema.column_names.index("name")
        )
        self._m_full_duration = registry.histogram(
            "updates.duration", kind="full"
        )
        self._m_bloom_send = registry.histogram(
            "updates.duration", kind="bloom"
        )
        self._m_bloom_generation = registry.histogram(
            "updates.bloom_generation"
        )
        self._m_names_sent = registry.counter("updates.names_sent")
        self._m_bloom_bytes = registry.counter("updates.bloom_bytes_sent")
        self._m_sent = {
            kind: registry.counter("updates.sent", kind=kind)
            for kind in ("full", "incremental", "bloom")
        }
        # As of the last read of the log: a scrape does not read it.
        registry.register_gauge_fn(
            "updates.pending_changes", lambda: len(self._pending)
        )

    # ------------------------------------------------------------------
    # Reading the log
    # ------------------------------------------------------------------

    def _changes(self, data: bytes) -> list:
        """The ``t_lfn`` inserts and deletes in ``data`` as ``(lsn, name,
        present)`` in log order."""
        return [
            (record.lsn, record.payload[self._name_at], record.op == OP_INSERT)
            for record in decode_records(data, "t_lfn")
            if record.op != OP_UPDATE
        ]

    def _read_log(self) -> int:
        """Fold what was logged after the fold's position into the pending
        changes and the counting filter; returns the new position.  If the
        log no longer holds what follows it (a ``bulk_load``, or no read
        for a whole checkpoint gap), it holds it for no target: each is
        owed a full, and the filter is rebuilt when next sent.  With
        nothing pending, every target at or past the shared position is
        current.  Called under the lock, and only for a target."""
        if self._reader is None:
            self._reader = self.wal.reader(self._base)
        reader = self._reader
        if self.wal.last_lsn <= reader.position:
            return reader.position
        while (read := reader.read()) is None:
            checkpoint = self.wal.checkpoint_lsn
            for tgt in self.lrc.rli_targets():
                self.engine.target(tgt.name)
            for state in self.engine.targets.values():
                state.needs_full |= state.reader.position < checkpoint
            self._pending.clear()
            self._bloom = None
            reader.position = self._base = checkpoint
        data, _count, reader.position = read
        changes = self._changes(data)
        self._pending.update((name, present) for _lsn, name, present in changes)
        if (bloom := self._bloom) is not None:
            for lsn, name, present in changes:
                if lsn > self._bloom_lsn:
                    (bloom.add if present else bloom.remove)(name)
        if not self._pending:
            for state in self.engine.targets.values():
                if state.reader.position >= self._base and not state.needs_full:
                    state.reader.position = max(state.reader.position, reader.position)
            self._base = reader.position
        return reader.position

    def pending(self) -> dict[str, bool]:
        """The LFN presence changes not yet flushed (name → present, in
        first-change order), read off the log if an RLI is registered."""
        with self._lock:
            if self.lrc.rli_targets():
                self._read_log()
            return dict(self._pending)

    def target_health(self) -> dict[str, dict]:
        """Delivery health for every registered target (for admin stats)."""
        health = self.engine.health()
        for tgt in self.lrc.rli_targets():
            unseen = TargetDeliveryState(tgt.name, reader=LogReader(self.wal, 0))
            health.setdefault(tgt.name, unseen.to_dict())
        return health

    # ------------------------------------------------------------------
    # Bloom filter maintenance
    # ------------------------------------------------------------------

    def rebuild_bloom(self) -> float:
        """(Re)build the counting filter from the catalog.

        This is the paper's one-time Bloom generation cost (Table 3,
        column 3); returns the wall-clock seconds it took.  The names and
        their LSN are read together under the database's write latch; the
        log after that LSN maintains the filter from then on.
        """
        start = time.perf_counter()
        with self._lock:
            names, lsn = self.wal.snapshot(self.lrc.all_lfns)
            expected = max(
                int(len(names) * BLOOM_SIZING_HEADROOM),
                self.policy.bloom_expected_entries,
            )
            params = BloomParameters.for_entries(
                expected,
                bits_per_entry=self.policy.bloom_bits_per_entry,
                num_hashes=BLOOM_NUM_HASHES,
            )
            fresh = CountingBloomFilter(params)
            fresh.add_batch(names)
            self._bloom, self._bloom_lsn = fresh, lsn
        elapsed = time.perf_counter() - start
        self.stats.bloom_generation_time = elapsed
        self._m_bloom_generation.observe(elapsed)
        return elapsed

    @property
    def bloom(self) -> CountingBloomFilter | None:
        return self._bloom

    def _bloom_overflowed(self, bloom: CountingBloomFilter) -> bool:
        """True when entries exceed the filter's design capacity."""
        capacity = bloom.params.num_bits // self.policy.bloom_bits_per_entry
        return bloom.entries > capacity

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------

    def _send_full(
        self,
        tgt: RLITarget,
        router: PartitionRouter,
        snapshot: tuple[int, list[str]] | None = None,
    ) -> int:
        """One target's full payload: the packed filter for a Bloom target,
        else its (partition-filtered) share of the name list.  Returns the
        log position read before the names (``snapshot``: that position
        and the list, read once for a fan-out): a change logged in between
        is sent again by the next flush (both paths are idempotent)."""
        sink = self.sink_resolver(tgt.name)
        if tgt.bloom:
            return self._send_bloom(sink, tgt, router)
        if snapshot is None:
            with self._lock:
                position = self._read_log()
            snapshot = position, self.lrc.all_lfns()
        position, names = snapshot
        names = router.filter_names(tgt, names)
        sink.full_update(self.lrc.name, names)
        with self._lock:
            self.stats.full_updates += 1
            self.stats.names_sent += len(names)
        self._m_sent["full"].inc()
        self._m_names_sent.inc(len(names))
        return position

    def _send_bloom(
        self, sink: UpdateSink, target: RLITarget, router: PartitionRouter
    ) -> int:
        start = time.perf_counter()
        with self._lock:
            position = self._read_log()  # first: it drops a filter the log outran
            bloom = self._bloom
            if bloom is None or self._bloom_overflowed(bloom):
                # First send, the log outran the filter, or the catalog
                # outgrew the filter's sizing: the paper sizes filters by
                # LRC mapping count, so rebuild larger.
                self.rebuild_bloom()
                bloom = self._bloom
                assert bloom is not None
            snapshot = None if target.patterns else bloom.snapshot()
        if snapshot is None:
            # Partitioned Bloom update: build a one-shot filter over the
            # matching namespace subset.
            from repro.core.bloom import BloomFilter

            names = router.filter_names(target, self.lrc.all_lfns())
            params = BloomParameters.for_entries(
                max(len(names), 1024),
                bits_per_entry=self.policy.bloom_bits_per_entry,
                num_hashes=BLOOM_NUM_HASHES,
            )
            snapshot = BloomFilter.from_names(names, params)
        payload = snapshot.to_bytes()
        sink.bloom_update(
            self.lrc.name,
            payload,
            snapshot.params.num_bits,
            snapshot.params.num_hashes,
            snapshot.approx_entries,
        )
        self.stats.bloom_updates += 1
        self.stats.bytes_sent_bloom += len(payload)
        elapsed = time.perf_counter() - start
        self.stats.last_bloom_duration = elapsed
        self._m_sent["bloom"].inc()
        self._m_bloom_bytes.inc(len(payload))
        self._m_bloom_send.observe(elapsed)
        return position

    def _owed(self, state: TargetDeliveryState) -> tuple[dict[str, bool], int] | None:
        """What a relational target is owed: the changes logged after its
        position, folded, and the LSN they run to — the shared fold at the
        shared position, else its own reader's; None if the log no longer
        holds them."""
        with self._lock:
            tail = self._read_log()
            if state.reader.position == self._base:
                return dict(self._pending), tail
            if (read := state.reader.read()) is None:
                return None
            data, _count, last = read
            return {name: present for _lsn, name, present in self._changes(data)}, last

    def _push_changes(
        self,
        tgt: RLITarget,
        router: PartitionRouter,
        owed: tuple[dict[str, bool], int] | None,
    ) -> None:
        """Push a relational target what it is owed (see :meth:`_owed`):
        its share of the changes, or a full if the log no longer holds
        them.  A healthy target owed nothing of its share just advances."""
        state = self.engine.target(tgt.name)
        if owed is None or state.needs_full:
            self.engine.push(tgt.name, partial(self._send_full, tgt, router))
            return
        changes, upto = owed
        added = router.filter_names(
            tgt, sorted(name for name, present in changes.items() if present)
        )
        removed = router.filter_names(
            tgt, sorted(name for name, present in changes.items() if not present)
        )
        if not added and not removed and state.healthy:
            with self._lock:
                state.reader.position = max(state.reader.position, upto)
            return

        def send() -> int:
            sink = self.sink_resolver(tgt.name)
            sink.incremental_update(self.lrc.name, added, removed)
            with self._lock:
                self.stats.incremental_updates += 1
                self.stats.names_sent += len(added) + len(removed)
            self._m_sent["incremental"].inc()
            self._m_names_sent.inc(len(added) + len(removed))
            return upto

        self.engine.push(
            tgt.name, send, "incremental", delta=True,
            added=len(added), removed=len(removed),
        )

    # ------------------------------------------------------------------
    # Pushing updates
    # ------------------------------------------------------------------

    def send_full_update(self, target: RLITarget | None = None) -> float:
        """Push a full update to one target (or all); returns duration (s).

        Bloom-flagged targets get the packed filter snapshot; others get
        the (possibly partition-filtered) complete LFN list.  A failing
        target does not abort the fan-out: every target is attempted,
        failures mark their target unhealthy (``tick()`` re-pushes them
        later), and the first failure is re-raised once all pushes ran.
        """
        targets = [target] if target is not None else self.lrc.rli_targets()
        if not targets:
            raise UpdateTargetError("no RLI targets registered")
        start = time.perf_counter()
        router = PartitionRouter(targets)
        with self._lock:
            position = self._read_log()
            for tgt in targets:
                self.engine.target(tgt.name)
            if target is None:
                # The full subsumes the pending changes; a target it misses
                # is owed a full.
                self._pending.clear()
                self._base = position
        names = None
        if any(not tgt.bloom for tgt in targets):
            names = self.lrc.all_lfns()

        outcomes = [
            self.engine.push(
                tgt.name,
                partial(self._send_full, tgt, router, (position, names)),
                "bloom" if tgt.bloom else "full",
            )
            for tgt in targets
        ]
        with self._lock:
            self._last_full_update = self.clock()
            self._last_immediate_flush = self.clock()
        elapsed = time.perf_counter() - start
        self.stats.last_full_duration = elapsed
        self._m_full_duration.observe(elapsed)
        for failure in outcomes:
            if failure is not None:
                raise failure
        return elapsed

    def send_incremental_update(self) -> int:
        """Flush the logged adds/removes to all non-Bloom targets (§3.3).

        Each target is sent what was logged after its own position: the
        shared fold at the shared position, which saves each target there a
        decode, else what its own reader reads.  Bloom targets receive a
        fresh filter snapshot instead, since their RLI state is replaced
        wholesale.  Returns the name changes flushed.

        A sink failure does **not** raise and does **not** lose changes:
        the target keeps its position, and ``tick()`` sends it what follows
        once its backoff expires (newer records win over older ones).
        With no target registered the log is not read.
        """
        targets = self.lrc.rli_targets()
        if not targets:
            return 0
        with self._lock:
            self._read_log()
            states = [self.engine.target(tgt.name) for tgt in targets]
            # A target owed a full, or inside its backoff, is left to its
            # redelivery: a dead one's log is read once per backoff.
            now = self.clock()
            owing = [
                (tgt, None if tgt.bloom else self._owed(state))
                for tgt, state in zip(targets, states)
                if not state.needs_full and now >= state.next_retry_at
            ]
            changed = len(self._pending)
            self._pending, self._base = {}, self._reader.position
            self._last_immediate_flush = self.clock()
        router = PartitionRouter(targets)
        for tgt, owed in owing:
            if not tgt.bloom:
                self._push_changes(tgt, router, owed)
            elif changed:
                self.engine.push(
                    tgt.name, partial(self._send_full, tgt, router), "bloom"
                )
        return changed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def due_actions(self) -> list[str]:
        """Which pushes are due now (``"full"`` and/or ``"incremental"``)."""
        now = self.clock()
        due = []
        if now - self._last_full_update >= self.policy.full_interval:
            due.append("full")
        elif self.policy.immediate_mode:
            pending = len(self.pending())
            if pending > 0 and (
                now - self._last_immediate_flush >= self.policy.immediate_interval
                or pending >= self.policy.immediate_count_threshold
            ):
                due.append("incremental")
        return due

    def retry_failed_deliveries(self) -> list[str]:
        """Redeliver to targets whose backoff has expired.

        Returns ``"retry:<target>"`` markers for every attempt made.  A
        target flagged ``needs_full`` (or a Bloom one) gets a fresh
        full/Bloom push; any other what was logged after its position.
        Failures re-arm the target's backoff; nothing raises.
        """
        targets = {tgt.name: tgt for tgt in self.lrc.rli_targets()}
        due = [state for state in self.engine.due() if state.name in targets]
        if not due:
            return []
        router = PartitionRouter(list(targets.values()))
        attempted: list[str] = []
        for state in due:
            tgt = targets[state.name]
            attempted.append(
                self.engine.redeliver(
                    state,
                    partial(self._send_full, tgt, router),
                    None if tgt.bloom else lambda tgt=tgt, state=state: (
                        self._push_changes(tgt, router, self._owed(state))
                    ),
                    "bloom" if tgt.bloom else "full",
                )
            )
        return attempted

    def tick(self) -> list[str]:
        """Run any due pushes plus pending redeliveries; returns actions.

        Redelivery candidates are chosen after the scheduled push, which
        re-arms the backoff of a target it failed on: one attempt per
        target per tick.  A target no longer registered is forgotten
        first: its health and its log reader go with it.
        """
        with self._lock:
            registered = {tgt.name for tgt in self.lrc.rli_targets()}
            for name in self.engine.targets.keys() - registered:
                self.engine.forget(name)
        performed = []
        for action in self.due_actions():
            if action == "full":
                self.send_full_update()
            else:
                self.send_incremental_update()
            performed.append(action)
        performed.extend(self.retry_failed_deliveries())
        return performed


def tick_task(manager, poll_interval: float = 1.0) -> Periodic:
    """The background scheduler of an :class:`UpdateManager` or a
    :class:`~repro.cluster.mirror.MirrorManager`: ``manager.tick()`` every
    ``poll_interval`` seconds.  An exception escaping ``tick()`` is counted
    — on the task, in ``manager.stats.errors`` and as
    ``updates.errors{kind=tick,error=<type>}`` — and the task keeps going.
    """

    def on_error(exc: BaseException) -> None:
        manager.metrics.counter(
            "updates.errors", kind="tick", error=type(exc).__name__
        ).inc()
        with manager.engine.lock:
            manager.stats.errors += 1

    return Periodic(
        f"lrc-updates-{manager.lrc.name}",
        poll_interval,
        lambda: manager.tick(),  # looked up per call: tests swap tick()
        role="updates",
        on_error=on_error,
        metrics=manager.metrics,
    )

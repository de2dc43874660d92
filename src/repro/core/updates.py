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

The manager is transport-agnostic: it resolves RLI names to
:class:`UpdateSink` objects, which may write straight into an in-process
:class:`~repro.core.rli.ReplicaLocationIndex`, call through the RPC layer,
or record traffic for tests.

**Delivery is reliable per target.**  The rule lives in
:mod:`repro.core.delivery` and is shared with the mirror feed and the RLI
hierarchy: an incremental push that fails re-queues its changes for *that*
target (newer changes always win over re-queued ones), a failed full/Bloom
push marks the target unhealthy and due for a fresh full push, and
:meth:`UpdateManager.tick` redelivers with the backoff of the policy's
:class:`~repro.net.retry.RetryPolicy`.  Nothing is lost to a transient
failure; the soft-state full refresh remains the backstop, not the only
healer.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from repro.core.bloom import BloomParameters, CountingBloomFilter
from repro.core.delivery import DeliveryEngine, TargetDeliveryState
from repro.core.errors import UpdateTargetError
from repro.core.lrc import LocalReplicaCatalog, RLITarget
from repro.core.partition import PartitionRouter
from repro.core.rli import ReplicaLocationIndex
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

    Large incremental updates are split into ``chunk_size`` slices and
    pipelined (``call_async`` + ``drain``) when the client's channel
    supports it, so a burst of soft-state changes costs ~one round trip
    instead of one per slice.  RLI set updates are idempotent, so a
    partially delivered burst is safe: the update manager's redelivery
    re-sends the whole batch.  Full updates replace the LRC's entry
    wholesale and are never chunked.
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
        if len(added) + len(removed) <= chunk or not getattr(
            client, "pipelined", False
        ):
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


@dataclass
class UpdatePolicy:
    """Timing and compression knobs for soft-state updates.

    Defaults follow the paper: immediate-mode flushes after 30 seconds or
    ``immediate_count_threshold`` buffered changes, and Bloom filters use
    ~10 bits per mapping with 3 hash functions.
    """

    immediate_mode: bool = True
    immediate_interval: float = 30.0
    immediate_count_threshold: int = 100
    full_interval: float = 600.0
    bloom_bits_per_entry: int = 10
    bloom_num_hashes: int = 3
    #: Floor for the counting Bloom filter's expected-entry sizing.  The
    #: filter is sized "based on the number of mappings in an LRC" (§3.4)
    #: with this minimum, and is rebuilt larger automatically when the
    #: catalog outgrows it (see UpdateManager._send_bloom).
    bloom_expected_entries: int = 1024
    #: Headroom multiplier when sizing from the current catalog, so modest
    #: growth does not force an immediate rebuild.
    bloom_sizing_headroom: float = 1.25
    #: Push to multiple RLI targets concurrently (one thread per target).
    #: Off by default: sequential pushes match the measured v2.0.9 server;
    #: parallel fan-out helps fully-connected meshes (§6, ESG).
    parallel_updates: bool = False
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
    """Tracks catalog changes and pushes soft-state updates to RLIs."""

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
        self.sink_resolver = sink_resolver
        self.policy = policy or UpdatePolicy()
        self.clock = clock
        self.stats = UpdateStats()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = registry
        #: Per-target health, backlog and redelivery (the shared rule).
        self.engine = DeliveryEngine(
            "updates", "update", self.policy.retry, clock, rng, registry,
            flight, self.stats, error_kinds=("full", "incremental", "bloom"),
        )
        self._lock = self.engine.lock
        self._pending_added: set[str] = set()
        self._pending_removed: set[str] = set()
        self._last_immediate_flush = clock()
        self._last_full_update = clock()
        self._bloom: CountingBloomFilter | None = None
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
        registry.register_gauge_fn(
            "updates.pending_changes", lambda: sum(self.pending_changes())
        )
        lrc.add_lfn_listener(self._on_lfn_change)

    # ------------------------------------------------------------------
    # Catalog change tracking
    # ------------------------------------------------------------------

    def _on_lfn_change(self, lfn: str, present: bool) -> None:
        with self._lock:
            if present:
                self._pending_removed.discard(lfn)
                self._pending_added.add(lfn)
                if self._bloom is not None:
                    self._bloom.add(lfn)
            else:
                self._pending_added.discard(lfn)
                self._pending_removed.add(lfn)
                if self._bloom is not None:
                    self._bloom.remove(lfn)

    def pending_changes(self) -> tuple[int, int]:
        with self._lock:
            return len(self._pending_added), len(self._pending_removed)

    def target_health(self) -> dict[str, dict]:
        """Delivery health for every registered target (for admin stats)."""
        health = self.engine.health()
        for tgt in self.lrc.rli_targets():
            health.setdefault(tgt.name, TargetDeliveryState(tgt.name).to_dict())
        return health

    # ------------------------------------------------------------------
    # Bloom filter maintenance
    # ------------------------------------------------------------------

    def rebuild_bloom(self) -> float:
        """(Re)build the counting filter from the catalog.

        This is the paper's one-time Bloom generation cost (Table 3,
        column 3); returns the wall-clock seconds it took.  Subsequent
        catalog changes maintain the filter incrementally.
        """
        start = time.perf_counter()
        names = self.lrc.all_lfns()
        expected = max(
            int(len(names) * self.policy.bloom_sizing_headroom),
            self.policy.bloom_expected_entries,
        )
        params = BloomParameters.for_entries(
            expected,
            bits_per_entry=self.policy.bloom_bits_per_entry,
            num_hashes=self.policy.bloom_num_hashes,
        )
        fresh = CountingBloomFilter(params)
        fresh.add_batch(names)
        with self._lock:
            self._bloom = fresh
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
        all_names: list[str] | None = None,
    ) -> None:
        """One target's full payload: the packed filter for a Bloom target,
        else its (partition-filtered) share of the name list."""
        sink = self.sink_resolver(tgt.name)
        if tgt.bloom:
            self._send_bloom(sink, tgt, router)
            return
        names = all_names if all_names is not None else self.lrc.all_lfns()
        names = router.filter_names(tgt, names)
        sink.full_update(self.lrc.name, names)
        with self._lock:
            self.stats.full_updates += 1
            self.stats.names_sent += len(names)
        self._m_sent["full"].inc()
        self._m_names_sent.inc(len(names))

    def _send_bloom(
        self, sink: UpdateSink, target: RLITarget, router: PartitionRouter
    ) -> None:
        start = time.perf_counter()
        with self._lock:
            bloom = self._bloom
        if bloom is None or self._bloom_overflowed(bloom):
            # First send, or the catalog outgrew the filter's sizing: the
            # paper sizes filters by LRC mapping count, so rebuild larger.
            self.rebuild_bloom()
            bloom = self._bloom
            assert bloom is not None
        if target.patterns:
            # Partitioned Bloom update: build a one-shot filter over the
            # matching namespace subset.
            from repro.core.bloom import BloomFilter

            names = router.filter_names(target, self.lrc.all_lfns())
            params = BloomParameters.for_entries(
                max(len(names), 1024),
                bits_per_entry=self.policy.bloom_bits_per_entry,
                num_hashes=self.policy.bloom_num_hashes,
            )
            snapshot = BloomFilter.from_names(names, params)
        else:
            snapshot = bloom.snapshot()
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

    def _send_delta(
        self, tgt: RLITarget, added: list[str], removed: list[str]
    ) -> None:
        sink = self.sink_resolver(tgt.name)
        sink.incremental_update(self.lrc.name, added, removed)
        with self._lock:
            self.stats.incremental_updates += 1
            self.stats.names_sent += len(added) + len(removed)
        self._m_sent["incremental"].inc()
        self._m_names_sent.inc(len(added) + len(removed))

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
            # The full subsumes the pending delta, so it is cleared before
            # the snapshot below is read: a change landing in between is
            # sent again by the next flush (both paths are idempotent),
            # never lost.  Targets the full misses are flagged needs_full.
            self._pending_added.clear()
            self._pending_removed.clear()
        all_names: list[str] | None = None
        if any(not tgt.bloom for tgt in targets):
            all_names = self.lrc.all_lfns()

        def push_one(tgt: RLITarget) -> Exception | None:
            return self.engine.push_full(
                tgt.name,
                lambda: self._send_full(tgt, router, all_names),
                "bloom" if tgt.bloom else "full",
            )

        if self.policy.parallel_updates and len(targets) > 1:
            outcomes = self._push_parallel(targets, push_one)
        else:
            outcomes = [push_one(tgt) for tgt in targets]
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

    def _push_parallel(self, targets, push_one) -> list[Exception | None]:
        """Fan a push out to every target concurrently (one thread each);
        returns every target's outcome once all threads finished."""
        outcomes: list[Exception | None] = [None] * len(targets)

        def runner(slot: int, tgt: RLITarget) -> None:
            outcomes[slot] = push_one(tgt)

        threads = [
            threading.Thread(
                target=runner, args=(slot, tgt), name=f"update-{tgt.name}"
            )
            for slot, tgt in enumerate(targets)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def send_incremental_update(self) -> int:
        """Flush pending adds/removes to all non-Bloom targets (§3.3).

        Bloom targets receive a fresh filter snapshot instead, since their
        RLI state is replaced wholesale.  Returns new changes flushed.

        A sink failure does **not** raise and does **not** lose changes:
        the undelivered delta stays in that target's backlog (newer
        changes win over re-queued ones) and ``tick()`` redelivers it once
        the target's backoff expires.
        """
        with self._lock:
            added = sorted(self._pending_added)
            removed = sorted(self._pending_removed)
            self._pending_added.clear()
            self._pending_removed.clear()
            self._last_immediate_flush = self.clock()
            have_backlog = self.engine.backlog() > 0
        if not added and not removed and not have_backlog:
            return 0
        targets = self.lrc.rli_targets()
        router = PartitionRouter(targets)
        for tgt in targets:
            if not tgt.bloom:
                self.engine.push_delta(
                    tgt.name,
                    lambda a, r, tgt=tgt: self._send_delta(tgt, a, r),
                    router.filter_names(tgt, added),
                    router.filter_names(tgt, removed),
                )
            elif added or removed:
                # The filter snapshot is wholesale state: nothing to
                # re-queue, a failure leaves the target owed a fresh one.
                self.engine.push_full(
                    tgt.name, lambda tgt=tgt: self._send_full(tgt, router), "bloom"
                )
        return len(added) + len(removed)

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
            pending = len(self._pending_added) + len(self._pending_removed)
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
        full/Bloom push; one with only incremental backlog gets the
        backlog.  Failures re-arm the target's backoff; nothing raises.
        """
        due = self.engine.due()
        if not due:
            return []
        targets = {tgt.name: tgt for tgt in self.lrc.rli_targets()}
        router = PartitionRouter(list(targets.values()))
        attempted: list[str] = []
        for state in due:
            tgt = targets.get(state.name)
            if tgt is None:
                self.engine.forget(state.name)  # the RLI was unregistered
                continue
            attempted.append(
                self.engine.redeliver(
                    state,
                    lambda tgt=tgt: self._send_full(tgt, router),
                    None
                    if tgt.bloom
                    else lambda a, r, tgt=tgt: self._send_delta(tgt, a, r),
                    "bloom" if tgt.bloom else "full",
                )
            )
        return attempted

    def tick(self) -> list[str]:
        """Run any due pushes plus pending redeliveries; returns actions.

        Redelivery candidates are chosen after the scheduled push, which
        re-arms the backoff of a target it failed on: one attempt per
        target per tick.
        """
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
    ``updates.errors{kind=tick,error=<type>}``, which feeds the collector's
    pathology detectors — and the task keeps going.
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

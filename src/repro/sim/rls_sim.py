"""Whole-deployment RLS simulation in virtual time.

The real implementation measures what a wall clock allows; this module
simulates complete LRC/RLI deployments over *hours* of virtual time to
answer questions the paper raises but could not measure:

* **Staleness** (§3.2/§3.3): "there is some delay between when changes are
  made in LRC mappings and when those changes are reflected in RLIs."
  :func:`staleness_experiment` drives a churning catalog under a chosen
  update policy and samples how often an RLI answer is wrong (misses a
  fresh name or still advertises a dead one).
* **Soft-state recovery** (§2): "If an RLI fails and later resumes
  operation, its state can be reconstructed using soft state updates."
  :func:`recovery_experiment` crashes the index and measures how long
  until its coverage returns, as a function of the full-update interval.

What runs is the real soft-state stack on the simulator's clock: a
:class:`~repro.core.lrc.LocalReplicaCatalog` with churn and its
write-ahead log, its :class:`~repro.core.updates.UpdateManager` (the
schedule, the changes read off that log, and the
:class:`~repro.core.delivery.DeliveryEngine` position, backoff and
needs-full rule) ticked through :meth:`Periodic.run_once`, and a
:class:`~repro.core.rli.ReplicaLocationIndex` with its expire pass.  The
one modelled piece is the wire between them, :class:`VirtualLink`.

Everything is deterministic (seeded RNG, virtual clock), so these are
reproducible experiments, not Monte Carlo noise.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.core.config import ServerConfig
from repro.core.lrc import LocalReplicaCatalog
from repro.core.rli import ReplicaLocationIndex
from repro.core.updates import UpdateManager, UpdatePolicy, tick_task
from repro.db.engine import Database
from repro.db.odbc import Connection
from repro.db.wal import InMemoryLogDevice, WriteAheadLog
from repro.obs.periodic import Periodic
from repro.obs.timeseries import SeriesStore
from repro.sim.kernel import Simulator
from repro.sim.models import LANCalibration, WANCalibration, push
from repro.sim.network import lan_path
from repro.sim.resources import Resource
from repro.testing import FailureSchedule, FaultInjected

#: The update modes :func:`staleness_experiment` compares.
MODES = ("full-only", "immediate", "bloom")

#: Daemon cadences and soft-state timeout, as a server ships them.
_CONFIG = ServerConfig()
_LAN, _WAN = LANCalibration(), WANCalibration()
_PFN = "gsiftp://storage/replica"


def _connection(name: str, wal: WriteAheadLog | None = None) -> Connection:
    return Connection(Database(name, wal=wal), name)


def _every(sim: Simulator, task: Periodic) -> None:
    """Run ``task`` on the virtual clock: one ``run_once()`` per interval."""

    def loop():
        while True:
            yield sim.timeout(task.interval)
            task.run_once()

    sim.process(loop())


class SimLRC:
    """A real catalog with churn: names are created and destroyed over time.

    ``names`` lists the live names, so a random pick is O(1), and a delete
    moves the last name into the freed slot; ``deleted`` keeps the newest
    deletions for probes.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        initial_names: int,
        churn_per_sec: float,
        rng: random.Random,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rng = rng
        self.churn_per_sec = churn_per_sec
        self._counter = initial_names
        self.names = [f"{name}/f{i}" for i in range(initial_names)]
        self.deleted: deque[str] = deque(maxlen=50)
        # A log with no modelled disk: the update manager reads it.
        wal = WriteAheadLog(InMemoryLogDevice(sync_latency=0.0), flush_on_commit=False)
        self.catalog = LocalReplicaCatalog(_connection(name, wal), name=name)
        self.catalog.init_schema()
        self.catalog.bulk_load((lfn, _PFN) for lfn in self.names)
        if churn_per_sec > 0:
            sim.process(self._churn())

    def _churn(self):
        names = self.names
        while True:
            # Exponential inter-arrival; alternate adds and deletes so the
            # catalog size stays roughly constant.
            yield self.sim.timeout(
                self.rng.expovariate(self.churn_per_sec)
            )
            if self.rng.random() < 0.5 or not names:
                fresh = f"{self.name}/f{self._counter}"
                self._counter += 1
                names.append(fresh)
                self.catalog.create_mapping(fresh, _PFN)
            else:
                slot = self.rng.randrange(len(names))
                victim, last = names[slot], names.pop()
                if slot < len(names):
                    names[slot] = last
                self.catalog.delete_mapping(victim, _PFN)
                self.deleted.append(victim)


class VirtualLink:
    """The update sink between simulated LRCs and one real RLI.

    A push counts its bytes and is lost (counted in ``lost``) when
    ``faults`` says so, raising :class:`~repro.testing.FaultInjected` as a
    dropped RPC would.  Any other push becomes a process that sends it
    over a LAN path, holds the RLI's serialized ingest for the calibrated
    time (uncompressed: §5.5's 831 s per 1 M names; Bloom: the Fig. 13
    fit) and then applies it to ``rli``, in send order.  The index runs
    its expire pass every ``ServerConfig.expire_interval``.
    """

    def __init__(
        self, sim: Simulator, faults: FailureSchedule | None = None
    ) -> None:
        self.sim = sim
        self.faults = faults
        self.path = lan_path(sim, _LAN.bandwidth_bps, _LAN.rtt)
        self.ingest = Resource(sim, capacity=1)
        self.bytes_sent = 0.0
        self.pushes = 0
        self.lost = 0
        self._last = sim.timeout(0.0)
        self.restart()
        _every(
            sim,
            Periodic(
                "rli-expire",
                _CONFIG.expire_interval,
                lambda: self.rli.expire_once(),
                role="expire",
            ),
        )

    def restart(self) -> None:
        """Restart the RLI: soft state is not persisted, so it comes back
        empty (§2); pushes still in flight land in the new index."""
        self.rli = ReplicaLocationIndex(
            _connection("rli"),
            name="rli",
            timeout=_CONFIG.rli_timeout,
            clock=lambda: self.sim.now,
        )
        self.rli.init_schema()

    def full_update(self, lrc_name, lfns) -> None:
        self._names(len(lfns), "apply_full_update", lrc_name, lfns)

    def incremental_update(self, lrc_name, added, removed) -> None:
        self._names(
            len(added) + len(removed),
            "apply_incremental_update",
            lrc_name,
            added,
            removed,
        )

    def bloom_update(
        self, lrc_name, bitmap, num_bits, num_hashes, approx_entries
    ) -> None:
        mib = len(bitmap) / (1024 * 1024)
        self._send(
            len(bitmap), mib * _WAN.ingest_seconds_per_mib,
            "apply_bloom_update",
            lrc_name, bitmap, num_bits, num_hashes, approx_entries,
        )

    def _names(self, count: int, method: str, *args) -> None:
        self._send(
            count * _LAN.bytes_per_entry,
            count / _LAN.rli_ingest_entries_per_sec,
            method,
            *args,
        )

    def _send(self, size: float, service: float, method: str, *args) -> None:
        self.pushes += 1
        self.bytes_sent += size
        if self.faults is not None and self.faults.next_outcome():
            self.lost += 1
            raise FaultInjected(f"push lost: {method}")
        self._last = self.sim.process(
            self._deliver(self._last, size, service, method, args)
        )

    def _deliver(self, previous, size, service, method, args):
        yield self.sim.process(push(self.path, self.ingest, size, service))
        yield previous  # applied in send order
        getattr(self.rli, method)(*args)


def start_updates(
    sim: Simulator,
    lrc: SimLRC,
    link: VirtualLink,
    policy: UpdatePolicy,
    bloom: bool = False,
    seed: int = 0,
) -> UpdateManager:
    """Register ``link``'s RLI on ``lrc`` and start its real update manager
    on the virtual clock: a first full push now (a lost one is owed and
    redelivered on the backoff), then ``tick_task``'s body every
    ``ServerConfig.update_poll_interval``, as a server's daemon runs it.
    ``seed`` seeds the backoff jitter."""
    lrc.catalog.add_rli(link.rli.name, bloom=bloom)
    manager = UpdateManager(
        lrc.catalog,
        lambda _name: link,
        policy,
        clock=lambda: sim.now,
        rng=random.Random(seed).random,
    )
    try:
        manager.send_full_update()
    except FaultInjected:
        pass
    _every(sim, tick_task(manager, _CONFIG.update_poll_interval))
    return manager


@dataclass
class StalenessResult:
    """Outcome of one staleness experiment."""

    mode: str
    samples: int
    stale_fraction: float       # wrong answers / samples
    miss_fraction: float        # fresh names the RLI did not know yet
    ghost_fraction: float       # deleted names the RLI still advertised
    bytes_sent: float
    updates_sent: int
    #: Pushes lost to injected faults (0 without a failure schedule).
    updates_failed: int = 0
    #: Virtual-time trajectory of the run (probe-interval resolution):
    #: ``rli.staleness_age`` and the running ``probe.stale_fraction`` —
    #: detector-ready input for :func:`repro.obs.analyze.analyze_store`.
    store: SeriesStore = field(repr=False, default_factory=SeriesStore)


def staleness_experiment(
    mode: str,
    catalog_size: int = 10_000,
    churn_per_sec: float = 2.0,
    duration: float = 4 * 3600.0,
    probe_interval: float = 10.0,
    immediate_interval: float = 30.0,
    full_interval: float = 600.0,
    seed: int = 42,
    faults: FailureSchedule | None = None,
) -> StalenessResult:
    """Measure RLI answer quality under churn for one of :data:`MODES`.

    A probe process samples one live name and one recently-deleted name
    every ``probe_interval``; the stale fraction counts RLI answers that
    disagree with the (authoritative) catalog.

    ``faults`` (a :class:`repro.testing.FailureSchedule`) decides which
    pushes the link loses, the first full push included; the update
    manager re-queues, re-sends and backs off exactly as on a server —
    measuring how flaky delivery degrades freshness.
    """
    if mode not in MODES:
        raise ValueError(f"unknown update mode {mode!r}; expected one of {MODES}")
    sim = Simulator()
    lrc = SimLRC(sim, "lrc0", catalog_size, churn_per_sec, random.Random(seed))
    link = VirtualLink(sim, faults)
    policy = UpdatePolicy(
        immediate_mode=mode != "full-only",
        immediate_interval=immediate_interval,
        full_interval=full_interval,
    )
    start_updates(sim, lrc, link, policy, bloom=mode == "bloom", seed=seed + 2)

    counters = {"samples": 0, "miss": 0, "ghost": 0}
    store = SeriesStore()

    def indexed(lfn: str) -> bool:
        return bool(link.rli.bulk_query([lfn]))

    def probe():
        probe_rng = random.Random(seed + 1)
        while True:
            yield sim.timeout(probe_interval)
            if lrc.names:
                counters["samples"] += 1
                counters["miss"] += not indexed(probe_rng.choice(lrc.names))
            if lrc.deleted:
                counters["samples"] += 1
                counters["ghost"] += indexed(probe_rng.choice(lrc.deleted))
            # Trajectory on the *virtual* clock — same series keys the
            # live collector records, so the detectors run unchanged.
            store.record("rli.staleness_age", sim.now, link.rli.staleness_age())
            if counters["samples"]:
                store.record(
                    "probe.stale_fraction",
                    sim.now,
                    (counters["miss"] + counters["ghost"])
                    / counters["samples"],
                )

    sim.process(probe())
    sim.run(until=duration)
    samples = max(counters["samples"], 1)
    return StalenessResult(
        mode=mode,
        samples=counters["samples"],
        stale_fraction=(counters["miss"] + counters["ghost"]) / samples,
        miss_fraction=counters["miss"] / samples,
        ghost_fraction=counters["ghost"] / samples,
        bytes_sent=link.bytes_sent,
        updates_sent=link.pushes,
        updates_failed=link.lost,
        store=store,
    )


@dataclass
class RecoveryResult:
    """Outcome of one crash-recovery experiment."""

    full_interval: float
    crash_time: float
    recovery_time: float  # seconds from restart to >=99% coverage
    coverage_curve: list[tuple[float, float]] = field(repr=False, default_factory=list)


def recovery_experiment(
    full_interval: float = 600.0,
    num_lrcs: int = 4,
    catalog_size: int = 5_000,
    crash_at: float = 1000.0,
    seed: int = 7,
) -> RecoveryResult:
    """Crash the RLI, restart it, and time the soft-state rebuild (§2).

    Each LRC's update daemon starts on its own phase within the interval
    (as independent servers would), so after the restart coverage climbs
    as each LRC's next full update lands.  With k LRCs uniformly phased,
    expected recovery is ~full_interval x (k is irrelevant for the *last*
    LRC: worst case one full interval).
    """
    sim = Simulator()
    rng = random.Random(seed)
    link = VirtualLink(sim)
    policy = UpdatePolicy(immediate_mode=False, full_interval=full_interval)
    lrcs = [
        SimLRC(sim, f"lrc{i}", catalog_size, churn_per_sec=0.0, rng=rng)
        for i in range(num_lrcs)
    ]
    for i, lrc in enumerate(lrcs):
        sim.schedule(
            (i / num_lrcs) * full_interval,
            lambda lrc=lrc, i=i: start_updates(sim, lrc, link, policy, seed=seed + i),
        )

    # Exact: the restarted index holds only re-sent names, and these
    # catalogs do not churn.
    total_names = sum(len(l.names) for l in lrcs)
    curve: list[tuple[float, float]] = []
    state = {"restart_at": None, "recovered_at": None}

    def crash_then_watch():
        yield sim.timeout(crash_at)
        link.restart()  # soft state: no recovery protocol, just wait
        state["restart_at"] = sim.now
        while True:
            yield sim.timeout(5.0)
            coverage = link.rli.mapping_count() / total_names
            curve.append((sim.now - state["restart_at"], coverage))
            if coverage >= 0.99 and state["recovered_at"] is None:
                state["recovered_at"] = sim.now
                return

    sim.process(crash_then_watch())
    sim.run(until=crash_at + 4 * full_interval)
    recovered = state["recovered_at"]
    recovery_time = (
        (recovered - state["restart_at"]) if recovered is not None else float("inf")
    )
    return RecoveryResult(
        full_interval=full_interval,
        crash_time=crash_at,
        recovery_time=recovery_time,
        coverage_curve=curve,
    )

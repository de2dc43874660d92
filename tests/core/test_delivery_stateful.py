"""Model-based (stateful) test of soft-state delivery on the real objects.

One master ``LocalReplicaCatalog`` feeds, in one thread under one fake
clock, every kind of target the delivery engine serves:

* ``rel``    — a relational RLI (full + incremental name lists);
* ``bloom``  — a Bloom RLI (the packed filter, wholesale);
* ``part``   — a partitioned RLI (only names matching ``^a``);
* ``mirror`` — a mirror LRC behind ``MirrorIngest`` (the master's log,
  replayed);
* ``parent`` — a parent RLI fed by ``rel``'s ``HierarchicalUpdater``.

Hypothesis interleaves catalog writes, clock advances with a ``tick()`` of
every feed, scripted ``FailureSchedule``\\ s per target in both fault modes
(push dropped; push applied, then the acknowledgement lost) and targets
restarting empty, the mirror also without the master being told.  The
master checkpoints its log every few records, so ships cross checkpoints.
The invariants are the paper's §3.2 guarantees and the ROADMAP north
star's:

* after faults stop and one ``full_interval`` + ``backoff_max`` of ticks,
  with no expire pass, every target equals its source,
  partition-restricted where that applies: a relational full is
  authoritative for its LRC, so nothing the master dropped is advertised
  (the parent, which hears nothing for an LRC ``rel`` holds no name of,
  still ages such names out);
* at every step the Bloom target has no false negative for a name that was
  live at its last landed push and still is;
* at every step the mirror holds a pair set the master passed through;
* nothing is applied out of order: a delivered delta never adds a name the
  master no longer has nor removes one it has (a re-queued delta never
  overwrites a newer intent), a full push is the current state, and so is
  a mirror that took a ship.

Tier-1 runs hypothesis' default number of examples; CI's fault-injection
job raises it with ``--hypothesis-profile=ci`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import re

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster.mirror import MirrorIngest, MirrorManager
from repro.core.errors import MappingExistsError, MappingNotFoundError
from repro.core.hierarchy import HierarchicalUpdater
from repro.core.lrc import LocalReplicaCatalog
from repro.core.rli import ReplicaLocationIndex
from repro.core.updates import DirectSink, UpdateManager, UpdatePolicy
from repro.db import wal as wal_module
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.testing import (
    FailureSchedule,
    FaultInjected,
    FlakyMirrorSink,
    FlakySink,
)

LFNS = ["a0", "a1", "a2", "b0", "b1", "b2"]
PFNS = ["p0", "p1"]
PARTITION = "^a"
RLI_TARGETS = ("rel", "bloom", "part")
TARGETS = (*RLI_TARGETS, "mirror", "parent")

FULL_INTERVAL = 600.0
RLI_TIMEOUT = 1800.0  # soft-state timeout > full_interval, as deployed
TICK = 30.0
#: Healthy ticks that cover one full_interval plus the longest backoff.
SETTLE_TICKS = int((FULL_INTERVAL + 120.0) / TICK) + 2


@pytest.fixture(autouse=True)
def small_checkpoints(monkeypatch):
    """A checkpoint every few records, so ships cross checkpoints."""
    monkeypatch.setattr(wal_module, "CHECKPOINT_MIN_RECORDS", 8)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _engine() -> MySQLEngine:
    return MySQLEngine(flush_on_commit=False, sync_latency=0.0)


class CheckedRLISink:
    """Writes into the machine's current ``name`` RLI, asserting order."""

    def __init__(self, machine: "DeliveryMachine", name: str) -> None:
        self.machine = machine
        self.name = name

    def full_update(self, lrc_name, lfns) -> None:
        assert sorted(lfns) == sorted(self.machine.source_names(self.name))
        self.machine.rlis[self.name].apply_full_update(lrc_name, lfns)
        self.machine.lost_state.discard(self.name)

    def incremental_update(self, lrc_name, added, removed) -> None:
        live = self.machine.source_names(self.name)
        assert set(added) <= live, f"stale add to {self.name}: {added}"
        assert not set(removed) & live, f"stale remove to {self.name}: {removed}"
        self.machine.rlis[self.name].apply_incremental_update(
            lrc_name, added, removed
        )

    def bloom_update(self, lrc_name, *filter_args) -> None:
        self.machine.rlis[self.name].apply_bloom_update(lrc_name, *filter_args)
        self.machine.live_at_bloom_push = set(self.machine.model)
        self.machine.lost_state.discard(self.name)


class CheckedMirrorSink:
    """Replays into the machine's current mirror, asserting order."""

    def __init__(self, machine: "DeliveryMachine") -> None:
        self.machine = machine

    def ship(self, master, after, data) -> int:
        applied = self.machine.ingest.apply_log(master, after, data)
        # A ship ends at the master's last durable record: a mirror that
        # took it holds the master's current state, one that refused it
        # (a gap after a silent restart) holds what it held.
        last = self.machine.master.conn.database.wal.last_lsn
        assert applied <= last
        if applied == last:
            held = set(self.machine.ingest.lrc.query_wildcard("*"))
            assert held == self.machine.pairs()
        self.machine.mirror_holds_a_state_the_master_passed_through()
        return applied


class DeliveryMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.model: dict[str, set[str]] = {}
        #: Every pair set the master has passed through.
        self.history: set[frozenset] = {frozenset()}
        self.schedules = {name: FailureSchedule() for name in TARGETS}
        self.fail_after = dict.fromkeys(TARGETS, False)
        self.live_at_bloom_push: set[str] = set()
        #: RLIs restarted empty that no full/Bloom push has reached since:
        #: the master cannot know, so only the periodic refresh heals them.
        self.lost_state: set[str] = set()

        self.master = LocalReplicaCatalog(Connection(_engine(), "m"), name="master")
        self.master.init_schema()
        self.master.add_rli("rel")
        self.master.add_rli("bloom", bloom=True)
        self.master.add_rli("part", patterns=[PARTITION])
        self.rlis = {name: self.fresh_rli(name) for name in (*RLI_TARGETS, "parent")}
        self.fresh_mirror()

        policy = UpdatePolicy(
            immediate_interval=TICK,
            immediate_count_threshold=4,
            full_interval=FULL_INTERVAL,
        )
        rng = lambda: 0.5  # noqa: E731 - nominal backoff, no jitter
        self.updates = UpdateManager(
            self.master,
            lambda name: FlakySink(
                CheckedRLISink(self, name), self.schedules[name], self.fail_after[name]
            ),
            policy=policy,
            clock=self.clock,
            rng=rng,
        )
        self.mirrors = MirrorManager(
            self.master,
            sink_resolver=lambda name: FlakyMirrorSink(
                CheckedMirrorSink(self), self.schedules[name], self.fail_after[name]
            ),
            policy=policy,
            push_interval=TICK,
            clock=self.clock,
            rng=rng,
        )
        self.mirrors.add_mirror("mirror")
        self.hierarchy = HierarchicalUpdater(
            self.rlis["rel"],
            lambda name: FlakySink(
                DirectSink(self.rlis[name]), self.schedules[name], self.fail_after[name]
            ),
            parents=["parent"],
            clock=self.clock,
            rng=rng,
        )

    # -- fixtures --------------------------------------------------------

    def fresh_rli(self, name: str) -> ReplicaLocationIndex:
        rli = ReplicaLocationIndex(
            Connection(_engine(), name), name=name, timeout=RLI_TIMEOUT,
            clock=self.clock,
        )
        rli.init_schema()
        return rli

    def fresh_mirror(self) -> None:
        lrc = LocalReplicaCatalog(Connection(_engine(), "mi"), name="mirror")
        lrc.init_schema()
        self.ingest = MirrorIngest(lrc, master="master", clock=self.clock)

    # -- the source of truth ---------------------------------------------

    def pairs(self) -> set[tuple[str, str]]:
        return {(lfn, pfn) for lfn, pfns in self.model.items() for pfn in pfns}

    def source_names(self, target: str) -> set[str]:
        """What ``target`` should hold: the master's names, partitioned."""
        if target == "part":
            return {lfn for lfn in self.model if re.search(PARTITION, lfn)}
        return set(self.model)

    def held_names(self, target: str) -> set[str]:
        rows = self.rlis[target].conn.execute(
            "SELECT l.name FROM t_lfn l JOIN t_map m ON l.id = m.lfn_id"
        ).rows
        return {row[0] for row in rows}

    def forward(self) -> None:
        try:
            self.hierarchy.forward_once()
        except FaultInjected:
            pass  # re-raised after every parent was attempted

    def tick_all(self) -> None:
        try:
            self.updates.tick()
        except FaultInjected:
            pass  # a scheduled full re-raises; the Periodic counts it
        self.mirrors.tick()
        self.forward()

    # -- rules -----------------------------------------------------------

    @rule(lfn=st.sampled_from(LFNS), pfn=st.sampled_from(PFNS))
    def add(self, lfn: str, pfn: str) -> None:
        try:
            if lfn in self.model:
                self.master.add_mapping(lfn, pfn)
            else:
                self.master.create_mapping(lfn, pfn)
        except MappingExistsError:
            assert pfn in self.model[lfn]
            return
        self.model.setdefault(lfn, set()).add(pfn)
        self.history.add(frozenset(self.pairs()))

    @rule(lfn=st.sampled_from(LFNS), pfn=st.sampled_from(PFNS))
    def delete(self, lfn: str, pfn: str) -> None:
        try:
            self.master.delete_mapping(lfn, pfn)
        except MappingNotFoundError:
            assert pfn not in self.model.get(lfn, ())
            return
        self.model[lfn].discard(pfn)
        if not self.model[lfn]:
            del self.model[lfn]
        self.history.add(frozenset(self.pairs()))

    @rule(seconds=st.sampled_from([1.0, 5.0, TICK, 4 * TICK, FULL_INTERVAL]))
    def advance_and_tick(self, seconds: float) -> None:
        self.clock.now += seconds
        self.tick_all()

    @rule(
        name=st.sampled_from(TARGETS),
        script=st.text(alphabet="F.", min_size=1, max_size=6),
        fail_after=st.booleans(),
    )
    def script_faults(self, name: str, script: str, fail_after: bool) -> None:
        self.schedules[name] = FailureSchedule.pattern(script)
        self.fail_after[name] = fail_after

    @rule()
    def restart_mirror_silently(self) -> None:
        """The mirror loses its state and nobody re-registers it: its
        answer (LSN 0) is what makes the master re-feed it."""
        self.fresh_mirror()

    @rule(name=st.sampled_from(TARGETS))
    def restart_empty(self, name: str) -> None:
        """The target loses its (soft) state.  An RLI's comes back with the
        periodic refresh; a mirror is re-registered, which owes it a sync."""
        if name == "mirror":
            self.fresh_mirror()
            self.mirrors.add_mirror("mirror")
            return
        self.rlis[name] = self.fresh_rli(name)
        if name in RLI_TARGETS:
            self.lost_state.add(name)
        if name == "rel":
            self.hierarchy.rli = self.rlis["rel"]
        if name == "bloom":
            self.live_at_bloom_push = set()

    def run_without_faults(self, ticks: int) -> None:
        """Stop every fault and tick ``ticks`` times."""
        for name in TARGETS:
            self.schedules[name] = FailureSchedule()
        for _ in range(ticks):
            self.clock.now += TICK
            self.tick_all()
        for engine in (
            self.updates.engine, self.mirrors.engine, self.hierarchy.engine
        ):
            for name, health in engine.health().items():
                assert health == {
                    "healthy": True, "consecutive_failures": 0, "backlog": 0,
                    "needs_full": False, "last_error": None,
                    "retries": health["retries"],
                }, (name, health)  # rendered now: teardown heals it later
        assert self.updates.pending() == {}
        assert set(self.ingest.lrc.query_wildcard("*")) == self.pairs()

    @rule()
    def faults_stop_and_redelivery_alone_heals(self) -> None:
        """Past the longest backoff — not a full_interval — nothing a target
        was ever sent is missing: the periodic refresh is the backstop, not
        the only healer.  (A name the master dropped while a target was
        owed a full lingers until that full lands; a restarted RLI waits
        for its refresh.)"""
        self.run_without_faults(ticks=int(120.0 / TICK) + 2)
        for name in {"rel", "part"} - self.lost_state:
            assert self.source_names(name) <= self.held_names(name), name
        if "bloom" not in self.lost_state:
            for lfn in self.model:
                assert self.rlis["bloom"].query(lfn) == ["master"], lfn
        assert self.held_names("rel") <= self.held_names("parent")

    @rule()
    def faults_stop_and_everything_converges(self) -> None:
        self.run_without_faults(ticks=SETTLE_TICKS)
        assert not self.lost_state
        for name in ("rel", "part"):
            assert self.held_names(name) == self.source_names(name), name
        held = self.rlis["bloom"]._bloom.filters["master"]
        assert held.to_bytes() == self.updates.bloom.snapshot().to_bytes()
        # The parent hears the child's state on the next forward, per LRC;
        # an LRC the child holds no name of is not forwarded, so what the
        # parent holds of it only ages out.
        forwarded = self.clock.now
        self.clock.now += TICK
        self.forward()
        self.rlis["parent"].expire_once(now=forwarded + RLI_TIMEOUT + 1.0)
        assert self.held_names("parent") == self.source_names("rel")

    # -- invariants ------------------------------------------------------

    @invariant()
    def bloom_target_has_no_false_negative(self) -> None:
        bloom = self.rlis["bloom"]
        for lfn in self.live_at_bloom_push & set(self.model):
            assert bloom.query(lfn) == ["master"], lfn

    @invariant()
    def mirror_holds_a_state_the_master_passed_through(self) -> None:
        held = frozenset(self.ingest.lrc.query_wildcard("*"))
        assert held in self.history, sorted(held)

    @invariant()
    def delivery_state_is_consistent(self) -> None:
        for engine in (self.updates.engine, self.mirrors.engine, self.hierarchy.engine):
            for state in engine.targets.values():
                acked = 0 if state.reader is None else state.reader.position
                assert 0 <= acked <= self.master.conn.database.wal.last_lsn
                assert state.healthy == (state.consecutive_failures == 0)
                assert state.healthy == (state.last_error is None)

    def teardown(self) -> None:
        self.faults_stop_and_everything_converges()


DeliveryMachine.TestCase.settings = settings(
    deadline=None, stateful_step_count=40
)
TestDeliveryStateful = DeliveryMachine.TestCase

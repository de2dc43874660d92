"""Master→mirror log shipping: delivery, retry, idempotence, staleness."""

from __future__ import annotations

import pytest

from repro.cluster.mirror import MirrorIngest, MirrorManager
from repro.core.client import connect
from repro.core.config import ServerRole
from repro.core.errors import NotConfiguredError, ReadOnlyCatalogError
from repro.core.lrc import LocalReplicaCatalog, ObjType
from repro.core.updates import UpdatePolicy
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.postgres_engine import PostgresEngine
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FlakySink:
    """Sink that fails until told to heal; records deliveries."""

    def __init__(self, ingest: MirrorIngest):
        self.ingest = ingest
        self.fail = False
        self.ships = 0
        self.resets = 0

    def ship(self, master, after, data):
        if self.fail:
            raise ConnectionError("mirror down")
        self.ships += 1
        self.resets += not after
        return self.ingest.apply_log(master, after, data)


ENGINES = {
    "mysql": lambda: MySQLEngine(flush_on_commit=False, sync_latency=0.0),
    "postgres": lambda: PostgresEngine(sync_latency=0.0, dead_hit_cost=0.0),
}


def make_lrc(name: str, flavour: str = "mysql") -> LocalReplicaCatalog:
    lrc = LocalReplicaCatalog(Connection(ENGINES[flavour](), name), name=name)
    lrc.init_schema()
    return lrc


def log_after(lrc: LocalReplicaCatalog, lsn: int = 0) -> bytes:
    """What a ship from ``lsn`` carries: ``lrc``'s durable records after
    it, the whole log from 0."""
    wal = lrc.conn.database.wal
    if not lsn:
        return wal.read_all()[0]
    return wal.reader(lsn).read()[0]


def catalog(lrc: LocalReplicaCatalog) -> set:
    return set(lrc.query_wildcard("*"))


@pytest.fixture
def pair():
    """(master manager, mirror ingest, sink, clock) wired directly."""
    master = make_lrc("master")
    mirror = make_lrc("mirror")
    clock = FakeClock()
    ingest = MirrorIngest(mirror, master="master", clock=clock)
    sink = FlakySink(ingest)
    manager = MirrorManager(
        master,
        sink_resolver=lambda name: sink,
        policy=UpdatePolicy(),
        push_interval=5.0,
        clock=clock,
        rng=lambda: 0.0,
    )
    manager.add_mirror("mirror")
    return manager, ingest, sink, clock


class TestDelivery:
    def test_first_delivery_is_full_sync(self, pair):
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("a", "pfn://a")
        manager.tick()  # a mirror owed its reset is due immediately
        assert sink.resets == 1
        assert ingest.lrc.get_mappings("a") == ["pfn://a"]

    def test_incremental_after_interval(self, pair):
        manager, ingest, sink, clock = pair
        manager.sync()
        manager.lrc.create_mapping("b", "pfn://b")
        # t_lfn, t_pfn, t_map
        assert manager.target_health()["mirror"]["backlog"] == 3
        manager.tick()  # interval not yet elapsed
        assert ingest.lrc.exists("b") is False
        clock.now = 6.0
        manager.tick()
        assert ingest.lrc.get_mappings("b") == ["pfn://b"]
        assert manager.target_health()["mirror"]["backlog"] == 0

    def test_count_threshold_flushes_early(self, pair):
        manager, ingest, sink, clock = pair
        manager.sync()
        threshold = manager.policy.immediate_count_threshold
        for i in range(threshold):
            manager.lrc.create_mapping(f"n{i}", f"pfn://n{i}")
        manager.tick()  # due by count, not by time
        assert ingest.lrc.lfn_count() == threshold

    def test_delete_propagates(self, pair):
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("d", "pfn://d")
        manager.sync()
        manager.lrc.delete_mapping("d", "pfn://d")
        manager.sync()
        assert ingest.lrc.exists("d") is False

    def test_no_tracking_without_mirrors(self):
        master = make_lrc("lonely")
        manager = MirrorManager(master, sink_resolver=lambda n: None)
        master.create_mapping("x", "pfn://x")
        assert manager.target_health() == {}
        assert manager.tick() == []

    def test_bulk_load_reaches_mirror(self, pair):
        manager, ingest, sink, clock = pair
        manager.sync()
        manager.lrc.bulk_load((f"bl{i}", f"pfn://bl{i}") for i in range(50))
        manager.sync()
        assert ingest.lrc.lfn_count() == 50

    def test_idle_master_ships_empty_once_per_interval(self, pair):
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("i", "pfn://i")
        manager.tick()
        shipped = manager.stats.records_shipped
        for now in (1.0, 2.0, 3.0, 4.0):
            clock.now = now
            assert manager.tick() == []
        clock.now = 5.0
        assert manager.tick() == ["retry:mirror"]
        assert manager.stats.records_shipped == shipped  # empty
        assert ingest.staleness_age() == 0.0


class TestReplication:
    def test_mirror_serves_attributes(self, pair):
        manager, ingest, sink, clock = pair
        master = manager.lrc
        master.create_mapping("l1", "pfn://l1")
        master.define_attribute("size", "lfn", "int")
        master.add_attribute("l1", "size", "lfn", 42)
        manager.tick()
        assert ingest.lrc.get_attributes("l1", "lfn") == {"size": 42}
        assert master.get_attributes("l1", "lfn") == {"size": 42}
        assert ingest.lrc.query_by_attribute("size", "lfn") == (
            master.query_by_attribute("size", "lfn")
        )

    def test_silently_restarted_mirror_heals(self, pair):
        manager, ingest, sink, clock = pair
        for i in range(11):
            manager.lrc.create_mapping(f"s{i}", f"pfn://s{i}")
        manager.tick()
        assert catalog(ingest.lrc) == catalog(manager.lrc)
        # Restarted empty; nobody calls add_mirror.
        sink.ingest = MirrorIngest(make_lrc("restarted"), "master", clock=clock)
        clock.now += manager.push_interval
        manager.tick()
        clock.now += 1.0
        manager.tick()
        assert catalog(sink.ingest.lrc) == catalog(manager.lrc)
        assert manager.target_health()["mirror"]["backlog"] == 0

    def test_every_ship_crosses_checkpoints_to_the_live_tables(
        self, pair, monkeypatch
    ):
        from repro.db import wal as wal_module

        monkeypatch.setattr(wal_module, "CHECKPOINT_MIN_RECORDS", 8)
        master, mirror = make_lrc("ck-master"), make_lrc("ck-mirror")
        ingest = MirrorIngest(mirror, master="ck-master")
        manager = MirrorManager(master, sink_resolver=lambda name: ingest)
        manager.add_mirror("ck-mirror")
        for i in range(30):
            master.create_mapping(f"c{i}", f"pfn://c{i}")
            if i % 3 == 0:
                master.delete_mapping(f"c{i}", f"pfn://c{i}")
            manager.sync()
            assert catalog(mirror) == catalog(master)
        assert mirror.verify_integrity() == []

    def test_a_mirror_one_record_behind_a_checkpoint_is_shipped_records(
        self, monkeypatch
    ):
        """A checkpoint's LSN carries no record: a mirror that applied the
        record before an automatic checkpoint is shipped the records after
        it, never the image again, and converges."""
        from repro.db import wal as wal_module

        monkeypatch.setattr(wal_module, "CHECKPOINT_MIN_RECORDS", 8)
        master, mirror = make_lrc("ob-master"), make_lrc("ob-mirror")
        ingest = MirrorIngest(mirror, master="ob-master")
        manager = MirrorManager(master, sink_resolver=lambda name: ingest)
        manager.add_mirror("ob-mirror")
        master.create_mapping("first", "pfn://first")
        manager.sync()
        wal = master.conn.database.wal
        log_many, behind = wal.log_many, []

        def shipped(op, table, payloads):
            """Each statement, then a ship: some end with a checkpoint."""
            lsn = log_many(op, table, payloads)
            manager.sync()
            if ingest.applied_lsn == wal.checkpoint_lsn - 1 == wal.last_lsn - 1:
                behind.append(wal.checkpoint_lsn)
            return lsn

        wal.log_many = shipped
        for i in range(20):
            master.create_mapping(f"c{i}", f"pfn://c{i}")
            if i % 3 == 0:
                master.delete_mapping(f"c{i}", f"pfn://c{i}")
        wal.log_many = log_many
        manager.sync()
        assert len(behind) >= 2
        assert catalog(mirror) == catalog(master)
        assert manager.stats.resets == ingest.resets == 1
        assert manager.target_health()["ob-mirror"]["backlog"] == 0
        assert mirror.verify_integrity() == []


def replaced_pair(flavour: str, how: str):
    """A master with 600 bulk-loaded names and a mirror fed all of them,
    then 20 creates and one delete on the master, and what makes the
    next ship replace the mirror's tables: a master checkpoint, a
    re-registration (reset) after one, or a reset of a log that never
    checkpointed.  Returns (master, mirror, manager, long-lived names)."""
    master = make_lrc("rp-master", flavour)
    mirror = make_lrc("rp-mirror", flavour)
    ingest = MirrorIngest(mirror, master="rp-master")
    manager = MirrorManager(master, sink_resolver=lambda name: ingest)
    manager.add_mirror("rp-mirror")
    names = [f"keep{i}" for i in range(600)]
    if how == "reset-without-checkpoint":
        for name in names:
            master.create_mapping(name, f"pfn://{name}")
    else:
        master.bulk_load((name, f"pfn://{name}") for name in names)
    manager.sync()
    for i in range(20):
        master.create_mapping(f"new{i}", f"pfn://new{i}")
    master.delete_mapping("keep0", "pfn://keep0")
    if how != "reset-without-checkpoint":
        master.conn.database.wal.checkpoint()
    if how != "checkpoint":
        manager.add_mirror("rp-mirror")
    return master, mirror, manager, names[1:]


def row_writes(lrc: LocalReplicaCatalog) -> tuple[int, int]:
    stats = lrc.conn.database.stats().values()
    return sum(s["inserts"] for s in stats), sum(s["deletes"] for s in stats)


class TestReplacingTheTables:
    """A ship that crosses a checkpoint, or a reset, brings the mirror to
    an image of the master's tables.  It writes only the rows that differ:
    a name that lives through it never reads as missing, and a flavour
    that keeps deleted rows as dead tuples gains only the ones that went."""

    HOW = ["checkpoint", "reset", "reset-without-checkpoint"]

    @pytest.mark.parametrize("flavour", sorted(ENGINES))
    @pytest.mark.parametrize("how", HOW)
    def test_only_the_rows_that_differ_are_written(self, flavour, how):
        master, mirror, manager, _names = replaced_pair(flavour, how)
        inserts, deletes = row_writes(mirror)
        manager.sync()
        assert catalog(mirror) == catalog(master)
        assert mirror.verify_integrity() == []
        # 20 creates are 60 rows; the delete took keep0's three.
        assert row_writes(mirror) == (inserts + 60, deletes + 3)
        dead = sum(
            mirror.conn.database.table(name).dead_tuple_count
            for name in mirror.conn.database.table_names()
        )
        assert dead == (3 if flavour == "postgres" else 0)

    @pytest.mark.parametrize("how", HOW)
    def test_a_long_lived_name_never_reads_as_missing(self, how):
        import sys
        import threading

        from repro.core.errors import MappingNotFoundError

        master, mirror, manager, names = replaced_pair("mysql", how)
        probe = names[::37]
        misses: list[str] = []
        reads = [0]
        stop = threading.Event()
        running = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                for name in probe:
                    try:
                        mirror.get_mappings(name)
                    except MappingNotFoundError:
                        misses.append(name)
                    reads[0] += 1
                running.set()

        thread = threading.Thread(target=reader)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            assert running.wait(timeout=10)
            before = reads[0]
            manager.sync()
            during = reads[0] - before
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(switch)
        assert not thread.is_alive()
        assert during > 0, "no read overlapped the ship"
        assert misses == []
        assert catalog(mirror) == catalog(master)


class TestConcurrentShips:
    def test_a_sync_racing_a_ship_does_not_reset_the_mirror_twice(self):
        """Each ship reads the mirror's position after the last one's
        answer: a second reset would empty a mirror that was just fed."""
        import threading
        import time

        master = make_lrc("race-master")
        ingest = MirrorIngest(make_lrc("race-mirror"), master="race-master")

        class SlowSink:
            def ship(self, master_name, after, data):
                time.sleep(0.05)  # both senders are in flight at once
                return ingest.apply_log(master_name, after, data)

        manager = MirrorManager(master, sink_resolver=lambda name: SlowSink())
        manager.add_mirror("race-mirror")
        master.bulk_load((f"r{i}", f"pfn://r{i}") for i in range(20))
        start = threading.Barrier(2)

        def sync() -> None:
            start.wait(timeout=10)
            manager.sync()

        threads = [threading.Thread(target=sync) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert ingest.resets == 1 and ingest.ships_applied == 2
        assert catalog(ingest.lrc) == catalog(master)

    def test_a_mirror_removed_during_a_tick_is_not_shipped_again(self):
        """A tick picks its mirrors, then ships one by one: one removed
        while another is shipped is neither shipped nor brought back."""
        master = make_lrc("rm-master")
        ingests = {
            name: MirrorIngest(make_lrc(name), master="rm-master")
            for name in ("rm-a", "rm-b")
        }
        shipped = []

        class RemovingSink:
            def __init__(self, name):
                self.name = name

            def ship(self, master_name, after, data):
                shipped.append(self.name)
                manager.remove_mirror("rm-a")
                manager.remove_mirror("rm-b")
                return ingests[self.name].apply_log(master_name, after, data)

        manager = MirrorManager(master, sink_resolver=RemovingSink)
        manager.add_mirror("rm-a")
        manager.add_mirror("rm-b")
        master.create_mapping("x", "pfn://x")
        manager.tick()
        assert len(shipped) == 1
        assert manager.mirrors() == [] and manager.target_health() == {}
        manager.sync()
        manager.tick()
        assert len(shipped) == 1 and manager.mirrors() == []


class TestRetry:
    def test_failure_backs_off_then_redelivers(self, pair):
        manager, ingest, sink, clock = pair
        manager.sync()
        sink.fail = True
        manager.lrc.create_mapping("r", "pfn://r")
        clock.now = 6.0
        manager.tick()
        state = manager.target_health()["mirror"]
        assert not state["healthy"]
        assert state["backlog"] == 3  # one create: three records
        assert manager.stats.errors == 1

        sink.fail = False
        clock.now = 6.5  # backoff not yet expired
        before = manager.stats.retries
        manager.tick()
        assert manager.stats.retries == before  # still benched

        clock.now = 1000.0
        manager.tick()
        assert ingest.lrc.get_mappings("r") == ["pfn://r"]
        state = manager.target_health()["mirror"]
        assert state["healthy"] and state["backlog"] == 0

    def test_a_failed_mirror_is_due_once_its_backoff_ends(self, pair):
        manager, ingest, sink, clock = pair
        manager.sync()
        manager.lrc.create_mapping("b", "pfn://b")
        sink.fail = True
        clock.now = 5.0
        manager.tick()  # the scheduled ship fails
        sink.fail = False
        clock.now = 7.0  # past the ~2 s backoff, before the next interval
        assert manager.tick() == ["retry:mirror"]
        assert ingest.lrc.get_mappings("b") == ["pfn://b"]

    def test_failed_full_sync_retries_as_full(self, pair):
        manager, ingest, sink, clock = pair
        sink.fail = True
        manager.lrc.create_mapping("f", "pfn://f")
        manager.tick()  # the first ship (a reset) fails
        assert manager.target_health()["mirror"]["needs_full"]
        sink.fail = False
        clock.now = 1000.0
        manager.tick()
        assert sink.resets == 1
        assert ingest.lrc.get_mappings("f") == ["pfn://f"]

    def test_changes_during_outage_are_not_lost(self, pair):
        manager, ingest, sink, clock = pair
        manager.sync()
        sink.fail = True
        manager.lrc.create_mapping("o1", "pfn://o1")
        clock.now = 6.0
        manager.tick()
        manager.lrc.create_mapping("o2", "pfn://o2")
        clock.now = 12.0
        manager.tick()
        sink.fail = False
        clock.now = 1000.0
        manager.tick()
        assert ingest.lrc.exists("o1") and ingest.lrc.exists("o2")


class TestIdempotence:
    def test_incremental_redelivery_is_idempotent(self, pair):
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("x", "pfn://x")
        applied = ingest.apply_log("master", 0, log_after(manager.lrc))
        assert applied == 3
        # A lost acknowledgement: a ship the mirror holds is skipped, no error.
        data = log_after(manager.lrc, 1)
        assert ingest.apply_log("master", 1, data) == 3
        assert ingest.apply_log("master", 1, data) == 3
        assert ingest.lrc.get_mappings("x") == ["pfn://x"]
        # A ship overlapping what was applied lands its new part at once.
        manager.lrc.create_mapping("x2", "pfn://x2")
        assert ingest.apply_log("master", 1, log_after(manager.lrc, 1)) == 6
        assert catalog(ingest.lrc) == {("x", "pfn://x"), ("x2", "pfn://x2")}

    def test_remove_redelivery_is_idempotent(self, pair):
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("y", "pfn://y")
        applied = ingest.apply_log("master", 0, log_after(manager.lrc))
        manager.lrc.delete_mapping("y", "pfn://y")
        removal = log_after(manager.lrc, applied)
        last = ingest.apply_log("master", applied, removal)
        assert last > applied and not ingest.lrc.exists("y")
        assert ingest.apply_log("master", applied, removal) == last

    def test_full_sync_converges_and_prunes(self, pair):
        manager, ingest, sink, clock = pair
        ingest.lrc.create_mapping("stale", "pfn://stale")
        manager.lrc.create_mapping("keep", "pfn://keep")
        ingest.apply_log("master", 0, log_after(manager.lrc))
        assert ingest.lrc.exists("keep")
        assert not ingest.lrc.exists("stale")

    def test_second_pfn_for_existing_lfn(self, pair):
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("m", "pfn://1")
        manager.lrc.add_mapping("m", "pfn://2")
        ingest.apply_log("master", 0, log_after(manager.lrc))
        assert sorted(ingest.lrc.get_mappings("m")) == ["pfn://1", "pfn://2"]

    def test_a_gap_is_refused_and_answered_with_the_applied_lsn(self, pair):
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("g1", "pfn://g1")
        manager.lrc.create_mapping("g2", "pfn://g2")
        assert ingest.apply_log("master", 3, log_after(manager.lrc, 3)) == 0
        assert catalog(ingest.lrc) == set()

    @pytest.mark.parametrize("after", [False, True, -1, 2.0])
    def test_a_ship_whose_after_is_not_an_lsn_is_refused(self, pair, after):
        """An older master's ``reset`` flag is refused, not read as an LSN:
        ``False`` would rebuild the tables from a suffix."""
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("k1", "pfn://k1")
        manager.sync()
        applied, before = ingest.applied_lsn, catalog(ingest.lrc)
        manager.lrc.create_mapping("k2", "pfn://k2")
        with pytest.raises(ValueError):
            ingest.apply_log("master", after, log_after(manager.lrc, applied))
        assert ingest.applied_lsn == applied
        assert catalog(ingest.lrc) == before == {("k1", "pfn://k1")}


class TestStaleness:
    def test_staleness_age_tracks_last_delivery(self, pair):
        manager, ingest, sink, clock = pair
        assert ingest.staleness_age() == 0.0  # nothing delivered yet
        manager.lrc.create_mapping("s", "pfn://s")
        ingest.apply_log("master", 0, log_after(manager.lrc))
        clock.now = 42.0
        assert ingest.staleness_age() == pytest.approx(42.0)
        ingest.apply_log("master", 3, log_after(manager.lrc, 3))
        assert ingest.staleness_age() == pytest.approx(0.0)

    def test_staleness_gauge_exported_with_shard_label(self):
        registry = MetricsRegistry()
        master = make_lrc("gauge-master")
        mirror = make_lrc("gauge-mirror")
        clock = FakeClock()
        ingest = MirrorIngest(
            mirror, master="shard-a", metrics=registry, clock=clock
        )
        master.create_mapping("g", "pfn://g")
        ingest.apply_log("shard-a", 0, log_after(master))
        clock.now = 17.0
        gauges = registry.snapshot().gauges
        assert gauges["mirror.staleness_age{shard=shard-a}"] == pytest.approx(
            17.0
        )

    def test_staleness_burn_detector_fires_on_stalled_feed(self):
        """The PR 2 staleness-burn detector consumes the mirror gauge
        unchanged: a stalled feed must produce a detection."""
        from repro.obs.analyze import analyze_store
        from repro.obs.timeseries import SeriesStore

        store = SeriesStore()
        key = "mirror.staleness_age{shard=shard-a}"
        # healthy sawtooth for 60s, then the feed stalls and age climbs
        for t in range(60):
            store.record(key, float(t), float(t % 5))
        for t in range(60, 400):
            store.record(key, float(t), float(t - 60))
        detections = analyze_store(store, staleness_slo=30.0)
        assert any(d.kind == "staleness_burn" for d in detections)
        burn = next(d for d in detections if d.kind == "staleness_burn")
        assert burn.details["series"] == key

    def test_manager_metrics_counters(self):
        registry = MetricsRegistry()
        master = make_lrc("metrics-master")
        mirror = make_lrc("metrics-mirror")
        ingest = MirrorIngest(mirror, master="metrics-master")
        manager = MirrorManager(
            master,
            sink_resolver=lambda name: ingest,
            metrics=registry,
        )
        manager.add_mirror("metrics-mirror")
        master.create_mapping("c", "pfn://c")
        manager.sync()
        counters = registry.snapshot().counters
        assert counters["mirror.sent{kind=reset}"] == 1
        assert counters["mirror.records_shipped"] == 3
        gauges = registry.snapshot().gauges
        assert gauges["mirror.target_healthy{target=metrics-mirror}"] == 1.0
        assert gauges["mirror.retry_backlog"] == 0.0

    def test_a_stalled_mirror_shows_in_the_retry_backlog(self):
        """``mirror.retry_backlog`` is the records the mirrors are behind,
        as ``updates.retry_backlog`` is the RLI targets': a mirror that is
        down while writes continue is a growing queue to the detectors."""
        registry = MetricsRegistry()
        master = make_lrc("stalled-master")
        sink = FlakySink(MirrorIngest(make_lrc("stalled"), master="stalled-master"))
        manager = MirrorManager(
            master, sink_resolver=lambda name: sink, metrics=registry,
        )
        manager.add_mirror("stalled")
        manager.sync()
        sink.fail = True
        backlog = []
        for i in range(3):
            master.create_mapping(f"s{i}", "pfn://s")
            manager.sync()
            backlog.append(registry.snapshot().gauges["mirror.retry_backlog"])
        assert backlog == [3.0, 6.0, 9.0]
        sink.fail = False
        manager.sync()
        assert registry.snapshot().gauges["mirror.retry_backlog"] == 0.0


class TestOneRuleWithTheRLIFeed:
    """The mirror feed runs under the delivery rule of the LRC→RLI feed
    (``repro.core.delivery``): driven the same way, both behave the same."""

    @staticmethod
    def drive(manager, sink_calls, create, health, clock, ticks=5):
        """One new change per tick against a dead sink; returns the sink
        calls made and the consecutive-failure reading after each tick."""
        failures = []
        for i in range(ticks):
            create(i)
            clock.now += 1000.0  # past every flush interval and backoff
            manager.tick()
            failures.append(health()["consecutive_failures"])
        return sink_calls(), failures

    def test_one_attempt_per_target_per_tick(self):
        from repro.core.updates import UpdateManager
        from repro.testing import FailureSchedule, FlakyMirrorSink, FlakySink
        from repro.testing.faults import NullSink

        # Both feeds: the first (full) push lands, then the target dies.
        policy = UpdatePolicy(full_interval=1e9)
        clock = FakeClock()
        master = make_lrc("one-attempt-master")
        mirror_schedule = FailureSchedule([False], default=True)
        mirror_sink = FlakyMirrorSink(
            MirrorIngest(make_lrc("one-attempt-mirror"), "one-attempt-master"),
            mirror_schedule,
        )
        mirrors = MirrorManager(
            master,
            sink_resolver=lambda name: mirror_sink,
            policy=policy,
            clock=clock,
            rng=lambda: 0.5,
        )
        mirrors.add_mirror("m1")
        mirrors.sync()
        mirror_outcome = self.drive(
            mirrors,
            lambda: mirror_schedule.calls - 1,
            lambda i: master.create_mapping(f"m{i}", f"pfn://m{i}"),
            lambda: mirrors.target_health()["m1"],
            clock,
        )

        clock = FakeClock()
        lrc = make_lrc("one-attempt-lrc")
        rli_schedule = FailureSchedule([False], default=True)
        rli_sink = FlakySink(NullSink(), rli_schedule)
        updates = UpdateManager(
            lrc, lambda name: rli_sink, policy=policy, clock=clock,
            rng=lambda: 0.5,
        )
        lrc.add_rli("r1")
        updates.send_full_update()
        rli_outcome = self.drive(
            updates,
            lambda: rli_schedule.calls - 1,
            lambda i: lrc.create_mapping(f"r{i}", f"pfn://r{i}"),
            lambda: updates.target_health()["r1"],
            clock,
        )

        # Parent commit: the mirror made 9 calls and read 1, 3, 5, 7, 9 —
        # tick() picked its retry candidates before flush() re-armed the
        # backoff, so a failing mirror was attempted twice per tick.
        assert mirror_outcome == (5, [1, 2, 3, 4, 5])
        assert rli_outcome == mirror_outcome

    def test_first_full_sync_is_not_a_retry(self):
        registry = MetricsRegistry()
        master = make_lrc("first-sync-master")
        mirror = make_lrc("first-sync-mirror")
        ingest = MirrorIngest(mirror, master="first-sync-master")
        manager = MirrorManager(
            master,
            sink_resolver=lambda name: ingest,
            metrics=registry,
        )
        manager.add_mirror("first-sync-mirror")
        master.create_mapping("a", "pfn://a")
        assert manager.tick() == ["retry:first-sync-mirror"]  # marker kept
        assert ingest.resets == 1
        health = manager.target_health()["first-sync-mirror"]
        assert health["healthy"] and health["retries"] == 0
        assert manager.stats.retries == 0
        assert registry.snapshot().counters["mirror.retries"] == 0

    def test_remove_mirror_drops_its_health_series(self):
        registry = MetricsRegistry()
        manager = MirrorManager(
            make_lrc("forget-master"),
            sink_resolver=lambda name: None,
            metrics=registry,
        )
        manager.add_mirror("gone")
        key = "mirror.target_healthy{target=gone}"
        assert key in registry.snapshot().gauges
        manager.remove_mirror("gone")
        assert key not in registry.snapshot().gauges
        assert manager.mirrors() == []


#: What a read-only mirror refuses, written out by hand: every client-facing
#: method that changes the catalog, which a mirror takes only from its
#: master's log (RLI registrations are catalog rows too).
CATALOG_WRITES = frozenset(
    {
        "lrc_create_mapping",
        "lrc_add_mapping",
        "lrc_delete_mapping",
        "lrc_bulk_create",
        "lrc_bulk_add",
        "lrc_bulk_delete",
        "lrc_attr_define",
        "lrc_attr_undefine",
        "lrc_attr_add",
        "lrc_attr_modify",
        "lrc_attr_remove",
        "lrc_attr_bulk_add",
        "lrc_rli_add",
        "lrc_rli_remove",
    }
)


def every_method_call(master: str, applied_lsn: int) -> dict[str, tuple]:
    """Valid arguments for every non-admin method against the catalog
    :class:`TestAMirrorServesReadsOnly` ships.  In this order each write
    also succeeds on the master."""
    lfn = int(ObjType.LFN)
    return {
        "lrc_create_mapping": ("new-0", "pfn://new-0"),
        "lrc_add_mapping": ("lfn-0", "pfn://lfn-0b"),
        "lrc_delete_mapping": ("lfn-0", "pfn://lfn-0"),
        "lrc_bulk_create": ([["new-1", "pfn://new-1"]],),
        "lrc_bulk_add": ([["lfn-1", "pfn://lfn-1b"]],),
        "lrc_bulk_delete": ([["lfn-1", "pfn://lfn-1"]],),
        "lrc_get_mappings": ("lfn-0",),
        "lrc_get_lfns": ("pfn://lfn-0",),
        "lrc_query_wildcard": ("lfn-*",),
        "lrc_bulk_query": (["lfn-0", "lfn-1"],),
        "lrc_exists": ("lfn-0",),
        "lrc_lfn_count": (),
        "lrc_mapping_count": (),
        "lrc_attr_define": ("owner", lfn, "str"),
        "lrc_attr_undefine": ("colour", lfn),
        "lrc_attr_add": ("lfn-1", "size", lfn, 2),
        "lrc_attr_modify": ("lfn-0", "size", lfn, 3),
        "lrc_attr_remove": ("lfn-0", "size", lfn),
        "lrc_attr_get": ("lfn-0", lfn),
        "lrc_attr_query": ("size", lfn, 1, "="),
        "lrc_attr_bulk_add": ([["lfn-2", "size", 4]], lfn),
        "lrc_rli_add": ("ro-rli-2", False, []),
        "lrc_rli_remove": ("ro-rli",),
        "lrc_rli_list": (),
        "rli_query": ("lfn-0",),
        "rli_bulk_query": (["lfn-0"],),
        "rli_query_wildcard": ("lfn-*",),
        "rli_lrc_list": (),
        "rli_full_update": (master, ["lfn-0"]),
        "rli_incremental_update": (master, ["lfn-0"], []),
        "rli_bloom_update": (master, bytes(8), 64, 3, 1),
        "mirror_ship": (master, applied_lsn, b""),
        "lrc_mirror_add": ("ro-other",),
        "lrc_mirror_remove": ("ro-other",),
        "lrc_mirror_list": (),
    }


class TestAMirrorServesReadsOnly:
    MASTER, MIRROR = "ro-master", "ro-mirror"

    def test_every_write_is_refused_and_every_read_served(self, make_server):
        # The master is not started: its update manager would push to an
        # RLI nobody serves.  Its catalog reaches the mirror by one sync.
        master = make_server(ServerRole.LRC, name=self.MASTER, mirrors=(self.MIRROR,))
        mirror = make_server(
            ServerRole.LRC, name=self.MIRROR, mirror_of=self.MASTER
        ).start()
        master.lrc.bulk_create([(f"lfn-{i}", f"pfn://lfn-{i}") for i in range(3)])
        master.lrc.define_attribute("size", "lfn", "int")
        master.lrc.define_attribute("colour", "lfn", "str")
        master.lrc.add_attribute("lfn-0", "size", "lfn", 1)
        master.lrc.add_rli("ro-rli")
        with connect(self.MASTER) as direct:
            direct.mirror_sync()
        calls = every_method_call(self.MASTER, mirror.mirror_ingest.applied_lsn)
        assert set(calls) == {
            m for m in mirror.rpc.methods() if not m.startswith("admin_")
        }

        db = mirror.lrc.conn.database

        def state() -> tuple[int, dict[str, int]]:
            rows = {name: db.table(name).row_count for name in db.table_names()}
            return db.wal.last_lsn, rows

        before = state()
        assert before[1]["t_lfn"] == 3
        with connect(self.MIRROR) as client:
            for method, args in calls.items():
                if method in CATALOG_WRITES:
                    with pytest.raises(ReadOnlyCatalogError, match="shard master"):
                        client.rpc.call(method, *args)
                    assert state() == before, method
                elif method == "lrc_mirror_add":
                    with pytest.raises(ReadOnlyCatalogError, match="cannot have mirrors"):
                        client.rpc.call(method, *args)
                elif method.startswith("rli_"):  # an LRC-only server
                    with pytest.raises(NotConfiguredError):
                        client.rpc.call(method, *args)
                else:
                    client.rpc.call(method, *args)
            assert client.get_mappings("lfn-0") == ["pfn://lfn-0"]
        assert state() == before

        # The arguments were valid: the master takes every write.
        with connect(self.MASTER) as client:
            for method in (m for m in calls if m in CATALOG_WRITES):
                result = client.rpc.call(method, *calls[method])
                if isinstance(result, list):
                    assert result == [], method

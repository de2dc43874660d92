"""UpdateManager tests: full / incremental / bloom / partitioned updates."""

import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.bloom import BloomFilter, BloomParameters, CountingBloomFilter
from repro.core.errors import UpdateTargetError
from repro.core.lrc import LocalReplicaCatalog
from repro.core.partition import PartitionRouter
from repro.core.rli import ReplicaLocationIndex
from repro.core.updates import DirectSink, UpdateManager, UpdatePolicy
from repro.db import wal as wal_module
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class RecordingSink:
    """Sink that records every update it receives."""

    def __init__(self):
        self.full = []
        self.incremental = []
        self.bloom = []

    def full_update(self, lrc_name, lfns):
        self.full.append((lrc_name, list(lfns)))

    def incremental_update(self, lrc_name, added, removed):
        self.incremental.append((lrc_name, list(added), list(removed)))

    def bloom_update(self, lrc_name, bitmap, num_bits, num_hashes, approx_entries):
        self.bloom.append((lrc_name, bitmap, num_bits, num_hashes, approx_entries))


@pytest.fixture
def setup():
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    lrc = LocalReplicaCatalog(Connection(engine, "lrc"), name="lrcA")
    lrc.init_schema()
    sinks: dict[str, RecordingSink] = {}

    def resolver(name):
        return sinks.setdefault(name, RecordingSink())

    clock = FakeClock()
    policy = UpdatePolicy(
        immediate_interval=30.0,
        immediate_count_threshold=5,
        full_interval=600.0,
        bloom_expected_entries=1024,
    )
    manager = UpdateManager(lrc, resolver, policy=policy, clock=clock)
    return lrc, manager, sinks, clock


class TestFullUpdates:
    def test_full_update_sends_all_lfns(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1")
        lrc.bulk_create([(f"l{i}", f"p{i}") for i in range(5)])
        manager.send_full_update()
        assert len(sinks["rli1"].full) == 1
        name, lfns = sinks["rli1"].full[0]
        assert name == "lrcA" and sorted(lfns) == [f"l{i}" for i in range(5)]

    def test_no_targets_raises(self, setup):
        _, manager, _, _ = setup
        with pytest.raises(UpdateTargetError):
            manager.send_full_update()

    def test_one_failure_does_not_skip_others(self, setup):
        """Targets are pushed one after another; a failing one is
        re-raised only after the relational and the Bloom target behind
        it got theirs."""
        lrc, manager, sinks, _ = setup

        class FailingSink(RecordingSink):
            def full_update(self, lrc_name, lfns):
                raise ConnectionError("rli down")

        sinks["bad"] = FailingSink()
        for name, bloom in (("good1", False), ("bad", False), ("good2", True)):
            lrc.add_rli(name, bloom=bloom)
        lrc.create_mapping("x", "p")
        with pytest.raises(ConnectionError):
            manager.send_full_update()
        assert sinks["good1"].full[0][1] == ["x"]
        assert len(sinks["good2"].bloom) == 1
        assert manager.target_health()["bad"]["needs_full"]

    def test_full_update_clears_pending(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1")
        lrc.create_mapping("x", "p")
        assert manager.pending() == {"x": True}
        manager.send_full_update()
        assert manager.pending() == {}

    def test_change_during_a_full_reaches_the_rli(self, setup):
        """A name created while a full is in flight, after its snapshot
        was read, is sent by the next flush, not dropped with the delta
        the full subsumed."""
        lrc, manager, _, _ = setup
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
        rli = ReplicaLocationIndex(Connection(engine, "r"), name="rli-real")
        rli.init_schema()

        class CreatingSink(DirectSink):
            def full_update(self, lrc_name, lfns):
                lrc.create_mapping("late", "p")
                super().full_update(lrc_name, lfns)

        manager.sink_resolver = lambda name: CreatingSink(rli)
        lrc.add_rli("rli-real")
        lrc.create_mapping("early", "p")
        manager.send_full_update()
        manager.send_incremental_update()
        assert rli.bulk_query(["early", "late"]) == {
            "early": ["lrcA"], "late": ["lrcA"],
        }

    def test_stats_updated(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1")
        lrc.bulk_create([(f"l{i}", f"p{i}") for i in range(3)])
        manager.send_full_update()
        assert manager.stats.full_updates == 1
        assert manager.stats.names_sent == 3


class TestIncrementalUpdates:
    def test_deltas_sent(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1")
        lrc.create_mapping("added", "p")
        lrc.create_mapping("gone", "p2")
        lrc.delete_mapping("gone", "p2")
        flushed = manager.send_incremental_update()
        assert flushed == 2
        name, added, removed = sinks["rli1"].incremental[0]
        assert added == ["added"] and removed == ["gone"]

    def test_add_then_delete_collapses(self, setup):
        """An LFN created and deleted between flushes nets out to removed."""
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1")
        lrc.create_mapping("temp", "p")
        lrc.delete_mapping("temp", "p")
        manager.send_incremental_update()
        _, added, removed = sinks["rli1"].incremental[0]
        assert added == [] and removed == ["temp"]

    def test_empty_flush_sends_nothing(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1")
        assert manager.send_incremental_update() == 0
        assert "rli1" not in sinks or sinks["rli1"].incremental == []


class TestBloomUpdates:
    def test_bloom_target_receives_bitmap(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1", bloom=True)
        lrc.bulk_create([(f"l{i}", f"p{i}") for i in range(10)])
        manager.rebuild_bloom()
        manager.send_full_update()
        assert len(sinks["rli1"].bloom) == 1
        _, bitmap, num_bits, num_hashes, entries = sinks["rli1"].bloom[0]
        assert len(bitmap) * 8 == num_bits
        assert num_hashes == 3
        assert entries == 10

    def test_bloom_built_lazily(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1", bloom=True)
        lrc.create_mapping("x", "p")
        manager.send_full_update()  # triggers rebuild internally
        assert len(sinks["rli1"].bloom) == 1

    def test_bloom_filter_tracks_changes(self, setup):
        """Incremental maintenance: the pushed bitmap reflects live catalog
        state, verified end-to-end through a real RLI."""
        lrc, manager, _, _ = setup
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
        rli = ReplicaLocationIndex(Connection(engine, "r"), name="rli-real")
        rli.init_schema()
        sink = DirectSink(rli)
        manager.sink_resolver = lambda name: sink
        lrc.add_rli("rli-real", bloom=True)
        lrc.create_mapping("keep", "p1")
        lrc.create_mapping("drop", "p2")
        manager.rebuild_bloom()
        lrc.delete_mapping("drop", "p2")
        manager.send_full_update()
        assert rli.query("keep") == ["lrcA"]
        with pytest.raises(Exception):
            rli.query("drop")

    def test_generation_time_recorded(self, setup):
        lrc, manager, _, _ = setup
        lrc.create_mapping("x", "p")
        elapsed = manager.rebuild_bloom()
        assert elapsed > 0
        assert manager.stats.bloom_generation_time == elapsed

    def test_incremental_flush_sends_bloom_to_bloom_targets(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli1", bloom=True)
        manager.rebuild_bloom()
        lrc.create_mapping("x", "p")
        manager.send_incremental_update()
        assert len(sinks["rli1"].bloom) == 1

    def test_rebuild_racing_writes_loses_no_change(self, setup):
        """A rebuild reads its names and their LSN together under the
        write latch, and the log after that LSN maintains the filter: a
        create or delete landing during a rebuild is counted exactly once."""
        lrc, manager, _, _ = setup
        lrc.add_rli("rli1", bloom=True)
        lrc.bulk_create([(f"seed{i}", "p") for i in range(2000)])
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                lrc.create_mapping(f"w{i}", "p")
                if i % 3:
                    lrc.delete_mapping(f"w{i - 1}", "p")
                i += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(30):
                manager.rebuild_bloom()
                manager.pending()  # the log maintains the filter
                time.sleep(0.001)  # let the writer run between rebuilds
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        manager.pending()
        names = lrc.all_lfns()
        assert all(name in manager.bloom for name in names)
        fresh = CountingBloomFilter(manager.bloom.params)
        fresh.add_batch(names)
        assert np.array_equal(manager.bloom.counts, fresh.counts)


class TestTheLogFeed:
    def test_no_rli_target_never_reads_the_log(self, setup, monkeypatch):
        """An LRC nobody indexes pays nothing for the feed: bulk loads,
        writes, flushes and ticks never read its log."""
        lrc, manager, _, clock = setup

        def refuse(self, lsn=0):
            raise AssertionError("log reader opened without an RLI target")

        monkeypatch.setattr(wal_module.WriteAheadLog, "reader", refuse)
        lrc.bulk_load([(f"l{i}", f"p{i}") for i in range(100)])
        assert manager.send_incremental_update() == 0
        lrc.create_mapping("x", "p")
        lrc.delete_mapping("l1", "p1")
        for _ in range(3):
            clock.now += 31.0
            assert manager.tick() == []
        assert manager.pending() == {}

    def test_the_health_of_an_unseen_target_opens_no_reader(
        self, setup, monkeypatch
    ):
        """An admin read reports a target nothing was pushed to yet as
        behind the whole log, and registers no reader for checkpoints to
        keep records for."""
        lrc, manager, _, _ = setup
        lrc.create_mapping("x", "p")
        lrc.add_rli("rel")

        def refuse(self, lsn=0):
            raise AssertionError("log reader opened by a health read")

        monkeypatch.setattr(wal_module.WriteAheadLog, "reader", refuse)
        health = manager.target_health()["rel"]
        assert health["healthy"] and not health["needs_full"]
        assert health["backlog"] == lrc.conn.database.wal.last_lsn > 0
        assert manager.engine.targets == {}

    def test_a_target_behind_a_checkpoint_is_sent_a_full(self, setup):
        """A position the log no longer holds is owed a full (it is
        authoritative), and the counting filter is rebuilt."""
        lrc, manager, sinks, clock = setup
        lrc.add_rli("rel")
        lrc.add_rli("bloom", bloom=True)
        manager.send_full_update()
        stale = manager.bloom
        lrc.create_mapping("n0", "p")
        lrc.create_mapping("n1", "p")
        lrc.conn.database.wal.checkpoint()
        lrc.create_mapping("n2", "p")
        lrc.create_mapping("n3", "p")
        clock.now += 31.0
        assert manager.tick() == ["incremental", "retry:rel", "retry:bloom"]
        assert sinks["rel"].incremental == []
        assert sorted(sinks["rel"].full[-1][1]) == ["n0", "n1", "n2", "n3"]
        assert manager.bloom is not stale
        assert all(f"n{i}" in manager.bloom for i in range(4))
        assert manager.target_health()["rel"]["backlog"] == 0

    def test_a_retried_bloom_push_after_a_bulk_load_sends_the_loaded_names(
        self, setup
    ):
        """A Bloom target owed a full whose retry finds the log checkpointed
        by ``bulk_load`` is sent a filter rebuilt after that read, not the
        one built before it: no loaded name is a false negative."""
        lrc, manager, sinks, clock = setup
        manager.policy.immediate_mode = False  # the retry is the first read
        lrc.add_rli("bloom", bloom=True)

        class FailsOnce(RecordingSink):
            failed = False

            def bloom_update(self, *args):
                if not self.failed:
                    self.failed = True
                    raise ConnectionError("rli down")
                super().bloom_update(*args)

        sinks["bloom"] = FailsOnce()
        with pytest.raises(ConnectionError):
            manager.send_full_update()
        assert manager.target_health()["bloom"]["needs_full"]
        names = [f"bulk{i}" for i in range(500)]
        lrc.bulk_load((name, "p") for name in names)
        clock.now += 100.0  # past the backoff, short of the full interval
        assert manager.tick() == ["retry:bloom"]
        _lrc, bitmap, num_bits, num_hashes, _n = sinks["bloom"].bloom[-1]
        sent = BloomFilter.from_bytes(bitmap, BloomParameters(num_bits, num_hashes))
        assert all(name in sent for name in names)

    def test_churn_across_automatic_checkpoints_is_sent_incrementally(
        self, monkeypatch
    ):
        """An automatic checkpoint keeps the records after the feed's last
        read, so a feed read every tick crosses checkpoints with no forced
        full and no filter rebuild: each name change is sent once."""
        monkeypatch.setattr(wal_module, "CHECKPOINT_MIN_RECORDS", 8)
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
        lrc = LocalReplicaCatalog(Connection(engine, "lrc"), name="lrcA")
        lrc.init_schema()
        lrc.bulk_create([(f"seed{i}", "p") for i in range(10)])
        rli = ReplicaLocationIndex(Connection(MySQLEngine(sync_latency=0.0), "r"))
        rli.init_schema()
        sinks = {"rel": DirectSink(rli), "bloom": RecordingSink()}
        clock = FakeClock()
        manager = UpdateManager(lrc, sinks.__getitem__, clock=clock)
        lrc.add_rli("rel")
        lrc.add_rli("bloom", bloom=True)
        manager.send_full_update()
        built, sent = manager.bloom, manager.stats.names_sent
        checkpoints, changes = set(), 0
        for round_ in range(8):
            for i in range(4):
                lrc.create_mapping(f"r{round_}n{i}", "p")
            lrc.delete_mapping(f"seed{round_}", "p")
            changes += 5
            checkpoints.add(engine.wal.checkpoint_lsn)
            clock.now += 31.0
            assert manager.tick() == ["incremental"]
        assert len(checkpoints) >= 3
        assert manager.stats.full_updates == 1  # the first
        assert manager.stats.names_sent - sent == changes
        assert manager.bloom is built
        live = lrc.all_lfns()
        assert sorted(lfn for lfn, _lrc in rli.query_wildcard("*")) == sorted(live)
        fresh = CountingBloomFilter(built.params)
        fresh.add_batch(live)
        assert np.array_equal(built.counts, fresh.counts)

    def test_a_failed_incremental_push_is_retried_across_a_checkpoint(
        self, monkeypatch
    ):
        """A relational target whose incremental push failed reads the log
        through its own reader, whose records the automatic checkpoints
        keep: its retry is one incremental update of exactly the names it
        is owed, not a full."""
        monkeypatch.setattr(wal_module, "CHECKPOINT_MIN_RECORDS", 8)
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
        lrc = LocalReplicaCatalog(Connection(engine, "lrc"), name="lrcA")
        lrc.init_schema()
        lrc.bulk_create([(f"seed{i}", "p") for i in range(4)])

        class FailsOnce(RecordingSink):
            failed = False

            def incremental_update(self, *args):
                if not self.failed:
                    self.failed = True
                    raise ConnectionError("rli down")
                super().incremental_update(*args)

        sink = FailsOnce()
        clock = FakeClock()
        manager = UpdateManager(lrc, lambda name: sink, clock=clock)
        lrc.add_rli("rel")
        manager.send_full_update()
        lrc.create_mapping("a", "p")
        lrc.delete_mapping("seed0", "p")
        assert manager.send_incremental_update() == 2  # fails
        checkpoint, created = engine.wal.checkpoint_lsn, []
        while engine.wal.checkpoint_lsn == checkpoint:  # until an automatic one
            created.append(f"b{len(created)}")
            lrc.create_mapping(created[-1], "p")
        lrc.delete_mapping("a", "p")
        clock.now += 200.0  # past the backoff, short of the full interval
        manager.tick()
        assert sink.incremental == [("lrcA", sorted(created), ["a", "seed0"])]
        assert manager.stats.full_updates == 1  # the first
        assert manager.target_health()["rel"]["backlog"] == 0

    def test_a_flush_leaves_a_target_inside_its_backoff_alone(self, setup):
        """A flush neither pushes to nor reads for a target whose push
        failed until its backoff ends: a dead target's backlog is read
        once per backoff, not once per tick.  The retry then sends it
        everything it is owed."""
        lrc, manager, sinks, clock = setup
        lrc.add_rli("rel")
        lrc.add_rli("down")
        manager.send_full_update()

        def refuse(*args):
            raise ConnectionError("rli down")

        sinks["down"].incremental_update = refuse
        lrc.create_mapping("a", "p")
        assert manager.send_incremental_update() == 1
        down = manager.engine.targets["down"]
        assert not down.healthy and clock() < down.next_retry_at
        reads = []
        read = type(down.reader).read
        down.reader.read = lambda: reads.append(1) or read(down.reader)
        lrc.create_mapping("b", "p")
        assert manager.send_incremental_update() == 1
        assert reads == [] and len(sinks["rel"].incremental) == 2
        del sinks["down"].incremental_update
        clock.now = down.next_retry_at
        assert manager.tick() == ["retry:down"]
        assert reads == [1]
        assert sinks["down"].incremental == [("lrcA", ["a", "b"], [])]

    def test_an_unregistered_target_is_forgotten_with_its_reader(self, setup):
        """After ``remove_rli`` the next tick drops the target: its health
        is no longer reported, and its log reader no longer lowers what a
        checkpoint keeps."""
        lrc, manager, _, _ = setup
        lrc.add_rli("rel")
        lrc.add_rli("gone")
        manager.send_full_update()
        lrc.create_mapping("a", "p")
        manager.send_incremental_update()
        reader = weakref.ref(manager.engine.targets["gone"].reader)
        lrc.remove_rli("gone")
        manager.tick()
        assert list(manager.target_health()) == ["rel"]
        assert list(manager.engine.targets) == ["rel"]
        assert reader() not in set(lrc.conn.database.wal._readers)

    def test_reading_a_synced_log_does_not_sync_it(self, setup):
        lrc, manager, _, _ = setup
        lrc.add_rli("rel")
        lrc.create_mapping("a", "p")
        wal = lrc.conn.database.wal
        wal.flush()
        syncs = wal.device.sync_count
        assert manager.pending() == {"a": True}
        assert wal.device.sync_count == syncs


class TestPartitioning:
    def test_full_update_filtered_by_pattern(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli-run1", patterns=["^run1/"])
        lrc.add_rli("rli-run2", patterns=["^run2/"])
        lrc.add_rli("rli-all")
        lrc.bulk_create(
            [("run1/a", "p1"), ("run1/b", "p2"), ("run2/c", "p3")]
        )
        manager.send_full_update()
        assert sorted(sinks["rli-run1"].full[0][1]) == ["run1/a", "run1/b"]
        assert sinks["rli-run2"].full[0][1] == ["run2/c"]
        assert len(sinks["rli-all"].full[0][1]) == 3

    def test_incremental_filtered_by_pattern(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli-run1", patterns=["^run1/"])
        lrc.create_mapping("run1/x", "p")
        lrc.create_mapping("run9/y", "p2")
        manager.send_incremental_update()
        _, added, _ = sinks["rli-run1"].incremental[0]
        assert added == ["run1/x"]

    def test_bloom_with_patterns_builds_subset_filter(self, setup):
        lrc, manager, sinks, _ = setup
        lrc.add_rli("rli-b", bloom=True, patterns=["^run1/"])
        lrc.bulk_create([("run1/a", "p1"), ("run2/b", "p2")])
        manager.send_full_update()
        _, bitmap, nbits, k, entries = sinks["rli-b"].bloom[0]
        from repro.core.bloom import BloomFilter, BloomParameters

        bf = BloomFilter.from_bytes(bitmap, BloomParameters(nbits, k))
        assert "run1/a" in bf
        assert "run2/b" not in bf


class TestScheduling:
    def test_incremental_due_after_interval(self, setup):
        lrc, manager, sinks, clock = setup
        lrc.add_rli("rli1")
        lrc.create_mapping("x", "p")
        assert manager.due_actions() == []
        clock.now += 31.0
        assert manager.due_actions() == ["incremental"]

    def test_incremental_due_after_count_threshold(self, setup):
        lrc, manager, sinks, clock = setup
        lrc.add_rli("rli1")
        for i in range(5):  # threshold is 5
            lrc.create_mapping(f"x{i}", f"p{i}")
        assert manager.due_actions() == ["incremental"]

    def test_full_due_after_full_interval(self, setup):
        lrc, manager, _, clock = setup
        lrc.add_rli("rli1")
        clock.now += 601.0
        assert manager.due_actions() == ["full"]

    def test_nothing_due_without_changes(self, setup):
        lrc, manager, _, clock = setup
        lrc.add_rli("rli1")
        clock.now += 31.0
        assert manager.due_actions() == []

    def test_tick_performs_due_actions(self, setup):
        lrc, manager, sinks, clock = setup
        lrc.add_rli("rli1")
        lrc.create_mapping("x", "p")
        clock.now += 31.0
        assert manager.tick() == ["incremental"]
        assert sinks["rli1"].incremental

    def test_immediate_mode_disabled(self, setup):
        lrc, manager, _, clock = setup
        manager.policy.immediate_mode = False
        lrc.add_rli("rli1")
        lrc.create_mapping("x", "p")
        clock.now += 100.0
        assert manager.due_actions() == []


class TestPartitionRouter:
    def test_no_patterns_matches_everything(self):
        from repro.core.lrc import RLITarget

        router = PartitionRouter([RLITarget("rli")])
        assert router.filter_names(RLITarget("rli"), ["anything"]) == ["anything"]

    def test_search_semantics(self):
        from repro.core.lrc import RLITarget

        target = RLITarget("rli", patterns=("run1",))
        router = PartitionRouter([target])
        # substring match
        assert router.filter_names(target, ["data/run1/file"]) == ["data/run1/file"]

    def test_route(self):
        from repro.core.lrc import RLITarget

        t1 = RLITarget("a", patterns=("^x",))
        t2 = RLITarget("b", patterns=("^y",))
        t3 = RLITarget("c")
        router = PartitionRouter([t1, t2, t3])
        hearing = [t.name for t in (t1, t2, t3) if router.filter_names(t, ["xfile"])]
        assert hearing == ["a", "c"]

    def test_filter_names(self):
        from repro.core.lrc import RLITarget

        target = RLITarget("a", patterns=("^x", "^y"))
        router = PartitionRouter([target])
        assert router.filter_names(target, ["x1", "y1", "z1"]) == ["x1", "y1"]


class TestPartitionRouterFastPath:
    """The compiled alternation must be invisible: the names each target
    receives are the names any one of its patterns finds."""

    LFNS = [
        "site0/dir1/run42",
        "site1/dir2/run7",
        "elsewhere/dir3/run9",
        "run42",
        "xyy",
        "abab",
        "",
    ]

    def test_alternation_equivalent_to_per_pattern(self):
        import re

        from repro.core.lrc import RLITarget

        targets = [
            RLITarget("a", patterns=("^site0/", "run4[0-9]$")),
            RLITarget("b", patterns=("^site1/", "^elsewhere/")),
            RLITarget("c", patterns=("dir[12]/",)),
            RLITarget("all", patterns=()),
        ]
        router = PartitionRouter(targets)
        for t in targets:
            expected = [
                lfn for lfn in self.LFNS
                if not t.patterns or any(re.search(p, lfn) for p in t.patterns)
            ]
            assert router.filter_names(t, self.LFNS) == expected, t.name

    def test_backreference_patterns_fall_back(self):
        """Group numbers shift inside a joined alternation, so a pattern
        with a backreference must skip the combined search — and still
        filter correctly."""
        from repro.core.lrc import RLITarget
        from repro.core.partition import _combine

        assert _combine([r"(ab)\1"]) is None
        assert _combine([r"(?P<d>x)(?P=d)"]) is None
        assert _combine(["^plain", "no-backref"]) is not None

        target = RLITarget("br", patterns=(r"(ab)\1",))
        plain = RLITarget("plain", patterns=("^x",))
        router = PartitionRouter([target, plain])
        assert router.filter_names(target, ["abab", "xyy"]) == ["abab"]
        assert router.filter_names(plain, ["abab", "xyy"]) == ["xyy"]
        assert router.filter_names(target, ["abab", "abba"]) == ["abab"]

    def test_match_all_target_in_route_and_filter(self):
        from repro.core.lrc import RLITarget

        everything = RLITarget("everything")
        scoped = RLITarget("scoped", patterns=("^site0/",))
        router = PartitionRouter([everything, scoped])
        assert router.filter_names(everything, ["unrelated"]) == ["unrelated"]
        assert router.filter_names(scoped, ["unrelated"]) == []
        assert router.filter_names(scoped, ["site0/f"]) == ["site0/f"]
        names = ["site0/a", "other/b"]
        assert router.filter_names(everything, names) == names

    def test_combined_pattern_matches_iff_any_member_matches(self):
        import re

        from repro.core.partition import _combine

        patterns = ["^a+b", "c{2,3}$", "mid.dle"]
        combined = _combine(patterns)
        singles = [re.compile(p) for p in patterns]
        probes = ["aab", "xcc", "xcccc", "midXdle", "middle", "none", "ab", ""]
        for probe in probes:
            assert bool(combined.search(probe)) == any(
                p.search(probe) for p in singles
            ), probe


class _FakePipelinedClient:
    """Records calls; mimics the RPCClient pipelined surface."""

    def __init__(self):
        self.sync_calls = []
        self.async_calls = []
        self.drains = 0

    def call(self, method, *args):
        self.sync_calls.append((method, args))

    def call_async(self, method, *args):
        self.async_calls.append((method, args))

        class _Done:
            done = True

            @staticmethod
            def result():
                return None

        return _Done()

    def drain(self):
        self.drains += 1


class TestRPCSinkChunking:
    def test_small_update_single_call(self):
        from repro.core.updates import RPCSink

        client = _FakePipelinedClient()
        sink = RPCSink(client, chunk_size=10)
        sink.incremental_update("lrc", ["a", "b"], ["c"])
        assert client.sync_calls == [
            ("rli_incremental_update", ("lrc", ["a", "b"], ["c"]))
        ]
        assert client.async_calls == [] and client.drains == 0

    def test_large_update_chunks_and_drains_once(self):
        from repro.core.updates import RPCSink

        client = _FakePipelinedClient()
        sink = RPCSink(client, chunk_size=10)
        added = [f"a{i}" for i in range(25)]
        removed = [f"r{i}" for i in range(12)]
        sink.incremental_update("lrc", added, removed)
        assert client.sync_calls == []
        assert client.drains == 1
        # 3 add chunks then 2 removal chunks, covering every element in
        # order with nothing dropped or duplicated.
        adds = [c for c in client.async_calls if c[1][1]]
        rems = [c for c in client.async_calls if c[1][2]]
        assert len(adds) == 3 and len(rems) == 2
        assert [x for c in adds for x in c[1][1]] == added
        assert [x for c in rems for x in c[1][2]] == removed
        assert all(c[0] == "rli_incremental_update" for c in client.async_calls)
        assert all(c[1][0] == "lrc" for c in client.async_calls)

    def test_full_update_never_chunked(self):
        from repro.core.updates import RPCSink

        client = _FakePipelinedClient()
        sink = RPCSink(client, chunk_size=2)
        sink.full_update("lrc", [f"l{i}" for i in range(9)])
        assert len(client.sync_calls) == 1
        assert client.async_calls == []

"""Master→mirror replication: delivery, retry, idempotence, staleness."""

from __future__ import annotations

import pytest

from repro.cluster.mirror import (
    DirectMirrorSink,
    MirrorIngest,
    MirrorManager,
)
from repro.core.lrc import LocalReplicaCatalog
from repro.core.updates import UpdatePolicy
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
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
        self.full_calls = 0
        self.incremental_calls = 0

    def full_sync(self, master, pairs):
        if self.fail:
            raise ConnectionError("mirror down")
        self.full_calls += 1
        self.ingest.apply_full(master, pairs)

    def incremental(self, master, added, removed):
        if self.fail:
            raise ConnectionError("mirror down")
        self.incremental_calls += 1
        self.ingest.apply_incremental(master, added, removed)


def make_lrc(name: str) -> LocalReplicaCatalog:
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    lrc = LocalReplicaCatalog(Connection(engine, name), name=name)
    lrc.init_schema()
    return lrc


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
        manager.tick()  # needs_full target is due immediately
        assert sink.full_calls == 1
        assert ingest.lrc.get_mappings("a") == ["pfn://a"]

    def test_incremental_after_interval(self, pair):
        manager, ingest, sink, clock = pair
        manager.send_full_sync()
        manager.lrc.create_mapping("b", "pfn://b")
        assert manager.pending_changes() == (1, 0)
        manager.tick()  # interval not yet elapsed
        assert ingest.lrc.exists("b") is False
        clock.now = 6.0
        manager.tick()
        assert ingest.lrc.get_mappings("b") == ["pfn://b"]
        assert manager.pending_changes() == (0, 0)

    def test_count_threshold_flushes_early(self, pair):
        manager, ingest, sink, clock = pair
        manager.send_full_sync()
        threshold = manager.policy.immediate_count_threshold
        for i in range(threshold):
            manager.lrc.create_mapping(f"n{i}", f"pfn://n{i}")
        manager.tick()  # due by count, not by time
        assert ingest.lrc.lfn_count() == threshold

    def test_delete_propagates(self, pair):
        manager, ingest, sink, clock = pair
        manager.lrc.create_mapping("d", "pfn://d")
        manager.send_full_sync()
        manager.lrc.delete_mapping("d", "pfn://d")
        manager.flush()
        assert ingest.lrc.exists("d") is False

    def test_no_tracking_without_mirrors(self):
        master = make_lrc("lonely")
        manager = MirrorManager(master, sink_resolver=lambda n: None)
        master.create_mapping("x", "pfn://x")
        assert manager.pending_changes() == (0, 0)

    def test_bulk_load_reaches_mirror(self, pair):
        manager, ingest, sink, clock = pair
        manager.send_full_sync()
        manager.lrc.bulk_load((f"bl{i}", f"pfn://bl{i}") for i in range(50))
        manager.flush()
        assert ingest.lrc.lfn_count() == 50


class TestRetry:
    def test_failure_backs_off_then_redelivers(self, pair):
        manager, ingest, sink, clock = pair
        manager.send_full_sync()
        sink.fail = True
        manager.lrc.create_mapping("r", "pfn://r")
        clock.now = 6.0
        manager.tick()
        state = manager.target_health()["mirror"]
        assert not state["healthy"]
        assert state["backlog"] == 1
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

    def test_failed_full_sync_retries_as_full(self, pair):
        manager, ingest, sink, clock = pair
        sink.fail = True
        manager.lrc.create_mapping("f", "pfn://f")
        manager.tick()  # full sync attempt fails
        assert manager.target_health()["mirror"]["needs_full"]
        sink.fail = False
        clock.now = 1000.0
        manager.tick()
        assert sink.full_calls == 1
        assert ingest.lrc.get_mappings("f") == ["pfn://f"]

    def test_changes_during_outage_are_not_lost(self, pair):
        manager, ingest, sink, clock = pair
        manager.send_full_sync()
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
        applied = ingest.apply_incremental("master", [("x", "pfn://x")], [])
        assert applied == (1, 0)
        applied = ingest.apply_incremental("master", [("x", "pfn://x")], [])
        assert applied == (0, 0)  # replay: swallowed, not an error
        assert ingest.lrc.get_mappings("x") == ["pfn://x"]

    def test_remove_redelivery_is_idempotent(self, pair):
        manager, ingest, sink, clock = pair
        ingest.apply_incremental("master", [("y", "pfn://y")], [])
        assert ingest.apply_incremental("master", [], [("y", "pfn://y")]) == (0, 1)
        assert ingest.apply_incremental("master", [], [("y", "pfn://y")]) == (0, 0)

    def test_full_sync_converges_and_prunes(self, pair):
        manager, ingest, sink, clock = pair
        ingest.apply_incremental("master", [("stale", "pfn://stale")], [])
        ingest.apply_full("master", [("keep", "pfn://keep")])
        assert ingest.lrc.exists("keep")
        assert not ingest.lrc.exists("stale")

    def test_second_pfn_for_existing_lfn(self, pair):
        manager, ingest, sink, clock = pair
        ingest.apply_incremental("master", [("m", "pfn://1")], [])
        ingest.apply_incremental("master", [("m", "pfn://2")], [])
        assert sorted(ingest.lrc.get_mappings("m")) == ["pfn://1", "pfn://2"]


class TestStaleness:
    def test_staleness_age_tracks_last_delivery(self, pair):
        manager, ingest, sink, clock = pair
        assert ingest.staleness_age() == 0.0  # nothing delivered yet
        ingest.apply_incremental("master", [("s", "pfn://s")], [])
        clock.now = 42.0
        assert ingest.staleness_age() == pytest.approx(42.0)
        ingest.apply_full("master", [("s", "pfn://s")])
        assert ingest.staleness_age() == pytest.approx(0.0)

    def test_staleness_gauge_exported_with_shard_label(self):
        registry = MetricsRegistry()
        mirror = make_lrc("gauge-mirror")
        clock = FakeClock()
        ingest = MirrorIngest(
            mirror, master="shard-a", metrics=registry, clock=clock
        )
        ingest.apply_incremental("shard-a", [("g", "pfn://g")], [])
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
            sink_resolver=lambda name: DirectMirrorSink(ingest),
            metrics=registry,
        )
        manager.add_mirror("metrics-mirror")
        master.create_mapping("c", "pfn://c")
        manager.send_full_sync()
        counters = registry.snapshot().counters
        assert counters["mirror.sent{kind=full}"] == 1
        assert counters["mirror.pairs_sent"] == 1
        gauges = registry.snapshot().gauges
        assert gauges["mirror.target_healthy{target=metrics-mirror}"] == 1.0


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

        class NullMirror:
            def full_sync(self, master, pairs):
                pass

        # Both feeds: the first (full) push lands, then the target dies.
        policy = UpdatePolicy(full_interval=1e9)
        clock = FakeClock()
        master = make_lrc("one-attempt-master")
        mirror_schedule = FailureSchedule([False], default=True)
        mirror_sink = FlakyMirrorSink(NullMirror(), mirror_schedule)
        mirrors = MirrorManager(
            master,
            sink_resolver=lambda name: mirror_sink,
            policy=policy,
            clock=clock,
            rng=lambda: 0.5,
        )
        mirrors.add_mirror("m1")
        mirrors.send_full_sync()
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
            sink_resolver=lambda name: DirectMirrorSink(ingest),
            metrics=registry,
        )
        manager.add_mirror("first-sync-mirror")
        master.create_mapping("a", "pfn://a")
        assert manager.tick() == ["retry:first-sync-mirror"]  # marker kept
        assert ingest.full_syncs == 1
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

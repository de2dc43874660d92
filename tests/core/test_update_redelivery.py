"""Reliable soft-state delivery: per-target position, health, and redelivery.

The scenario the paper leaves implicit — "what happens when an update push
fails?" — answered the soft-state way: nothing is lost, the target is
marked unhealthy, and ``tick()`` redelivers with backoff until the RLI
converges.
"""

import pytest

from repro.core.lrc import LocalReplicaCatalog
from repro.core.rli import ReplicaLocationIndex
from repro.core.updates import (
    DirectSink,
    UpdateManager,
    UpdatePolicy,
    tick_task,
)
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.net.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.testing import FailureSchedule, FlakySink
from repro.testing.faults import NullSink


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class RecordingSink:
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


def make_lrc(name="lrcA"):
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    lrc = LocalReplicaCatalog(Connection(engine, "lrc"), name=name)
    lrc.init_schema()
    return lrc


def make_rli(name="rli1"):
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    rli = ReplicaLocationIndex(Connection(engine, "r"), name=name)
    rli.init_schema()
    return rli


#: Deterministic nominal backoff: rng()=0.5 cancels the jitter exactly.
NOMINAL_RNG = lambda: 0.5  # noqa: E731

#: Retry curve used throughout: 2s, then 4s, then 8s ... capped at 120s.
RETRY = RetryPolicy(backoff_base=2.0, backoff_multiplier=2.0, backoff_max=120.0)


def make_manager(lrc, resolver, metrics=None):
    clock = FakeClock()
    policy = UpdatePolicy(
        immediate_interval=30.0,
        immediate_count_threshold=100,
        full_interval=600.0,
        retry=RETRY,
    )
    manager = UpdateManager(
        lrc, resolver, policy=policy, clock=clock, metrics=metrics,
        rng=NOMINAL_RNG,
    )
    return manager, clock


class TestIncrementalFailurePreservesPending:
    def test_failed_push_keeps_changes_in_target_backlog(self):
        lrc = make_lrc()
        sink = FlakySink(NullSink(), FailureSchedule.always())
        manager, _ = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1")
        lrc.create_mapping("a", "p1")
        lrc.create_mapping("b", "p2")
        flushed = manager.send_incremental_update()
        assert flushed == 2  # the flush still drained the global delta
        health = manager.target_health()["rli1"]
        assert not health["healthy"]
        # Records behind: the registration (1) and two creates (3 each).
        assert health["backlog"] == 7
        assert "FaultInjected" in health["last_error"]
        assert manager.stats.errors == 1
        assert sink.incremental == []  # nothing actually delivered

    def test_next_flush_delivers_backlog_plus_new_changes(self):
        lrc = make_lrc()
        sink = FlakySink(NullSink(), FailureSchedule.pattern("F."))
        manager, clock = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1")
        lrc.create_mapping("a", "p1")
        manager.send_incremental_update()  # fails, "a" re-queued
        lrc.create_mapping("b", "p2")
        clock.now += 200.0  # past the target's backoff
        manager.send_incremental_update()  # succeeds
        assert sink.incremental == [("lrcA", ["a", "b"], [])]
        assert manager.target_health()["rli1"]["backlog"] == 0
        assert manager.target_health()["rli1"]["healthy"]

    def test_requeue_never_clobbers_newer_change(self):
        """An LFN deleted after its failed 'add' push must stay deleted."""
        lrc = make_lrc()
        sink = FlakySink(NullSink(), FailureSchedule.pattern("F."))
        manager, clock = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1")
        lrc.create_mapping("x", "p")
        manager.send_incremental_update()  # push of add(x) fails
        lrc.delete_mapping("x", "p")  # newer intent: x is gone
        clock.now += 200.0
        manager.send_incremental_update()
        _, added, removed = sink.incremental[0]
        assert added == []
        assert removed == ["x"]

    def test_failure_does_not_raise(self):
        lrc = make_lrc()
        sink = FlakySink(NullSink(), FailureSchedule.always())
        manager, _ = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1")
        lrc.create_mapping("a", "p")
        # Soft-state semantics: incremental delivery failure is absorbed,
        # never raised to the mutation path.
        manager.send_incremental_update()

    def test_one_failing_target_does_not_affect_others(self):
        lrc = make_lrc()
        good = RecordingSink()
        bad = FlakySink(NullSink(), FailureSchedule.always())
        sinks = {"good": good, "bad": bad}
        manager, _ = make_manager(lrc, lambda name: sinks[name])
        lrc.add_rli("good")
        lrc.add_rli("bad")
        lrc.create_mapping("a", "p")
        manager.send_incremental_update()
        assert good.incremental == [("lrcA", ["a"], [])]
        health = manager.target_health()
        assert health["good"]["healthy"]
        assert not health["bad"]["healthy"]
        # Records behind: two registrations and one create (3).
        assert health["bad"]["backlog"] == 5


class TestTickRedelivery:
    def test_backoff_schedule_between_retries(self):
        lrc = make_lrc()
        sink = FlakySink(NullSink(), FailureSchedule.always())
        manager, clock = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1")
        lrc.create_mapping("a", "p")
        clock.now = 31.0
        assert manager.tick() == ["incremental"]  # fails; backoff = 2s
        assert manager.tick() == []  # still inside the backoff window
        clock.now = 33.5
        assert manager.tick() == ["retry:rli1"]  # fails again; backoff = 4s
        clock.now = 35.0
        assert manager.tick() == []  # 4s backoff not yet expired
        clock.now = 38.0
        assert manager.tick() == ["retry:rli1"]
        assert manager.stats.retries == 2

    def test_full_failure_marks_needs_full_and_retries_full(self):
        lrc = make_lrc()
        schedule = FailureSchedule.pattern("F.")
        sink = FlakySink(NullSink(), schedule)
        manager, clock = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1")
        lrc.create_mapping("a", "p")
        with pytest.raises(Exception):
            manager.send_full_update()  # explicit trigger still raises
        health = manager.target_health()["rli1"]
        assert health["needs_full"] and not health["healthy"]
        clock.now += 200.0
        assert manager.tick() == ["retry:rli1"]
        assert len(sink.full) == 1  # the retry re-sent a FULL, not a delta
        assert manager.target_health()["rli1"]["healthy"]

    def test_unregistered_target_dropped_from_retry_loop(self):
        lrc = make_lrc()
        sink = FlakySink(NullSink(), FailureSchedule.always())
        manager, clock = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1")
        lrc.create_mapping("a", "p")
        manager.send_incremental_update()
        lrc.remove_rli("rli1")
        clock.now += 200.0
        assert manager.tick() == []
        assert "rli1" not in manager.target_health()


class TestAcceptanceEndToEnd:
    def test_rli_failing_two_of_three_pushes_converges(self):
        """ISSUE acceptance: with a scripted FF. failure schedule, no
        pending change is lost, the RLI converges to the correct LFN set
        after retries, and updates.retries / updates.errors reflect the
        schedule."""
        metrics = MetricsRegistry()
        lrc = make_lrc()
        rli = make_rli()
        schedule = FailureSchedule.pattern("FF.")
        sink = FlakySink(DirectSink(rli), schedule)
        manager, clock = make_manager(lrc, lambda name: sink, metrics=metrics)
        lrc.add_rli("rli1")
        for i in range(3):
            lrc.create_mapping(f"lfn{i}", f"pfn{i}")

        clock.now = 31.0
        assert manager.tick() == ["incremental"]  # push 1: fails
        clock.now = 33.5  # past 2s backoff
        assert manager.tick() == ["retry:rli1"]  # push 2: fails
        clock.now = 38.0  # past 4s backoff
        assert manager.tick() == ["retry:rli1"]  # push 3: delivered

        # Convergence: the RLI knows every LFN, nothing was lost.
        for i in range(3):
            assert rli.query(f"lfn{i}") == ["lrcA"]
        assert sink.incremental == [("lrcA", ["lfn0", "lfn1", "lfn2"], [])]
        health = manager.target_health()["rli1"]
        assert health["healthy"] and health["backlog"] == 0

        # Counters reflect the schedule: 2 failures, 2 redeliveries.
        assert manager.stats.errors == 2
        assert manager.stats.retries == 2
        snap = metrics.snapshot()
        assert snap.counters["updates.errors{kind=incremental}"] == 2
        assert snap.counters["updates.retries"] == 2
        assert snap.gauges["updates.target_healthy{target=rli1}"] == 1.0
        assert snap.gauges["updates.targets_unhealthy"] == 0.0
        assert snap.gauges["updates.retry_backlog"] == 0.0

    def test_dead_then_recovered_rli_heals_via_retries(self):
        """A target down for several ticks converges once it comes back."""
        lrc = make_lrc()
        rli = make_rli()
        schedule = FailureSchedule.fail_first(4)
        sink = FlakySink(DirectSink(rli), schedule)
        manager, clock = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1")
        lrc.create_mapping("a", "p1")
        clock.now = 31.0
        manager.tick()
        # Keep ticking far past every backoff until the schedule recovers.
        for _ in range(10):
            clock.now += 130.0
            manager.tick()
        assert rli.query("a") == ["lrcA"]
        assert manager.target_health()["rli1"]["healthy"]
        assert manager.stats.retries >= 4


class TestStatsAccounting:
    def test_names_sent_counts_partition_filtered_names(self):
        """names_sent must count what was actually sent per target, not
        the unfiltered delta times the number of targets."""
        lrc = make_lrc()
        sinks = {}

        def resolver(name):
            return sinks.setdefault(name, RecordingSink())

        manager, _ = make_manager(lrc, resolver)
        lrc.add_rli("rli-run1", patterns=["^run1/"])
        lrc.add_rli("rli-all")
        lrc.create_mapping("run1/x", "p1")
        lrc.create_mapping("run9/y", "p2")
        manager.send_incremental_update()
        # rli-run1 got 1 name, rli-all got 2: 3 sent in total — not 4.
        assert manager.stats.names_sent == 3

    def test_full_update_names_sent_filtered(self):
        lrc = make_lrc()
        sinks = {}

        def resolver(name):
            return sinks.setdefault(name, RecordingSink())

        manager, _ = make_manager(lrc, resolver)
        lrc.add_rli("rli-run1", patterns=["^run1/"])
        lrc.create_mapping("run1/x", "p1")
        lrc.create_mapping("run9/y", "p2")
        manager.send_full_update()
        assert manager.stats.names_sent == 1


class TestUpdateThreadErrors:
    def test_tick_exception_counted_not_swallowed(self):
        metrics = MetricsRegistry()
        lrc = make_lrc()
        manager, _ = make_manager(lrc, lambda name: NullSink(), metrics=metrics)
        thread = tick_task(manager, poll_interval=0.01)

        calls = {"n": 0}

        def exploding_tick():
            calls["n"] += 1
            raise RuntimeError("tick blew up")

        manager.tick = exploding_tick
        thread.start()
        try:
            import time

            deadline = time.monotonic() + 5.0
            while calls["n"] < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            thread.stop()
        assert calls["n"] >= 2  # the daemon survived the first failure
        assert thread.errors >= 2
        assert "RuntimeError" in thread.last_error
        key = "updates.errors{error=RuntimeError,kind=tick}"
        assert metrics.snapshot().counters[key] >= 2


class TestBloomRedelivery:
    def test_failed_bloom_push_resent_on_retry(self):
        lrc = make_lrc()
        schedule = FailureSchedule.pattern("F.")
        sink = FlakySink(NullSink(), schedule)
        manager, clock = make_manager(lrc, lambda name: sink)
        lrc.add_rli("rli1", bloom=True)
        manager.rebuild_bloom()
        lrc.create_mapping("a", "p")
        manager.send_incremental_update()  # bloom push fails
        assert not manager.target_health()["rli1"]["healthy"]
        clock.now += 200.0
        assert manager.tick() == ["retry:rli1"]
        assert len(sink.bloom) == 1
        assert manager.target_health()["rli1"]["healthy"]


class TestForgottenTarget:
    def test_unregistered_rli_drops_its_health_series(self):
        """The per-target gauge must not outlive the target it reports."""
        metrics = MetricsRegistry()
        lrc = make_lrc()
        sink = FlakySink(NullSink(), FailureSchedule.always())
        manager, clock = make_manager(lrc, lambda name: sink, metrics=metrics)
        lrc.add_rli("rli1")
        lrc.create_mapping("a", "p")
        manager.send_incremental_update()
        key = "updates.target_healthy{target=rli1}"
        assert metrics.snapshot().gauges[key] == 0.0
        lrc.remove_rli("rli1")
        clock.now += 200.0
        assert manager.tick() == []
        gauges = metrics.snapshot().gauges
        assert key not in gauges
        assert gauges["updates.targets_unhealthy"] == 0.0
        assert gauges["updates.retry_backlog"] == 0.0

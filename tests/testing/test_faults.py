"""FailureSchedule / flaky-wrapper semantics the rest of the suite leans on."""

import threading

import pytest

from repro.testing import (
    FailureSchedule,
    FaultInjected,
    FlakyMirrorSink,
    FlakySink,
)
from repro.testing.faults import NullSink


class TestFailureSchedule:
    def test_pattern_parses_fails_and_successes(self):
        schedule = FailureSchedule.pattern("FF.")
        assert schedule.next_outcome() is True
        assert schedule.next_outcome() is True
        assert schedule.next_outcome() is False
        # Past the script: the default (succeed) applies forever.
        assert schedule.next_outcome() is False
        assert schedule.calls == 4
        assert schedule.failures == 2

    def test_fail_first(self):
        schedule = FailureSchedule.fail_first(2)
        outcomes = [schedule.next_outcome() for _ in range(4)]
        assert outcomes == [True, True, False, False]

    def test_always_fails(self):
        schedule = FailureSchedule.always()
        assert all(schedule.next_outcome() for _ in range(5))

    def test_check_raises_connection_error_subclass(self):
        schedule = FailureSchedule.fail_first(1)
        with pytest.raises(FaultInjected) as excinfo:
            schedule.check("push")
        assert isinstance(excinfo.value, ConnectionError)
        schedule.check("push")  # second slot succeeds silently

    def test_thread_safety_each_caller_consumes_distinct_slot(self):
        schedule = FailureSchedule.fail_first(50)
        results = []
        lock = threading.Lock()

        def worker():
            outcome = schedule.next_outcome()
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=worker) for _ in range(100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(results) == 50
        assert schedule.calls == 100


class TestFlakySink:
    def test_records_only_delivered_updates(self):
        sink = FlakySink(NullSink(), FailureSchedule.pattern("F."))
        with pytest.raises(FaultInjected):
            sink.incremental_update("lrc", ["a"], [])
        sink.incremental_update("lrc", ["b"], [])
        assert sink.incremental == [("lrc", ["b"], [])]

    def test_one_slot_per_push_any_flavour(self):
        schedule = FailureSchedule.pattern("F..")
        sink = FlakySink(NullSink(), schedule)
        with pytest.raises(FaultInjected):
            sink.full_update("lrc", ["a"])
        sink.bloom_update("lrc", b"\x00", 8, 3, 1)
        sink.full_update("lrc", ["a"])
        assert schedule.calls == 3
        assert len(sink.bloom) == 1 and len(sink.full) == 1

    def test_fail_after_applies_the_push_then_loses_the_acknowledgement(self):
        delivered = FlakySink(NullSink(), FailureSchedule())
        sink = FlakySink(delivered, FailureSchedule.pattern("F."), fail_after=True)
        with pytest.raises(FaultInjected, match="acknowledgement lost"):
            sink.incremental_update("lrc", ["a"], [])
        assert delivered.incremental == [("lrc", ["a"], [])]  # it landed
        sink.incremental_update("lrc", ["a"], [])  # the redelivery
        assert len(delivered.incremental) == 2

    def test_mirror_sink_face_shares_the_schedule(self):
        class Mirror:
            def __init__(self):
                self.calls = []

            def ship(self, master, after, data):
                self.calls.append((master, after, data))
                return len(self.calls)

        mirror = Mirror()
        schedule = FailureSchedule.pattern("F..")
        sink = FlakyMirrorSink(mirror, schedule)
        with pytest.raises(FaultInjected, match="push dropped"):
            sink.ship("m", 0, b"log")
        assert sink.ship("m", 0, b"log") == 1
        assert sink.ship("m", 1, b"more") == 2
        assert schedule.calls == 3
        assert mirror.calls == [("m", 0, b"log"), ("m", 1, b"more")]
        assert sink.ships == [("m", 0, b"log", 1), ("m", 1, b"more", 2)]

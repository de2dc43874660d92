"""Flight recorder unit tests: wrap survival, error retention, dumps."""

from __future__ import annotations

import threading

import pytest

from repro.obs import tracing
from repro.obs.flight import EVENT_KINDS, FlightEvent, FlightRecorder
from repro.obs.tracing import Tracer


class TestRecord:
    def test_basic_event_fields(self):
        recorder = FlightRecorder(capacity=8, clock=lambda: 12.5)
        event = recorder.record("rpc.in", detail="query", method="query")
        assert event.kind == "rpc.in"
        assert event.detail == "query"
        assert event.t == 12.5
        assert event.error is False
        assert event.data == {"method": "query"}
        assert event.seq > 0

    def test_sequence_totally_ordered(self):
        recorder = FlightRecorder(capacity=8)
        a = recorder.record("rpc.in")
        b = recorder.record("rpc.out")
        assert b.seq > a.seq
        assert [e.seq for e in recorder.events()] == sorted(
            e.seq for e in recorder.events()
        )

    def test_explicit_span_context(self):
        recorder = FlightRecorder(capacity=8)
        event = recorder.record("wal.flush", span=("t1", "s1"))
        assert (event.trace_id, event.span_id) == ("t1", "s1")

    def test_adopts_installed_tracer_context(self):
        tracer = Tracer()
        tracing.install_tracer(tracer)
        try:
            recorder = FlightRecorder(capacity=8)
            with tracer.span("rpc.handle") as span:
                event = recorder.record("rpc.in")
            assert event.trace_id == span.trace_id
            assert event.span_id == span.span_id
        finally:
            tracing.install_tracer(None)

    def test_no_tracer_leaves_context_none(self):
        recorder = FlightRecorder(capacity=8)
        event = recorder.record("rpc.in")
        assert event.trace_id is None and event.span_id is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_event_dict_round_trip(self):
        event = FlightEvent(
            seq=3, t=1.0, kind="error", detail="boom",
            trace_id="t", span_id="s", error=True, data={"x": 1},
        )
        assert FlightEvent.from_dict(event.to_dict()) == event

    def test_known_kinds_are_documented(self):
        assert "error" in EVENT_KINDS and "rpc.in" in EVENT_KINDS


class TestRetention:
    def test_ring_survives_wrap(self):
        recorder = FlightRecorder(capacity=4, error_capacity=2)
        for i in range(10):
            recorder.record("rpc.in", detail=f"e{i}")
        events = recorder.events()
        assert len(events) == 4
        assert [e.detail for e in events] == ["e6", "e7", "e8", "e9"]

    def test_errors_survive_healthy_flood(self):
        """Acceptance criterion: error events are kept preferentially."""
        recorder = FlightRecorder(capacity=8, error_capacity=4)
        err = recorder.record("error", detail="boom", error=True)
        for i in range(100):
            recorder.record("rpc.in", detail=f"ok{i}")
        kinds = [e.kind for e in recorder.events()]
        assert "error" in kinds
        retained = [e for e in recorder.events() if e.error]
        assert retained[0].seq == err.seq
        # The union is seq-sorted with the old error first.
        assert recorder.events()[0].seq == err.seq

    def test_error_ring_evicts_oldest_error(self):
        recorder = FlightRecorder(capacity=4, error_capacity=2)
        errs = [
            recorder.record("error", detail=f"b{i}", error=True)
            for i in range(5)
        ]
        for i in range(50):
            recorder.record("rpc.in")
        retained = recorder.errors()
        assert [e.seq for e in retained] == [errs[3].seq, errs[4].seq]

    def test_no_duplicate_when_error_still_recent(self):
        recorder = FlightRecorder(capacity=8, error_capacity=4)
        recorder.record("error", error=True)
        assert len(recorder.events()) == 1

    def test_a_failed_requests_error_outlives_its_rpc_in(self):
        """Requests are kept as records and read back as events: the error
        ring must still hand out the failure once healthy traffic has pushed
        the request out of the recent window."""
        from repro.net.messages import Hello, Request
        from repro.net.rpc import RPCServer

        recorder = FlightRecorder(capacity=4, error_capacity=2)
        rpc = RPCServer(observers=[recorder])
        rpc.register("ok", lambda ctx, args: 1)
        rpc.register("boom", lambda ctx, args: 1 / 0)
        ctx = rpc.handshake(Hello(), peer="test")
        assert not rpc.handle(ctx, Request("boom", ())).ok
        for _ in range(10):
            assert rpc.handle(ctx, Request("ok", ())).ok
        events = recorder.events()
        assert [(e.kind, e.detail) for e in events] == [
            ("error", "boom: ZeroDivisionError"),
            ("rpc.in", "ok"), ("rpc.out", "ok"), ("rpc.in", "ok"), ("rpc.out", "ok"),
        ]
        assert events[0].error and events[0].data == {"message": "division by zero"}
        assert [(e.seq, e.kind) for e in recorder.errors()] == [(events[0].seq, "error")]
        stats = recorder.stats()
        assert (stats["recorded"], stats["errors"]) == (22, 1)
        assert (stats["recent"], stats["retained_errors"]) == (4, 1)

    def test_default_error_capacity(self):
        assert FlightRecorder(capacity=256).error_capacity == 64
        assert FlightRecorder(capacity=8).error_capacity == 16

    def test_stats(self):
        recorder = FlightRecorder(capacity=4, error_capacity=2)
        for i in range(6):
            recorder.record("rpc.in")
        recorder.record("error", error=True)
        stats = recorder.stats()
        assert stats["recorded"] == 7
        assert stats["errors"] == 1
        assert stats["recent"] == 4
        assert stats["retained_errors"] == 1
        assert stats["capacity"] == 4
        assert stats["error_capacity"] == 2


class TestDump:
    def test_dump_freezes_window(self):
        recorder = FlightRecorder(capacity=4, clock=lambda: 7.0)
        recorder.record("rpc.in", detail="before")
        recorder.record("error", detail="boom", error=True)
        snapshot = recorder.dump(reason="query: RuntimeError")
        assert snapshot["reason"] == "query: RuntimeError"
        assert snapshot["t"] == 7.0
        assert [e["detail"] for e in snapshot["events"]] == ["before", "boom"]
        assert recorder.last_dump is snapshot

    def test_dump_survives_subsequent_wrap(self):
        recorder = FlightRecorder(capacity=4, error_capacity=2)
        recorder.record("error", detail="boom", error=True)
        dump = recorder.dump(reason="boom")
        for i in range(50):
            recorder.record("rpc.in")
        assert recorder.last_dump is dump
        assert any(e["detail"] == "boom" for e in recorder.last_dump["events"])

    def test_to_dict_limit_keeps_tail(self):
        recorder = FlightRecorder(capacity=16)
        for i in range(10):
            recorder.record("rpc.in", detail=f"e{i}")
        payload = recorder.to_dict(limit=3)
        assert [e["detail"] for e in payload["events"]] == ["e7", "e8", "e9"]
        assert payload["stats"]["recorded"] == 10
        assert payload["last_dump"] is None

    def test_clear(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("error", error=True)
        recorder.dump(reason="x")
        recorder.clear()
        assert recorder.events() == []
        assert recorder.last_dump is None


class TestThreadSafety:
    def test_concurrent_producers_keep_invariants(self):
        recorder = FlightRecorder(capacity=32, error_capacity=8)

        def produce(tag):
            for i in range(200):
                recorder.record(
                    "rpc.in" if i % 10 else "error",
                    detail=f"{tag}-{i}",
                    error=(i % 10 == 0),
                )

        threads = [
            threading.Thread(target=produce, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = recorder.stats()
        assert stats["recorded"] == 800
        assert stats["errors"] == 80
        assert stats["recent"] <= 32
        assert stats["retained_errors"] <= 8
        seqs = [e.seq for e in recorder.events()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

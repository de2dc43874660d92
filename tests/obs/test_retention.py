"""The one tail-retention ring, and the orphan reason read off the tracer."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.retention import TailRing
from repro.obs.tracing import SpanSink, Tracer


class TestTailRingModel:
    @settings(max_examples=200, deadline=None)
    @given(
        recent=st.integers(min_value=0, max_value=8),
        kept=st.integers(min_value=0, max_value=8),
        # True/False: offer the next item, kept or not; None: snapshot.
        steps=st.lists(st.one_of(st.booleans(), st.none()), max_size=60),
    )
    def test_rings_hold_the_models_last_items(self, recent, kept, steps):
        ring = TailRing(recent, kept)
        offered: list[int] = []
        kept_items: list[int] = []

        def check():
            snapshot = ring.snapshot()
            assert snapshot == (
                len(offered),
                len(kept_items),
                tuple(kept_items[max(0, len(kept_items) - kept):]),
                tuple(offered[max(0, len(offered) - recent):]),
            )

        for step in steps:
            if step is None:
                check()
                continue
            item = len(offered)
            ring.offer(item, step)
            offered.append(item)
            if step:
                kept_items.append(item)
        check()
        check()  # a read draws on the counts; the next read still agrees

    def test_clear_empties_rings_and_keeps_totals(self):
        ring = TailRing(4, 4)
        ring.offer("a", True)
        ring.offer("b", False)
        ring.clear()
        assert ring.snapshot() == (2, 1, (), ())


class TestTailRingUnderContention:
    def test_four_producers_keep_exact_totals_and_bounded_rings(self):
        """Offering takes no lock, so a lost count or an overfull ring would
        show here: four producers and a reader share one ring."""
        ring = TailRing(16, 8)
        per_thread, producers = 5000, 4
        done = threading.Event()
        bounds: list[tuple[int, int]] = []

        def produce(tag):
            for i in range(per_thread):
                ring.offer((tag, i), i % 7 == 0)

        def read():
            while not done.is_set():
                _, _, kept, recent = ring.snapshot()
                bounds.append((len(kept), len(recent)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=produce, args=(t,)) for t in range(producers)]
            reader = threading.Thread(target=read)
            reader.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in [*threads, reader])
        offered, kept_total, kept, recent = ring.snapshot()
        assert offered == producers * per_thread
        assert kept_total == producers * len(range(0, per_thread, 7))
        assert (len(kept), len(recent)) == (8, 16)
        assert all(k <= 8 and r <= 16 for k, r in bounds)
        assert all(i % 7 == 0 for _, i in kept)
        # Each producer's items stay in its own order in both rings.
        for ring_items in (kept, recent):
            for tag in range(producers):
                mine = [i for t, i in ring_items if t == tag]
                assert mine == sorted(mine)


def _fail(tracer, name):
    with pytest.raises(RuntimeError):
        with tracer.span(name):
            raise RuntimeError(name)


def _fill(tracer, traces):
    for _ in range(traces):
        with tracer.span("filler"):
            pass


class TestOrphanReason:
    """A kept span's reason is read off its fields and the tracer's store."""

    def test_live_trace_has_no_suffix_and_unkept_span_no_reason(self):
        sink = SpanSink(latency_threshold=10.0)  # nothing is slow
        tracer = Tracer(max_traces=2, sink=sink)
        _fail(tracer, "broken")
        with tracer.span("fine"):
            pass
        broken, fine = sink.recent()
        assert sink.retention_reason(broken) == "error"
        assert sink.retention_reason(fine) is None
        slow_sink = SpanSink(latency_threshold=0.0)  # everything is slow
        slow_tracer = Tracer(max_traces=2, sink=slow_sink)
        with slow_tracer.span("work"):
            pass
        assert slow_sink.retention_reason(slow_sink.interesting()[0]) == "slow"
        assert sink.stats()["orphans"] == slow_sink.stats()["orphans"] == 0

    def test_kept_span_of_an_evicted_trace_reads_orphan(self):
        sink = SpanSink(latency_threshold=10.0)
        tracer = Tracer(max_traces=2, sink=sink)
        _fail(tracer, "broken")
        (broken,) = sink.interesting()
        _fill(tracer, 2)  # rolls the failed trace out of the store
        assert broken.trace_id not in tracer.trace_ids()
        assert sink.retention_reason(broken) == "error,orphan"
        assert sink.retention_reason(broken) == "error,orphan"  # suffixed once
        assert sink.stats()["orphans"] == 1
        assert [s["reason"] for s in sink.to_dict()["spans"]] == ["error,orphan"]

        slow_sink = SpanSink(latency_threshold=0.0)
        slow_tracer = Tracer(max_traces=2, sink=slow_sink)
        with slow_tracer.span("work"):
            pass
        work = slow_sink.interesting()[0]
        _fill(slow_tracer, 2)
        assert slow_sink.retention_reason(work) == "slow,orphan"
        # The two fillers are live: only the evicted span is counted.
        assert slow_sink.stats()["orphans"] == 1

    def test_only_the_evicted_trace_reads_orphan(self):
        sink = SpanSink(latency_threshold=10.0)
        tracer = Tracer(max_traces=2, sink=sink)
        _fail(tracer, "first")
        _fail(tracer, "second")
        _fill(tracer, 1)  # evicts the first trace only
        first, second = sink.interesting()
        assert sink.retention_reason(first) == "error,orphan"
        assert sink.retention_reason(second) == "error"
        assert sink.stats()["orphans"] == 1

"""Tail-based span retention: the interesting buffer survives floods."""

from __future__ import annotations

import pytest

from repro.obs.tracing import (
    DEFAULT_LATENCY_THRESHOLD,
    Span,
    SpanSink,
    Tracer,
)


def make_span(i, duration=0.001, error=None):
    return Span(
        name=f"op-{i}",
        trace_id=f"t{i}",
        span_id=f"s{i}",
        duration=duration,
        error=error,
    )


class TestInterestingReason:
    def test_error_wins(self):
        sink = SpanSink()
        assert sink.interesting_reason(make_span(0, error="Timeout")) == "error"

    def test_slow(self):
        sink = SpanSink(latency_threshold=0.050)
        assert sink.interesting_reason(make_span(0, duration=0.051)) == "slow"
        assert sink.interesting_reason(make_span(0, duration=0.049)) is None

    def test_default_threshold(self):
        assert SpanSink().latency_threshold == DEFAULT_LATENCY_THRESHOLD


class TestOverflow:
    def test_fast_flood_cannot_evict_retained_spans(self):
        """Acceptance criterion: error/slow spans survive buffer wrap.

        Retain a handful of interesting spans, then offer far more
        fast-and-fine spans than either ring holds; the interesting buffer
        must still contain every error and slow span.
        """
        sink = SpanSink(capacity=64, recent_capacity=16)
        error_span = make_span(0, error="ConnectionError")
        slow_span = make_span(1, duration=0.200)
        sink.offer(error_span)
        sink.offer(slow_span)
        for i in range(2, 2 + 10 * sink.capacity):
            sink.offer(make_span(i, duration=0.0001))
        retained = {s.span_id for s in sink.interesting()}
        assert error_span.span_id in retained
        assert slow_span.span_id in retained
        # The recent ring wrapped many times over...
        assert len(sink.recent()) == sink.recent_capacity
        # ...but retention bookkeeping saw everything.
        stats = sink.stats()
        assert stats["offered"] == 2 + 10 * sink.capacity
        assert stats["retained"] == 2

    def test_interesting_ring_evicts_oldest_interesting(self):
        sink = SpanSink(capacity=3)
        for i in range(5):
            sink.offer(make_span(i, error="E"))
        assert [s.span_id for s in sink.interesting()] == ["s2", "s3", "s4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanSink(capacity=0)


class TestPayload:
    def test_to_dict_limits_newest_last(self):
        sink = SpanSink()
        for i in range(10):
            sink.offer(make_span(i, error="E"))
        payload = sink.to_dict(limit=3)
        assert [s["span_id"] for s in payload["spans"]] == ["s7", "s8", "s9"]
        assert payload["stats"]["retained"] == 10

    def test_clear(self):
        sink = SpanSink()
        sink.offer(make_span(0, error="E"))
        sink.clear()
        assert sink.interesting() == []
        assert sink.recent() == []


class TestOrphanRetention:
    """More on the reason a kept span reads, orphan or not, is in
    tests/obs/test_retention.py."""

    def test_trace_fetches_across_both_rings(self):
        sink = SpanSink(latency_threshold=0.050)
        slow = Span(
            name="slow", trace_id="tx", span_id="a", duration=0.200
        )
        fast = Span(
            name="fast", trace_id="tx", span_id="b", duration=0.0001
        )
        other = make_span(9, duration=0.200)
        for s in (slow, fast, other):
            sink.offer(s)
        got = {s.span_id for s in sink.trace("tx")}
        assert got == {"a", "b"}

    def test_tracer_eviction_marks_sink_orphans(self):
        """Acceptance criterion: children retained for the tail survive
        trace eviction, flagged ``,orphan`` and fetchable by trace id."""
        sink = SpanSink(latency_threshold=0.0)  # retain everything
        tracer = Tracer(sink=sink, max_traces=2)
        with tracer.span("first-root") as h:
            first_tid = h.trace_id
            with tracer.span("first-child"):
                pass
        # Two more traces roll `first_tid` out of the tracer store.
        for _ in range(2):
            with tracer.span("filler"):
                pass
        assert first_tid not in tracer.trace_ids()
        fragments = sink.trace(first_tid)
        assert {s.name for s in fragments} == {"first-root", "first-child"}
        for s in fragments:
            assert sink.retention_reason(s).endswith(",orphan")
        # The tracer still resolves the orphaned fragments by trace id...
        assert {s.name for s in tracer.fragments(first_tid)} == {
            "first-root", "first-child"
        }
        # ...and by span id, so slowlog output stays pasteable.
        span_id = fragments[0].span_id
        assert tracer.resolve_trace(span_id) == first_tid

    def test_fragments_deduplicate_store_and_sink(self):
        sink = SpanSink(latency_threshold=0.0)
        tracer = Tracer(sink=sink)
        with tracer.span("live") as h:
            tid = h.trace_id
        # The span sits in both the trace store and the sink.
        assert len(tracer.fragments(tid)) == 1


class TestTracerIntegration:
    def test_tracer_offers_finished_spans_to_sink(self):
        sink = SpanSink(latency_threshold=0.0)  # everything is "slow"
        tracer = Tracer(sink=sink)
        with tracer.span("work"):
            pass
        assert sink.stats()["offered"] == 1
        assert [s.name for s in sink.interesting()] == ["work"]

    def test_error_spans_are_retained_fast_ones_not(self):
        sink = SpanSink(latency_threshold=10.0)
        tracer = Tracer(sink=sink)
        with tracer.span("fine"):
            pass
        with pytest.raises(RuntimeError):
            with tracer.span("broken"):
                raise RuntimeError("boom")
        names = [s.name for s in sink.interesting()]
        assert names == ["broken"]
        assert sink.interesting()[0].error == "RuntimeError"

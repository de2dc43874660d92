"""Trace assembly: stitching, gap markers, critical-path attribution."""

from __future__ import annotations

from repro.obs.assemble import (
    TraceAssembler,
    TraceSource,
    render_critical_path,
    render_trace,
    segment_kind,
    sink_source,
    tracer_source,
)
from repro.obs.tracing import Span, SpanSink, Tracer


def make_spans():
    """A deterministic cross-node trace: client -> rpc -> server -> db.

    Layout (seconds):
      cluster.read  [0.0, 1.0)                      client
        rpc.call    [0.1, 0.9)                      client
          rpc.handle [0.2, 0.8)   node=nodeA        server
            sql.execute [0.3, 0.7)                  server (inherits nodeA)
    """
    c1 = Span("cluster.read", "t1", "c1", start=0.0, duration=1.0,
              tags={"method": "get_mappings", "shard": "nodeA"})
    c2 = Span("rpc.call", "t1", "c2", parent_id="c1", start=0.1,
              duration=0.8, tags={"method": "lrc_get_mappings"})
    s1 = Span("rpc.handle", "t1", "s1", parent_id="c2", start=0.2,
              duration=0.6, tags={"node": "nodeA"})
    s2 = Span("sql.execute", "t1", "s2", parent_id="s1", start=0.3,
              duration=0.4)
    return c1, c2, s1, s2


def list_source(name, spans):
    return TraceSource(name=name, fetch=lambda tid: list(spans))


class TestSegmentKind:
    def test_prefix_table(self):
        assert segment_kind("cluster.scatter") == "client.routing"
        assert segment_kind("rpc.call") == "net.wait"
        assert segment_kind("rpc.attempt") == "net.wait"
        assert segment_kind("rpc.handle") == "server.handle"
        assert segment_kind("acl.check") == "acl"
        assert segment_kind("sql.execute") == "db"
        assert segment_kind("wal.flush") == "wal"
        assert segment_kind("mirror_ship") == "replication"
        assert segment_kind("update.full") == "replication"
        assert segment_kind("something.else") == "something.else"


class TestAssemble:
    def test_stitch_dedup_and_node_counts(self):
        c1, c2, s1, s2 = make_spans()
        assembler = TraceAssembler([
            list_source("client", [c1, c2]),
            list_source("nodeA", [s1, s2, c2]),  # c2 duplicated
        ])
        trace = assembler.assemble("t1")
        assert len(trace.spans) == 4
        assert trace.nodes == {"client": 2, "nodeA": 2}
        assert trace.missing == {} and trace.gaps == []
        roots = trace.tree()
        assert len(roots) == 1 and roots[0]["span"].span_id == "c1"

    def test_unreachable_source_reported_not_fatal(self):
        c1, c2, s1, s2 = make_spans()

        def boom(tid):
            raise ConnectionError("node down")

        assembler = TraceAssembler([
            list_source("client", [c1, c2]),
            TraceSource(name="nodeA", fetch=boom),
        ])
        trace = assembler.assemble("t1")
        assert "nodeA" in trace.missing
        assert "node down" in trace.missing["nodeA"]
        assert len(trace.spans) == 2

    def test_missing_parent_becomes_gap_marker(self):
        c1, c2, s1, s2 = make_spans()
        # The server's rpc.handle was never gathered: its child must hang
        # under an explicit gap node, not float up as a root span.
        assembler = TraceAssembler([
            list_source("client", [c1, c2]),
            list_source("nodeA", [s2]),
        ])
        trace = assembler.assemble("t1")
        assert trace.gaps == ["s1"]
        roots = trace.tree()
        gap_roots = [n for n in roots if n["gap"]]
        assert len(gap_roots) == 1
        assert gap_roots[0]["span_id"] == "s1"
        assert gap_roots[0]["children"][0]["span"].span_id == "s2"

    def test_wire_dict_fragments_accepted(self):
        c1, c2, s1, s2 = make_spans()
        assembler = TraceAssembler([
            list_source("client", [s.to_dict() for s in (c1, c2, s1, s2)]),
        ])
        trace = assembler.assemble("t1")
        assert len(trace.spans) == 4

    def test_other_traces_filtered_out(self):
        c1, *_ = make_spans()
        other = Span("x", "t2", "z1", start=0.0, duration=1.0)
        assembler = TraceAssembler([list_source("client", [c1, other])])
        trace = assembler.assemble("t1")
        assert [s.span_id for s in trace.spans] == ["c1"]


class TestCriticalPath:
    def test_segments_sum_exactly_to_root_duration(self):
        c1, c2, s1, s2 = make_spans()
        trace = TraceAssembler(
            [list_source("all", [c1, c2, s1, s2])]
        ).assemble("t1")
        path = trace.critical_path()
        assert abs(sum(s.duration for s in path) - 1.0) < 1e-12
        payload = trace.to_dict()
        assert abs(payload["coverage"] - 1.0) < 1e-9

    def test_attribution_by_kind_and_node(self):
        c1, c2, s1, s2 = make_spans()
        trace = TraceAssembler(
            [list_source("all", [c1, c2, s1, s2])]
        ).assemble("t1")
        by_kind: dict[str, float] = {}
        for seg in trace.critical_path():
            by_kind[seg.kind] = by_kind.get(seg.kind, 0.0) + seg.duration
        # Own time: cluster.read 0.2, rpc.call gaps 0.2, handle 0.2, db 0.4
        assert abs(by_kind["client.routing"] - 0.2) < 1e-12
        assert abs(by_kind["net.wait"] - 0.2) < 1e-12
        assert abs(by_kind["server.handle"] - 0.2) < 1e-12
        assert abs(by_kind["db"] - 0.4) < 1e-12
        # sql.execute has no node tag: it inherits nodeA from rpc.handle.
        db_seg = next(s for s in trace.critical_path() if s.kind == "db")
        assert db_seg.node == "nodeA"

    def test_gap_marker_children_still_attributed(self):
        c1, c2, s1, s2 = make_spans()
        trace = TraceAssembler(
            [list_source("partial", [c1, c2, s2])]
        ).assemble("t1")
        path = trace.critical_path()
        # Root is still the client span; the db time shows via the
        # rpc.call cursor even though rpc.handle is missing.
        assert trace.root_duration() == 1.0
        assert sum(s.duration for s in path) <= 1.0 + 1e-12

    def test_empty_trace(self):
        trace = TraceAssembler([list_source("none", [])]).assemble("t1")
        assert trace.critical_path() == []
        assert trace.root_duration() == 0.0
        assert trace.to_dict()["coverage"] == 0.0


class TestSources:
    def test_tracer_source_partitions_by_node_tag(self):
        tracer = Tracer()
        c1, c2, s1, s2 = make_spans()
        with tracer._lock:
            tracer._traces["t1"] = [c1, c2, s1, s2]
        client = tracer_source("client", tracer).fetch("t1")
        assert {s.span_id for s in client} == {"c1", "c2", "s1", "s2"}
        node_a = tracer_source("nodeA", tracer, node="nodeA").fetch("t1")
        assert {s.span_id for s in node_a} == {"s1"}

    def test_sink_source(self):
        sink = SpanSink()
        err = Span("op", "t9", "e1", duration=0.001, error="Boom")
        sink.offer(err)
        spans = sink_source("sinky", sink).fetch("t9")
        assert [s.span_id for s in spans] == ["e1"]


class TestRenderers:
    def test_render_trace_marks_gaps_and_missing(self):
        c1, c2, s1, s2 = make_spans()

        def boom(tid):
            raise OSError("unreachable")

        assembler = TraceAssembler([
            list_source("client", [c1, c2]),
            list_source("nodeA", [s2]),
            TraceSource(name="nodeB", fetch=boom),
        ])
        payload = assembler.assemble("t1").to_dict()
        text = render_trace(payload)
        assert "node nodeB: MISSING" in text
        assert "[gap: missing span s1]" in text
        assert "cluster.read" in text

    def test_render_critical_path_rolls_up_by_kind(self):
        c1, c2, s1, s2 = make_spans()
        payload = TraceAssembler(
            [list_source("all", [c1, c2, s1, s2])]
        ).assemble("t1").to_dict()
        text = render_critical_path(payload)
        assert "by kind:" in text
        assert "db" in text and "net.wait" in text
        assert "100.0% attributed" in text

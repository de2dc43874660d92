"""Distributed trace assembly over a live 2-shard + mirror cluster.

One ``query_wildcard`` through the combined client fans out to every
shard (mirror-first), so a single trace id crosses the client and at
least two server processes.  The shared in-process tracer is partitioned
into per-node feeds with ``tracer_source(..., node=...)`` — each feed
models one process's sink — and the :class:`TraceAssembler` must stitch
them back into one tree whose critical path accounts for (almost) all of
the root span's wall time.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.cli import main
from repro.cluster import CombinedClient, ShardMap
from repro.core import membership
from repro.core.client import connect, connect_tcp_server
from repro.core.config import ServerConfig, ServerRole
from repro.core.server import RLSServer
from repro.obs.assemble import TraceAssembler, TraceSource, tracer_source
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanSink, Tracer, install_tracer

ENTRIES = 24
SHARDS = ("dtr-s0", "dtr-s1")
MIRROR = "dtr-s0-m0"
ALL_NODES = ("dtr-s0", MIRROR, "dtr-s1")


@pytest.fixture
def traced_cluster():
    tracer = Tracer(sink=SpanSink())
    install_tracer(tracer)
    smap = ShardMap(shards=SHARDS, mirrors={"dtr-s0": (MIRROR,)})
    servers = {}
    try:
        servers[MIRROR] = RLSServer(
            ServerConfig(
                name=MIRROR,
                role=ServerRole.LRC,
                mirror_of="dtr-s0",
                cluster=smap,
                sync_latency=0.0,
                slow_query_threshold=1e-9,  # retain every statement
            )
        ).start()
        for shard in smap.shards:
            servers[shard] = RLSServer(
                ServerConfig(
                    name=shard,
                    role=ServerRole.LRC,
                    mirrors=smap.mirrors_of(shard),
                    cluster=smap,
                    sync_latency=0.0,
                    slow_query_threshold=1e-9,
                )
            ).start()
        cc = CombinedClient(
            smap, rng=random.Random(11), metrics=MetricsRegistry()
        )
        pairs = [(f"dtr-lfn{i:03d}", f"pfn://dtr/{i}") for i in range(ENTRIES)]
        assert cc.bulk_create(pairs) == []
        with connect("dtr-s0") as direct:
            direct.mirror_sync()
        yield smap, servers, tracer, cc, pairs
        cc.close()
    finally:
        for server in servers.values():
            server.stop()
        install_tracer(None)


def scatter_trace_id(tracer, cc):
    """Run one wildcard scatter and return its trace id."""
    assert len(cc.query_wildcard("dtr-lfn*")) == ENTRIES
    for tid in reversed(tracer.trace_ids()):
        if any(s.name == "cluster.scatter" for s in tracer.spans(tid)):
            return tid
    raise AssertionError("no cluster.scatter trace recorded")


def per_node_sources(tracer, nodes=ALL_NODES):
    """Partition the shared tracer into one feed per modelled process."""

    def client_fetch(tid):
        return [s for s in tracer.fragments(tid) if "node" not in s.tags]

    sources = [TraceSource(name="client", fetch=client_fetch)]
    sources.extend(tracer_source(n, tracer, node=n) for n in nodes)
    return sources


class TestStitchedTree:
    def test_one_trace_spans_three_process_sinks(self, traced_cluster):
        smap, servers, tracer, cc, pairs = traced_cluster
        tid = scatter_trace_id(tracer, cc)
        trace = TraceAssembler(per_node_sources(tracer)).assemble(tid)

        # The scatter read crossed the client plus one endpoint per
        # shard (mirror-first on dtr-s0): >= 3 distinct process feeds.
        contributing = {n for n, c in trace.nodes.items() if c > 0}
        assert "client" in contributing
        assert len(contributing) >= 3, trace.nodes
        assert trace.missing == {} and trace.gaps == []

        roots = trace.tree()
        assert len(roots) == 1
        assert roots[0]["span"].name == "cluster.scatter"
        # Every shard's rpc.handle is nested somewhere under the root.
        handled = {
            s.tags["node"] for s in trace.spans if s.name == "rpc.handle"
        }
        assert handled == {MIRROR, "dtr-s1"}, handled

    def test_critical_path_accounts_for_root_duration(self, traced_cluster):
        smap, servers, tracer, cc, pairs = traced_cluster
        tid = scatter_trace_id(tracer, cc)
        payload = (
            TraceAssembler(per_node_sources(tracer)).assemble(tid).to_dict()
        )
        # Acceptance: segment durations sum to the root duration within
        # 5% (exact here — one perf_counter clock).
        assert payload["root_duration"] > 0
        assert abs(payload["coverage"] - 1.0) <= 0.05, payload["coverage"]
        kinds = {seg["kind"] for seg in payload["critical_path"]}
        assert "client.routing" in kinds
        assert "net.wait" in kinds
        assert "server.handle" in kinds
        # Server-side segments inherit the handling node's identity.
        server_time = [
            seg
            for seg in payload["critical_path"]
            if seg["kind"] == "server.handle"
        ]
        assert {seg["node"] for seg in server_time} <= set(ALL_NODES)

    def test_dropped_fragments_reported_not_fatal(self, traced_cluster):
        smap, servers, tracer, cc, pairs = traced_cluster
        tid = scatter_trace_id(tracer, cc)
        full = TraceAssembler(per_node_sources(tracer)).assemble(tid)

        def boom(_tid):
            raise ConnectionError("process restarted")

        # The mirror's feed is gone: its spans drop out, the node is
        # reported missing, and assembly still succeeds.
        broken = [
            s if s.name != MIRROR else TraceSource(name=MIRROR, fetch=boom)
            for s in per_node_sources(tracer)
        ]
        partial = TraceAssembler(broken).assemble(tid)
        assert MIRROR in partial.missing
        assert "process restarted" in partial.missing[MIRROR]
        assert len(partial.spans) < len(full.spans)

        # Server-only view (client feed lost): the rpc.handle fragments
        # reference never-gathered client spans -> explicit gap markers.
        server_only = TraceAssembler(
            [tracer_source(n, tracer, node=n) for n in ALL_NODES]
        ).assemble(tid)
        assert server_only.gaps, "expected gap markers for missing parents"
        gap_roots = [n for n in server_only.tree() if n["gap"]]
        assert gap_roots and all(n["children"] for n in gap_roots)


class TestSpanTagsAgreeWithMetrics:
    def test_read_failover_tags_match_counters(self, traced_cluster):
        smap, servers, tracer, cc, pairs = traced_cluster
        lfn = next(p[0] for p in pairs if cc.ring.owner(p[0]) == "dtr-s0")

        # Healthy path: the mirror serves, no failover.
        cc.get_mappings(lfn)
        span = tracer.find_spans("cluster.read")[-1]
        assert span.tags["shard"] == "dtr-s0"
        assert span.tags["endpoint"] == MIRROR
        assert span.tags["mirror"] is True
        assert span.tags["failover"] == 0

        # Kill the mirror: the read fails over to the shard master, and
        # the span tags must agree with the routing counters.
        servers[MIRROR].stop()
        before = cc.metrics.snapshot().counters
        cc.get_mappings(lfn)
        after = cc.metrics.snapshot().counters
        span = tracer.find_spans("cluster.read")[-1]
        assert span.tags["endpoint"] == "dtr-s0"
        assert span.tags["mirror"] is False
        fail_key = "cluster.failovers{shard=dtr-s0}"
        route_key = "cluster.routes{kind=read,shard=dtr-s0}"
        assert span.tags["failover"] == (
            after.get(fail_key, 0) - before.get(fail_key, 0)
        ) == 1
        assert after[route_key] - before.get(route_key, 0) == 1


class TestCLISurfaces:
    def test_rls_trace_distributed_critical_path(self, traced_cluster):
        smap, servers, tracer, cc, pairs = traced_cluster
        tid = scatter_trace_id(tracer, cc)

        buf = io.StringIO()
        rc = main(
            ["trace", "--server", "dtr-s0", tid, "--critical-path"], out=buf
        )
        text = buf.getvalue()
        assert rc == 0, text
        assert "cluster.scatter" in text
        assert "rpc.handle" in text
        assert "critical path" in text and "by kind:" in text

        jbuf = io.StringIO()
        assert main(
            ["trace", "--server", "dtr-s0", tid, "--json"], out=jbuf
        ) == 0
        payload = json.loads(jbuf.getvalue())
        assert payload["trace_id"] == tid
        assert abs(payload["coverage"] - 1.0) <= 0.05
        # The member asked itself and every other endpoint of its shard map.
        assert set(payload["nodes"]) == set(ALL_NODES)
        assert payload["missing"] == {}

    def test_slowlog_ids_paste_into_rls_trace(self, traced_cluster):
        smap, servers, tracer, cc, pairs = traced_cluster
        scatter_trace_id(tracer, cc)

        buf = io.StringIO()
        assert main(["slowlog", "--server", "dtr-s1"], out=buf) == 0
        entries = [
            line for line in buf.getvalue().splitlines() if "trace=" in line
        ]
        assert entries, buf.getvalue()
        linked = next(
            line for line in entries if "trace=- " not in line
        )
        trace_ref = linked.split("trace=")[1].split()[0]
        span_ref = linked.split("span=")[1].split()[0]
        assert trace_ref != "-" and span_ref != "-"

        # Both printed ids resolve: the trace id directly, the span id
        # through the server's resolve_trace.
        for ref in (trace_ref, span_ref):
            out = io.StringIO()
            assert main(["trace", "--server", "dtr-s1", ref], out=out) == 0
            assert f"trace {trace_ref}:" in out.getvalue()


class TestServerFanOut:
    def test_a_peer_reachable_only_over_tcp_is_stitched(self):
        """``admin_trace`` dials its peers as update sinks are: a peer whose
        in-process endpoint is closed is still reached at its registered
        TCP address, not reported missing."""
        tracer = Tracer(sink=SpanSink())
        install_tracer(tracer)
        smap = ShardMap(shards=("dtt-s0", "dtt-s1"))
        servers = [
            RLSServer(
                ServerConfig(
                    name=name,
                    role=ServerRole.LRC,
                    cluster=smap,
                    tcp=name == "dtt-s1",
                    sync_latency=0.0,
                )
            ).start()
            for name in smap.shards
        ]
        remote = servers[1]
        try:
            membership.DEFAULT.register_tcp("dtt-s1", *remote.tcp_address)
            remote.local_transport.close()
            with connect_tcp_server(*remote.tcp_address) as client:
                client.create("dtt-lfn", "pfn://dtt")
                with tracer.span("client.op") as root:
                    assert client.get_mappings("dtt-lfn") == ["pfn://dtt"]
            with connect("dtt-s0") as member:
                payload = member.trace(root.trace_id)
            assert payload["missing"] == {}
            assert set(payload["nodes"]) == {"dtt-s0", "dtt-s1"}
            handled = {
                s["tags"].get("node")
                for s in payload["spans"]
                if s["name"] == "rpc.handle"
            }
            assert "dtt-s1" in handled
            counters = remote.metrics.snapshot().counters
            assert counters["rpc.requests{method=admin_trace_fragments}"] == 1
        finally:
            membership.DEFAULT.unregister("dtt-s1")
            for server in servers:
                server.stop()
            install_tracer(None)


class TestConcurrentScatterCriticalPath:
    def test_tcp_scatter_path_covers_wall_time_once(self):
        """Over TCP a scatter's per-shard ``rpc.handle`` spans run
        alongside each other and beside the client's ``rpc.drain`` that
        waits for them: the critical path takes one of each overlapping
        group, walking into a handle inside the drain, so it sums to the
        root's wall time (one ``perf_counter`` clock in one process) and
        the server's time is not reported as network wait."""
        tracer = Tracer(sink=SpanSink())
        install_tracer(tracer)
        smap = ShardMap(shards=("dtc-s0", "dtc-s1"))
        servers = {
            name: RLSServer(
                ServerConfig(
                    name=name, role=ServerRole.LRC, cluster=smap,
                    tcp=True, sync_latency=0.0,
                )
            ).start()
            for name in smap.shards
        }
        try:
            cc = CombinedClient(
                smap,
                connect_fn=lambda n: connect_tcp_server(*servers[n].tcp_address),
            )
            pairs = [(f"dtr-lfn{i:03d}", f"pfn://dtc/{i}") for i in range(ENTRIES)]
            assert cc.bulk_create(pairs) == []
            sources = per_node_sources(tracer, nodes=smap.shards)
            for _ in range(20):
                payload = (
                    TraceAssembler(sources)
                    .assemble(scatter_trace_id(tracer, cc))
                    .to_dict()
                )
                assert abs(payload["coverage"] - 1.0) <= 0.05, payload["coverage"]
                kinds = {seg["kind"] for seg in payload["critical_path"]}
                assert {"net.wait", "server.handle"} <= kinds
                assert "rpc.drain" not in kinds
            cc.close()
        finally:
            for server in servers.values():
                server.stop()
            install_tracer(None)

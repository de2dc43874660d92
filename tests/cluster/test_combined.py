"""Combined routing client: owner routing, scatter-gather, failover."""

from __future__ import annotations

import random

import pytest

from repro.cluster.combined import CombinedClient, combined_from_server
from repro.cluster.ring import ShardMap
from repro.core.client import connect, connect_tcp_server
from repro.core.config import ServerConfig, ServerRole
from repro.core.errors import (
    MappingNotFoundError,
    ReadOnlyCatalogError,
    ShardRoutingError,
)
from repro.core.server import OP_CLASSES, RLSServer
from repro.net.errors import RemoteError
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def live_cluster():
    """2 shards x 1 mirror, started, preloaded, mirrors synced."""
    smap = ShardMap(
        shards=("cc-s0", "cc-s1"),
        mirrors={"cc-s0": ("cc-s0-m0",), "cc-s1": ("cc-s1-m0",)},
    )
    servers = {}
    for shard in smap.shards:
        for mirror in smap.mirrors_of(shard):
            servers[mirror] = RLSServer(
                ServerConfig(
                    name=mirror,
                    role=ServerRole.LRC,
                    mirror_of=shard,
                    cluster=smap,
                    sync_latency=0.0,
                )
            ).start()
        servers[shard] = RLSServer(
            ServerConfig(
                name=shard,
                role=ServerRole.LRC,
                mirrors=smap.mirrors_of(shard),
                cluster=smap,
                sync_latency=0.0,
            )
        ).start()
    cc = CombinedClient(smap, rng=random.Random(3))
    pairs = [(f"cc-lfn{i:03d}", f"pfn://cc/{i}") for i in range(60)]
    assert cc.bulk_create(pairs) == []
    for shard in smap.shards:
        connect(shard).mirror_sync()
    yield smap, servers, cc, pairs
    cc.close()
    for server in servers.values():
        server.stop()


class TestRouting:
    def test_write_lands_on_owner_only(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        cc.create("routed-1", "pfn://r1")
        owner = cc.owner("routed-1")
        other = next(s for s in smap.shards if s != owner)
        assert servers[owner].lrc.exists("routed-1")
        assert not servers[other].lrc.exists("routed-1")

    def test_bulk_groups_by_owner_and_merges_failures(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        # pairs already exist: every one must come back as a failure
        failures = cc.bulk_create(pairs[:10])
        assert len(failures) == 10
        assert {f[0] for f in failures} == {p[0] for p in pairs[:10]}

    def test_reads_prefer_mirrors(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        lfn, pfn = pairs[0]
        assert cc.get_mappings(lfn) == [pfn]
        owner = cc.owner(lfn)
        mirror = smap.mirrors_of(owner)[0]
        served = servers[mirror].rpc.requests_served
        assert served > 0, "mirror never served a request"

    def test_scatter_gather_wildcard(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        found = cc.query_wildcard("cc-lfn*")
        assert sorted(found) == sorted(pairs)

    def test_bulk_query_merges_shards(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        names = [p[0] for p in pairs[:20]] + ["cc-missing"]
        answer = cc.bulk_query(names)
        assert len(answer) == 20
        assert "cc-missing" not in answer

    def test_counts_sum_over_shards(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        assert cc.lfn_count() == len(pairs)
        assert cc.mapping_count() == len(pairs)
        per_shard = [servers[s].lrc.lfn_count() for s in smap.shards]
        assert all(count > 0 for count in per_shard), per_shard

    def test_rls_errors_propagate_not_failover(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        with pytest.raises(MappingNotFoundError):
            cc.delete("cc-never-existed", "pfn://none")
        assert all(h["healthy"] for h in cc.health().values())


class TestFailover:
    def test_mirror_death_fails_over_to_master(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        for shard in smap.shards:
            for mirror in smap.mirrors_of(shard):
                servers[mirror].stop()
        for lfn, pfn in pairs:
            assert cc.get_mappings(lfn) == [pfn]
        health = cc.health()
        assert any(
            not health[m]["healthy"]
            for s in smap.shards
            for m in smap.mirrors_of(s)
        )
        for shard in smap.shards:
            assert health[shard]["healthy"]

    def test_all_endpoints_down_raises_shard_routing_error(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        for server in servers.values():
            server.stop()
        with pytest.raises(ShardRoutingError):
            for lfn, _ in pairs:
                cc.get_mappings(lfn)

    def test_failover_metrics_counted(self, live_cluster):
        from repro.obs.metrics import MetricsRegistry

        smap, servers, cc, pairs = live_cluster
        registry = MetricsRegistry()
        client = CombinedClient(smap, metrics=registry, rng=random.Random(5))
        for shard in smap.shards:
            for mirror in smap.mirrors_of(shard):
                servers[mirror].stop()
        for lfn, pfn in pairs[:10]:
            assert client.get_mappings(lfn) == [pfn]
        counters = registry.snapshot().counters
        failovers = sum(
            count
            for key, count in counters.items()
            if key.startswith("cluster.failovers")
        )
        assert failovers > 0
        reads = sum(
            count
            for key, count in counters.items()
            if key.startswith("cluster.routes") and "kind=read" in key
        )
        assert reads == 10
        client.close()

    def test_scatter_fails_over_a_dead_mirror_once(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        registry = MetricsRegistry()
        client = CombinedClient(smap, metrics=registry, rng=random.Random(5))
        shard = smap.shards[0]
        servers[smap.mirrors_of(shard)[0]].stop()
        assert client.lfn_count() == len(pairs)
        counters = registry.snapshot().counters
        assert counters[f"cluster.failovers{{shard={shard}}}"] == 1
        assert f"cluster.failovers{{shard={smap.shards[1]}}}" not in counters
        client.close()

    def test_scatter_counts_a_dead_only_endpoint_once(self):
        """A mirror-less shard whose master is down costs each scatter one
        dial and one failover, so the bench backoff doubles per request."""
        smap = ShardMap(shards=("do-s0", "do-s1"))
        servers = {
            name: RLSServer(
                ServerConfig(
                    name=name, role=ServerRole.LRC, cluster=smap,
                    sync_latency=0.0,
                )
            ).start()
            for name in smap.shards
        }
        dials = []

        def connect_fn(name):
            dials.append(name)
            return connect(name)

        registry = MetricsRegistry()
        cc = CombinedClient(smap, connect_fn=connect_fn, metrics=registry)
        servers["do-s0"].stop()
        try:
            for calls in range(1, 4):
                with pytest.raises(ShardRoutingError):
                    cc.lfn_count()
                counters = registry.snapshot().counters
                assert counters["cluster.failovers{shard=do-s0}"] == calls
                assert dials.count("do-s0") == calls
                assert cc.health()["do-s0"]["consecutive_failures"] == calls
        finally:
            cc.close()
            servers["do-s1"].stop()

    def test_write_to_misconfigured_master_raises_typed_error(self):
        """A shard map pointing writes at a mirror surfaces the mirror's
        typed rejection unchanged (not a routing failure)."""
        master = RLSServer(
            ServerConfig(name="mc-master", role=ServerRole.LRC)
        ).start()
        mirror = RLSServer(
            ServerConfig(
                name="mc-mirror", role=ServerRole.LRC, mirror_of="mc-master"
            )
        ).start()
        try:
            bad_map = ShardMap(shards=("mc-mirror",))
            cc = CombinedClient(bad_map)
            with pytest.raises(ReadOnlyCatalogError):
                cc.create("w", "pfn://w")
            cc.close()
        finally:
            master.stop()
            mirror.stop()


class TestBootstrap:
    def test_combined_from_server(self, live_cluster):
        smap, servers, cc, pairs = live_cluster
        with connect(smap.shards[0]) as direct:
            booted = combined_from_server(direct)
        assert booted.shard_map() == smap
        lfn, pfn = pairs[0]
        assert booted.get_mappings(lfn) == [pfn]
        booted.close()

    def test_bootstrap_without_map_raises(self, make_server):
        server = make_server(ServerRole.LRC).start()
        with connect(server.config.name) as direct:
            with pytest.raises(ShardRoutingError):
                combined_from_server(direct)

    def test_empty_map_rejected(self):
        with pytest.raises(ShardRoutingError):
            CombinedClient(ShardMap(shards=()))


class TestALiveServersErrorIsItsAnswer:
    """A handler that raises an untyped error is the server answering:
    the client raises ``RemoteError`` and neither benches, re-dials nor
    counts a failover."""

    @pytest.fixture
    def faulty(self):
        smap = ShardMap(shards=("fe-s0", "fe-s1"))
        servers = {
            name: RLSServer(
                ServerConfig(
                    name=name, role=ServerRole.LRC, cluster=smap,
                    sync_latency=0.0,
                )
            ).start()
            for name in smap.shards
        }

        def boom(ctx, args):
            raise RuntimeError("handler bug")

        for method in ("lrc_get_mappings", "lrc_create_mapping", "lrc_lfn_count"):
            servers["fe-s0"].rpc.register(method, boom, OP_CLASSES[method])
        dials = []

        def connect_fn(name):
            dials.append(name)
            return connect(name)

        registry = MetricsRegistry()
        cc = CombinedClient(smap, connect_fn=connect_fn, metrics=registry)
        lfn = next(
            f"fe-lfn{i}" for i in range(100)
            if cc.owner(f"fe-lfn{i}") == "fe-s0"
        )
        yield cc, registry, dials, lfn
        cc.close()
        for server in servers.values():
            server.stop()

    @pytest.mark.parametrize(
        "call",
        [
            lambda cc, lfn: cc.get_mappings(lfn),
            lambda cc, lfn: cc.create(lfn, "pfn://fe"),
            lambda cc, lfn: cc.lfn_count(),
        ],
        ids=["get_mappings", "create", "lfn_count"],
    )
    def test_remote_error_propagates_without_failover(self, faulty, call):
        cc, registry, dials, lfn = faulty
        for _ in range(5):
            with pytest.raises(RemoteError) as err:
                call(cc, lfn)
            assert err.value.error_type == "RuntimeError"
        assert dials.count("fe-s0") == 1
        counters = registry.snapshot().counters
        assert not any(k.startswith("cluster.failovers") for k in counters)
        health = cc.health()["fe-s0"]
        assert health["healthy"] and health["failures"] == 0


@pytest.fixture
def tcp_cluster():
    """2 mirror-less shards over real TCP: the scatter's requests share
    one round trip."""
    smap = ShardMap(shards=("tc-s0", "tc-s1"), mirrors={})
    servers = {}
    for shard in smap.shards:
        servers[shard] = RLSServer(
            ServerConfig(
                name=shard,
                role=ServerRole.LRC,
                cluster=smap,
                sync_latency=0.0,
                tcp=True,
            )
        ).start()

    def connect_fn(name):
        host, port = servers[name].tcp_address
        return connect_tcp_server(host, port)

    cc = CombinedClient(smap, connect_fn=connect_fn, rng=random.Random(7))
    pairs = [(f"tc-lfn{i:03d}", f"pfn://tc/{i}") for i in range(40)]
    assert cc.bulk_create(pairs) == []
    yield smap, servers, cc, pairs
    cc.close()
    for server in servers.values():
        server.stop()


class TestPipelinedScatter:
    def test_scatter_uses_pipelined_connections(self, tcp_cluster):
        smap, servers, cc, pairs = tcp_cluster
        events = []

        def connect_fn(name):
            client = connect_tcp_server(*servers[name].tcp_address)
            rpc = client.rpc
            flush, drain = rpc.flush, rpc.drain
            rpc.flush = lambda: (events.append("flush"), flush())[1]
            rpc.drain = lambda: (events.append("drain"), drain())[1]
            return client

        served = {s: servers[s].rpc.requests_served for s in smap.shards}
        with CombinedClient(smap, connect_fn=connect_fn) as scatter:
            assert scatter.lfn_count() == len(pairs)
            # Every shard's request is on the wire before the client
            # waits for the first answer: the round trips overlap.
            assert events == ["flush", "flush", "drain", "drain"]
            assert all(h["healthy"] for h in scatter.health().values())
        for shard in smap.shards:
            assert servers[shard].rpc.requests_served == served[shard] + 1

    def test_wildcard_and_counts_match_serial_path(self, tcp_cluster):
        smap, servers, cc, pairs = tcp_cluster
        assert sorted(tuple(p) for p in cc.query_wildcard("tc-lfn*")) == sorted(
            pairs
        )
        assert cc.lfn_count() == len(pairs)
        assert cc.mapping_count() == len(pairs)
        # Ground truth straight from the shard catalogs.
        assert cc.lfn_count() == sum(
            servers[s].lrc.lfn_count() for s in smap.shards
        )

    def test_get_lfns_scatters_over_tcp(self, tcp_cluster):
        smap, servers, cc, pairs = tcp_cluster
        cc.create("shared-a", "pfn://shared")
        cc.add("shared-a", "pfn://shared2")
        assert sorted(cc.get_mappings("shared-a")) == [
            "pfn://shared",
            "pfn://shared2",
        ]

    @pytest.mark.parametrize(
        "method, call, answer",
        [
            ("lrc_get_mappings", lambda cc, old, new: cc.get_mappings(old),
             "pfn"),
            ("lrc_create_mapping",
             lambda cc, old, new: cc.create(new, "pfn://tc"), None),
            ("lrc_lfn_count", lambda cc, old, new: cc.lfn_count(), "count"),
        ],
        ids=["get_mappings", "create", "lfn_count"],
    )
    def test_rejected_frame_redials_without_benching(
        self, tcp_cluster, method, call, answer
    ):
        """A reply the server cannot encode is a connection-level failure:
        the server answers without a correlation id and hangs up.  The
        caller gets the answer, and the next call on the shard re-dials
        instead of failing on the dead connection."""
        smap, servers, _, pairs = tcp_cluster
        candidates = [p[0] for p in pairs] + [f"tc-new{i}" for i in range(99)]
        owned = [n for n in candidates if smap.ring().owner(n) == "tc-s0"]
        old, new = owned[0], owned[-1]
        pfn = dict(pairs)[old]
        expected = {"pfn": [pfn], "count": len(pairs), None: None}[answer]
        server = servers["tc-s0"]
        handler = server.rpc._methods[method][0]
        faults = [object()]

        def unencodable_once(ctx, args):
            return faults.pop() if faults else handler(ctx, args)

        server.rpc.register(method, unencodable_once, OP_CLASSES[method])
        dials = []

        def connect_fn(name):
            dials.append(name)
            return connect_tcp_server(*servers[name].tcp_address)

        registry = MetricsRegistry()
        with CombinedClient(
            smap, connect_fn=connect_fn, metrics=registry
        ) as cc:
            with pytest.raises(RemoteError) as err:
                call(cc, old, new)
            assert err.value.error_type == "TypeError"
            assert call(cc, old, new) == expected
            assert dials.count("tc-s0") == 2
            counters = registry.snapshot().counters
            assert not any(k.startswith("cluster.failovers") for k in counters)
            assert cc.health()["tc-s0"]["failures"] == 0

    def test_dead_shard_with_no_fallback_raises_routing_error(
        self, tcp_cluster
    ):
        smap, servers, cc, pairs = tcp_cluster
        servers["tc-s1"].stop()
        with pytest.raises(ShardRoutingError):
            cc.lfn_count()

"""Combined routing client: owner routing, scatter-gather, failover."""

from __future__ import annotations

import random

import pytest

from repro.cluster.combined import (
    RO_METHODS,
    WRITE_METHODS,
    CombinedClient,
    combined_from_server,
)
from repro.cluster.ring import ShardMap
from repro.core.client import connect
from repro.core.config import ServerConfig, ServerRole
from repro.core.errors import (
    MappingNotFoundError,
    ReadOnlyCatalogError,
    ShardRoutingError,
)
from repro.core.server import RLSServer


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


class TestMethodTables:
    def test_declared_methods_exist(self):
        for method in RO_METHODS + WRITE_METHODS:
            assert callable(getattr(CombinedClient, method)), method

    def test_tables_disjoint(self):
        assert not set(RO_METHODS) & set(WRITE_METHODS)


@pytest.fixture
def tcp_cluster():
    """2 mirror-less shards over real TCP: the pipelined scatter path."""
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

    from repro.core.client import connect_tcp_server

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
        # Every shard client connected over TCP, so it pipelines.
        for shard in smap.shards:
            assert cc._client(shard).rpc.pipelined
        assert cc._scatter_pipelined("lfn_count") is not None

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

    def test_dead_shard_with_no_fallback_raises_routing_error(
        self, tcp_cluster
    ):
        smap, servers, cc, pairs = tcp_cluster
        servers["tc-s1"].stop()
        with pytest.raises(ShardRoutingError):
            cc.lfn_count()

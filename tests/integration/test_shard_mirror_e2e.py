"""End-to-end shard + mirror smoke: a 2-shard, 2-mirror cluster serving a
combined client through the full server stack, with a mid-flight mirror
kill and failover to the shard master; and what a mirror replays besides
mappings (attributes, RLI registrations) while it writes nothing itself.
Run directly by CI."""

from __future__ import annotations

import io
import random

import pytest

from repro.cluster import CombinedClient, ShardMap
from repro.core.client import connect
from repro.core.config import ServerConfig, ServerRole
from repro.core.errors import ReadOnlyCatalogError
from repro.cli import main as rls
from repro.core.server import RLSServer

ENTRIES = 120


@pytest.fixture
def cluster():
    smap = ShardMap(
        shards=("e2e-s0", "e2e-s1"),
        mirrors={"e2e-s0": ("e2e-s0-m0",), "e2e-s1": ("e2e-s1-m0",)},
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
    yield smap, servers
    for server in servers.values():
        server.stop()


class TestShardMirrorEndToEnd:
    def test_full_lifecycle_with_mirror_failover(self, cluster):
        smap, servers = cluster
        pairs = [(f"e2e-lfn{i:04d}", f"pfn://e2e/{i}") for i in range(ENTRIES)]

        with CombinedClient(smap, rng=random.Random(42)) as cc:
            # 1. Writes spread over both shard masters.
            assert cc.bulk_create(pairs) == []
            per_shard = [servers[s].lrc.lfn_count() for s in smap.shards]
            assert sum(per_shard) == ENTRIES
            assert all(count > 0 for count in per_shard), per_shard

            # 2. Mirrors converge after an explicit sync.
            for shard in smap.shards:
                with connect(shard) as direct:
                    direct.mirror_sync()
            for shard in smap.shards:
                mirror = smap.mirrors_of(shard)[0]
                assert (
                    servers[mirror].lrc.lfn_count()
                    == servers[shard].lrc.lfn_count()
                )

            # 3. Reads are served (mirror-first) and answers are correct.
            for lfn, pfn in pairs[:40]:
                assert cc.get_mappings(lfn) == [pfn]
            mirror_served = sum(
                servers[m].rpc.requests_served
                for s in smap.shards
                for m in smap.mirrors_of(s)
            )
            assert mirror_served > 0

            # 4. Direct writes to a mirror are rejected with a typed error.
            with connect(smap.mirrors_of(smap.shards[0])[0]) as direct:
                with pytest.raises(ReadOnlyCatalogError):
                    direct.create("illegal", "pfn://illegal")

            # 5. Kill every mirror mid-read: reads fail over to the shard
            #    masters with zero failed operations.
            for shard in smap.shards:
                for mirror in smap.mirrors_of(shard):
                    servers[mirror].stop()
            for lfn, pfn in pairs:
                assert cc.get_mappings(lfn) == [pfn]
            health = cc.health()
            for shard in smap.shards:
                assert health[shard]["healthy"]
                assert not health[smap.mirrors_of(shard)[0]]["healthy"]

            # 6. Scatter-gather still spans the whole namespace.
            assert cc.lfn_count() == ENTRIES
            assert sorted(cc.query_wildcard("e2e-lfn*")) == sorted(pairs)

    def test_shard_map_served_over_admin_rpc(self, cluster):
        smap, servers = cluster
        with connect(smap.shards[0]) as direct:
            served = direct.shard_map()
        assert served["self"] == smap.shards[0]
        assert ShardMap.from_dict(served["shard_map"]) == smap

    def test_attributes_reach_mirrors(self, cluster):
        smap, servers = cluster
        with CombinedClient(smap, rng=random.Random(7)) as cc:
            cc.create("l1", "pfn://l1")
            cc.define_attribute("size", "lfn", "int")
            cc.add_attribute("l1", "size", "lfn", 42)
            for shard in smap.shards:
                with connect(shard) as direct:
                    direct.mirror_sync()
            mirror = servers[smap.mirrors_of(cc.owner("l1"))[0]]
            served = mirror.rpc.requests_served
            assert cc.get_attributes("l1", "lfn") == {"size": 42}
            assert mirror.rpc.requests_served > served  # read off the mirror
            assert cc.query_by_attribute("size", "lfn") == [("l1", 42)]

    def test_a_mirror_replays_rli_registrations_and_advertises_nothing(
        self, cluster
    ):
        smap, servers = cluster
        master = smap.shards[0]
        name = smap.mirrors_of(master)[0]
        rli = RLSServer(
            ServerConfig(name="e2e-rli", role=ServerRole.RLI, sync_latency=0.0)
        ).start()
        try:
            with connect(master) as direct:
                direct.create("advertised", "pfn://advertised")
                direct.add_rli("e2e-rli")
                direct.trigger_full_update()
                direct.mirror_sync()
            assert servers[name].update_manager is None
            with connect(name) as mirror:
                assert [r["name"] for r in mirror.list_rlis()] == ["e2e-rli"]
                for write in (
                    lambda: mirror.add_rli("e2e-other"),
                    lambda: mirror.remove_rli("e2e-rli"),
                ):
                    with pytest.raises(ReadOnlyCatalogError):
                        write()
                stats = mirror.stats()
            assert "updates" not in stats
            assert stats["mirror"]["applied_lsn"] > 0
            with connect("e2e-rli") as index:
                assert index.rli_lrc_list() == [master]
            for argv in (["stats", name], ["shards", "--server", name]):
                out = io.StringIO()
                assert rls(argv, out=out) == 0, out.getvalue()
            assert f"read-only mirror of {master}" in out.getvalue()
        finally:
            rli.stop()

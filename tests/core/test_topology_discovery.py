"""Topology builders (Giggle configurations) and robust discovery tests."""

import pytest

from repro.core import topology
from repro.core.discovery import ReplicaDiscovery
from repro.core.errors import MappingNotFoundError
from repro.core.membership import StaticMembership


def membership_for(deployment) -> StaticMembership:
    membership = StaticMembership()
    for server in deployment.servers:
        membership.register_local(server.config.name)
    return membership


class TestSingleRLI:
    def test_all_lrcs_feed_one_rli(self):
        with topology.single_rli("topo-single", num_lrcs=3) as dep:
            for i in range(3):
                client = dep.lrc_client(i)
                client.create(f"s-lfn{i}", f"pfn{i}")
                client.close()
            dep.push_all()
            rli = dep.rli_client()
            for i in range(3):
                assert rli.rli_query(f"s-lfn{i}") == [f"topo-single-lrc{i}"]
            assert len(rli.rli_lrc_list()) == 3
            rli.close()

    def test_bloom_variant(self):
        with topology.single_rli("topo-single-b", num_lrcs=2, bloom=True) as dep:
            client = dep.lrc_client(0)
            client.create("b-lfn", "p")
            client.close()
            dep.push_all()
            assert dep.rlis[0].rli.bloom_filter_count() == 2


class TestRedundant:
    def test_index_survives_rli_failure(self):
        with topology.redundant("topo-red", num_lrcs=2, num_rlis=3) as dep:
            client = dep.lrc_client(0)
            client.create("red-lfn", "p")
            client.close()
            dep.push_all()
            # Every RLI has the full index.
            for j in range(3):
                rli = dep.rli_client(j)
                assert rli.rli_query("red-lfn") == ["topo-red-lrc0"]
                rli.close()
            # Kill two RLIs; the third still answers.
            dep.rlis[0].stop()
            dep.rlis[1].stop()
            survivor = dep.rli_client(2)
            assert survivor.rli_query("red-lfn") == ["topo-red-lrc0"]
            survivor.close()


class TestPartitioned:
    def test_namespace_routed_to_matching_rli(self):
        partitions = [("runs", "^run/"), ("cal", "^cal/")]
        with topology.partitioned_by_namespace(
            "topo-part", num_lrcs=2, partitions=partitions
        ) as dep:
            client = dep.lrc_client(0)
            client.create("run/data1", "p1")
            client.create("cal/data2", "p2")
            client.close()
            dep.push_all()
            runs_rli = dep.rli_client(0)
            cal_rli = dep.rli_client(1)
            assert runs_rli.rli_query("run/data1") == ["topo-part-lrc0"]
            with pytest.raises(MappingNotFoundError):
                runs_rli.rli_query("cal/data2")
            assert cal_rli.rli_query("cal/data2") == ["topo-part-lrc0"]
            runs_rli.close()
            cal_rli.close()


class TestFullyConnected:
    def test_mesh_answers_anywhere(self):
        with topology.fully_connected("topo-mesh", num_nodes=3) as dep:
            client = dep.lrc_client(1)
            client.create("mesh-lfn", "p")
            client.close()
            dep.push_all()
            for i in range(3):
                rli = dep.rli_client(i)
                assert rli.rli_query("mesh-lfn") == ["topo-mesh-node1"]
                rli.close()


class TestHierarchical:
    def test_root_aggregates_leaves(self):
        with topology.hierarchical(
            "topo-tree", num_lrcs_per_leaf=2, num_leaves=2,
            forward_interval=1e9,  # forward manually via push_all
        ) as dep:
            # lrcs: leaf0-lrc0, leaf0-lrc1, leaf1-lrc0, leaf1-lrc1
            client = dep.lrc_client(3)
            client.create("tree-lfn", "p")
            client.close()
            dep.push_all()
            root = dep.rli_client(0)  # root is first
            assert root.rli_query("tree-lfn") == ["topo-tree-leaf1-lrc1"]
            root.close()


    def test_stop_reports_a_forwarder_that_did_not_exit(self):
        import threading

        from repro.obs.periodic import Periodic

        dep = topology.hierarchical(
            "topo-stuck", num_lrcs_per_leaf=1, num_leaves=1, forward_interval=0.01
        )
        _, task = dep.forwarders[0]
        entered, release = threading.Event(), threading.Event()
        task.fn = lambda: (entered.set(), release.wait(10.0))
        task.stop = lambda: Periodic.stop(task, 0.05)  # do not wait 5 s
        dep.start()
        try:
            assert entered.wait(5.0)
            with pytest.raises(RuntimeError, match="rli-hierarchy-topo-stuck-leaf0"):
                dep.stop()
            assert task.running  # still held: a second stop() joins it again
        finally:
            release.set()
        dep.stop()
        assert not task.running


class TestReplicaDiscovery:
    def test_discovers_across_sites(self):
        with topology.single_rli("disc", num_lrcs=3) as dep:
            for i in (0, 2):
                client = dep.lrc_client(i)
                client.create("shared-lfn", f"pfn-site{i}")
                client.close()
            dep.push_all()
            discovery = ReplicaDiscovery(
                membership_for(dep), rli_names=["disc-rli"]
            )
            result = discovery.discover("shared-lfn")
            assert sorted(result.replicas) == ["pfn-site0", "pfn-site2"]
            assert result.false_candidates == []
            assert set(result.by_lrc) == {"disc-lrc0", "disc-lrc2"}

    def test_recovers_from_stale_rli_pointer(self):
        with topology.single_rli("disc-stale", num_lrcs=2) as dep:
            for i in range(2):
                client = dep.lrc_client(i)
                client.create("volatile", f"pfn{i}")
                client.close()
            dep.push_all()
            # Delete from lrc0 but do not push: RLI now stale.
            client = dep.lrc_client(0)
            client.delete("volatile", "pfn0")
            client.close()
            discovery = ReplicaDiscovery(
                membership_for(dep), rli_names=["disc-stale-rli"]
            )
            result = discovery.discover("volatile")
            assert result.replicas == ["pfn1"]
            assert result.false_candidates == ["disc-stale-lrc0"]

    def test_tolerates_dead_lrc(self):
        with topology.single_rli("disc-dead", num_lrcs=2) as dep:
            for i in range(2):
                client = dep.lrc_client(i)
                client.create("half-dead", f"pfn{i}")
                client.close()
            dep.push_all()
            dep.lrcs[0].stop()
            discovery = ReplicaDiscovery(
                membership_for(dep), rli_names=["disc-dead-rli"]
            )
            result = discovery.discover("half-dead")
            assert result.replicas == ["pfn1"]
            assert result.unreachable == ["disc-dead-lrc0"]

    def test_discover_any_and_missing(self):
        with topology.single_rli("disc-any", num_lrcs=1) as dep:
            client = dep.lrc_client(0)
            client.create("exists", "pfn")
            client.close()
            dep.push_all()
            discovery = ReplicaDiscovery(
                membership_for(dep), rli_names=["disc-any-rli"]
            )
            assert discovery.discover_any("exists") == "pfn"
            with pytest.raises(MappingNotFoundError):
                discovery.discover_any("missing")

    def test_bulk_discovery(self):
        with topology.single_rli("disc-bulk", num_lrcs=1) as dep:
            client = dep.lrc_client(0)
            client.bulk_create([(f"bk{i}", f"p{i}") for i in range(5)])
            client.close()
            dep.push_all()
            discovery = ReplicaDiscovery(
                membership_for(dep), rli_names=["disc-bulk-rli"]
            )
            results = discovery.discover_bulk(["bk0", "bk3", "nope"])
            assert results["bk0"].replicas == ["p0"]
            assert results["bk3"].replicas == ["p3"]
            assert not results["nope"].found

    def test_requires_rli(self):
        with pytest.raises(ValueError):
            ReplicaDiscovery(StaticMembership(), rli_names=[])

    def test_merges_candidates_from_multiple_rlis(self):
        with topology.redundant("disc-multi", num_lrcs=2, num_rlis=2,
                                bloom=False) as dep:
            client = dep.lrc_client(1)
            client.create("multi-lfn", "pfn-multi")
            client.close()
            dep.push_all()
            discovery = ReplicaDiscovery(
                membership_for(dep),
                rli_names=["disc-multi-rli0", "disc-multi-rli1"],
            )
            result = discovery.discover("multi-lfn")
            assert result.replicas == ["pfn-multi"]
            # One RLI dying does not break discovery.
            dep.rlis[0].stop()
            result = discovery.discover("multi-lfn")
            assert result.replicas == ["pfn-multi"]

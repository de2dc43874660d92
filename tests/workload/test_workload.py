"""Workload generators, load driver, and trial statistics."""

import pytest

from repro.core.client import connect
from repro.core.config import ServerRole
from repro.workload.driver import LoadDriver
from repro.workload.names import (
    MappingSet,
    esg_names,
    ligo_names,
    pegasus_names,
    pfn_for,
    sequential_names,
)
from repro.workload.scenarios import (
    loaded_lrc_server,
    loaded_rli_server_bloom,
    loaded_rli_server_uncompressed,
)
from repro.workload.stats import summarize


class TestNameGenerators:
    def test_sequential_deterministic_and_unique(self):
        names = sequential_names(100)
        assert names == sequential_names(100)
        assert len(set(names)) == 100

    def test_sequential_start_offset(self):
        assert sequential_names(2, start=5)[0] == "lfn000000005"

    def test_ligo_shape(self):
        names = ligo_names(6)
        assert all(n.endswith(".gwf") for n in names)
        assert names[0].startswith("H1-") and names[1].startswith("L1-")
        assert len(set(names)) == 6

    def test_esg_shape(self):
        names = esg_names(10)
        assert all(n.endswith(".nc") for n in names)
        assert len(set(names)) == 10

    def test_pegasus_shape(self):
        names = pegasus_names(8)
        assert all(n.startswith("montage/job") for n in names)
        assert len(set(names)) == 8

    def test_pfn_deterministic(self):
        assert pfn_for("lfn1", "siteA", 2) == pfn_for("lfn1", "siteA", 2)
        assert pfn_for("lfn1", "siteA", 1) != pfn_for("lfn1", "siteA", 2)


class TestMappingSet:
    def test_pairs_count(self):
        ms = MappingSet(count=10, replicas=3)
        assert len(list(ms.pairs())) == 30

    def test_random_lfns_within_range(self):
        ms = MappingSet(count=100)
        sample = ms.random_lfns(50, seed=1)
        lfns = set(ms.lfns())
        assert all(name in lfns for name in sample)

    def test_random_lfns_seeded(self):
        ms = MappingSet(count=100)
        assert ms.random_lfns(10, seed=7) == ms.random_lfns(10, seed=7)


class TestTrialStats:
    def test_mean_and_stdev(self):
        stats = summarize([10.0, 12.0, 14.0])
        assert stats.mean == 12.0
        assert stats.stdev == pytest.approx(2.0)
        assert stats.minimum == 10.0 and stats.maximum == 14.0

    def test_single_trial_zero_stdev(self):
        assert summarize([5.0]).stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestLoadDriver:
    def test_query_load(self, make_server):
        server = make_server(ServerRole.LRC)
        client = connect(server.config.name)
        client.bulk_create([(f"l{i}", f"p{i}") for i in range(20)])
        client.close()
        driver = LoadDriver(
            server_name=server.config.name,
            clients=2,
            threads_per_client=3,
            total_operations=120,
        )
        lfns = [f"l{i}" for i in range(20)]
        result = driver.run(LoadDriver.query_op(lfns))
        assert result.operations == 120
        assert result.errors == 0
        assert result.rate > 0
        assert len(result.per_thread_ops) == 6

    def test_add_load_unique_indexes(self, make_server):
        server = make_server(ServerRole.LRC)
        lfns = [f"add{i}" for i in range(60)]
        driver = LoadDriver(
            server_name=server.config.name,
            clients=1,
            threads_per_client=4,
            total_operations=60,
        )
        result = driver.run(LoadDriver.add_op(lfns, lambda l: f"pfn-{l}"))
        assert result.errors == 0
        assert server.lrc.lfn_count() == 60

    def test_errors_counted_not_fatal(self, make_server):
        server = make_server(ServerRole.LRC)
        driver = LoadDriver(
            server_name=server.config.name,
            clients=1,
            threads_per_client=2,
            total_operations=10,
        )
        result = driver.run(LoadDriver.query_op(["missing"]))  # all raise
        assert result.errors == 10
        assert result.operations == 10

    def test_uneven_split_covers_all_ops(self, make_server):
        server = make_server(ServerRole.LRC)
        connect(server.config.name).bulk_create([("x", "p")])
        driver = LoadDriver(
            server_name=server.config.name,
            clients=1,
            threads_per_client=3,
            total_operations=10,  # 10 = 4+3+3
        )
        result = driver.run(LoadDriver.query_op(["x"]))
        assert result.operations == 10
        assert sorted(result.per_thread_ops) == [3, 3, 4]

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            LoadDriver(server_name="x", clients=0, threads_per_client=0).run(
                lambda c, i: None
            )


class TestScenarios:
    def test_loaded_lrc(self):
        server, mappings = loaded_lrc_server(50, name="scenario-lrc")
        try:
            assert server.lrc.lfn_count() == 50
            lfn = mappings.lfns()[7]
            assert server.lrc.get_mappings(lfn)
        finally:
            server.stop()

    def test_loaded_lrc_with_replicas(self):
        server, mappings = loaded_lrc_server(
            10, name="scenario-lrc-r", replicas=3, sync_latency=0.0
        )
        try:
            assert server.lrc.mapping_count() == 30
        finally:
            server.stop()

    def test_loaded_lrc_flush_applied_after_load(self):
        server, _ = loaded_lrc_server(
            5, name="scenario-flush", flush_on_commit=True, sync_latency=0.0
        )
        try:
            assert server.engine.flush_on_commit
        finally:
            server.stop()

    def test_loaded_rli_uncompressed(self):
        server, lfns = loaded_rli_server_uncompressed(
            30, num_lrcs=3, name="scenario-rli"
        )
        try:
            assert len(server.rli.query(lfns[0])) == 3
        finally:
            server.stop()

    def test_loaded_rli_bloom(self):
        server, lfns = loaded_rli_server_bloom(
            100, num_filters=4, name="scenario-rli-b"
        )
        try:
            assert server.rli.bloom_filter_count() == 4
            assert len(server.rli.query(lfns[0])) == 4
        finally:
            server.stop()

"""Bulk loading must match the slow paths: the LRC's out-of-band bulk_load
against SQL, and an RLI loaded by one full per LRC against normal state."""

import pytest

from repro.core.errors import MappingNotFoundError
from repro.core.lrc import LocalReplicaCatalog
from repro.core.rli import ReplicaLocationIndex
from repro.core.updates import UpdateManager
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from tests.db._log import durable_records


@pytest.fixture
def lrc():
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    catalog = LocalReplicaCatalog(Connection(engine, "bl"), name="bl")
    catalog.init_schema()
    return catalog


@pytest.fixture
def rli():
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    index = ReplicaLocationIndex(Connection(engine, "blr"), name="blr")
    index.init_schema()
    return index


class TestLRCBulkLoad:
    def test_equivalent_to_create(self, lrc):
        lrc.bulk_load([("a", "p1"), ("b", "p2")])
        assert lrc.get_mappings("a") == ["p1"]
        assert lrc.lfn_count() == 2 and lrc.mapping_count() == 2

    def test_replicas_and_shared_pfns(self, lrc):
        lrc.bulk_load([("a", "p1"), ("a", "p2"), ("b", "p1")])
        assert sorted(lrc.get_mappings("a")) == ["p1", "p2"]
        assert sorted(lrc.get_lfns("p1")) == ["a", "b"]
        assert lrc.mapping_count() == 3

    def test_ref_counts_allow_normal_deletes_afterwards(self, lrc):
        """The subtle contract: loaded rows must carry correct ref counts
        so the regular delete path prunes exactly when it should."""
        lrc.bulk_load([("a", "p1"), ("a", "p2"), ("b", "p1")])
        lrc.delete_mapping("a", "p1")
        assert lrc.get_mappings("a") == ["p2"]   # a survives
        assert lrc.get_lfns("p1") == ["b"]       # p1 survives (b uses it)
        lrc.delete_mapping("b", "p1")
        with pytest.raises(MappingNotFoundError):
            lrc.get_lfns("p1")                   # now pruned
        lrc.delete_mapping("a", "p2")
        assert lrc.lfn_count() == 0

    def test_listeners_notified_for_new_lfns_only(self, lrc):
        """bulk_load logs no row: the checkpoint it ends with owes every
        registered RLI a full, and the counting filter is rebuilt."""
        lrc.create_mapping("pre", "p0")
        lrc.add_rli("rel")
        lrc.add_rli("bloom", bloom=True)
        sent = {"rel": [], "bloom": []}

        class Recording:
            def __init__(self, name):
                self.name = name

            def full_update(self, lrc_name, lfns):
                sent[self.name].append(sorted(lfns))

            def bloom_update(self, lrc_name, bitmap, *shape):
                sent[self.name].append(bitmap)

        manager = UpdateManager(lrc, Recording)
        manager.rebuild_bloom()
        lrc.bulk_load([("pre", "p-extra"), ("new1", "p1"), ("new2", "p2")])
        assert manager.tick() == ["retry:rel", "retry:bloom"]
        assert sent["rel"] == [["new1", "new2", "pre"]]
        assert sent["bloom"] == [manager.bloom.snapshot().to_bytes()]
        assert all(name in manager.bloom for name in ("pre", "new1", "new2"))
        assert manager.bloom.entries == 3

    def test_mix_with_existing_rows(self, lrc):
        lrc.create_mapping("old", "p-old")
        lrc.bulk_load([("old", "p-new"), ("fresh", "p-old")])
        assert sorted(lrc.get_mappings("old")) == ["p-new", "p-old"]
        assert sorted(lrc.get_lfns("p-old")) == ["fresh", "old"]

    def test_validates_names(self, lrc):
        with pytest.raises(Exception):
            lrc.bulk_load([("", "p")])

    def test_returns_count(self, lrc):
        assert lrc.bulk_load([("a", "p"), ("b", "q")]) == 2

    def test_queries_through_sql_layer_see_loaded_rows(self, lrc):
        """bulk_load bypasses SQL but must stay visible to it (indexes!)."""
        lrc.bulk_load([(f"w{i}", f"p{i}") for i in range(20)])
        assert len(lrc.query_wildcard("w1*")) == 11  # w1, w10..w19

    def test_the_wal_recovers_a_loaded_catalog(self, lrc):
        """bulk_load logs no row, so it ends with a checkpoint: the log
        is the loaded catalog's image, then what was written after."""
        lrc.bulk_load([(f"lfn-{i}", f"pfn-{i % 700}") for i in range(5_000)])
        lrc.create_mapping("new", "pfn-new")
        lrc.add_mapping("lfn-1", "pfn-new")
        lrc.delete_mapping("lfn-2", "pfn-2")
        lrc.delete_mapping("lfn-3", "pfn-3")
        engine = lrc.conn.database
        engine.wal.flush()
        twin = LocalReplicaCatalog(
            Connection(MySQLEngine(flush_on_commit=False, sync_latency=0.0), "bl2"),
            name="bl2",
        )
        twin.init_schema()
        twin.conn.database.apply_records(durable_records(engine.wal))
        for name in ("t_lfn", "t_pfn", "t_map"):
            assert sorted(row for _rid, row in twin.conn.database.table(name).scan()) == (
                sorted(row for _rid, row in engine.table(name).scan())
            )
        assert twin.mapping_count() == 5_000 + 1 + 1 - 2
        assert twin.verify_integrity() == []


class TestRLIBulkLoad:
    """The RLI has no separate bulk path: scenarios load it with one
    apply_full_update per LRC, and what that loads behaves like any entry."""

    def test_equivalent_to_full_update(self, rli):
        rli.apply_full_update("lrcA", ["x", "y"])
        assert rli.query("x") == ["lrcA"]
        assert rli.mapping_count() == 2

    def test_idempotent_per_pair(self, rli):
        rli.apply_full_update("lrcA", ["x"])
        rli.apply_full_update("lrcA", ["x"])
        assert rli.mapping_count() == 1

    def test_multiple_lrcs(self, rli):
        rli.apply_full_update("lrcA", ["x"])
        rli.apply_full_update("lrcB", ["x", "y"])
        assert sorted(rli.query("x")) == ["lrcA", "lrcB"]

    def test_entries_expire_like_normal_ones(self, rli):
        rli.timeout = 0.0
        rli.apply_full_update("lrcA", ["ttl"])
        assert rli.expire_once() == 1

    def test_incremental_remove_works_after_load(self, rli):
        rli.apply_full_update("lrcA", ["x", "y"])
        rli.apply_incremental_update("lrcA", [], ["x"])
        with pytest.raises(MappingNotFoundError):
            rli.query("x")
        assert rli.query("y") == ["lrcA"]

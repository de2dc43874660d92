"""Vectorized bulk-operation parity: batched SQL must match serial semantics.

``bulk_create``/``bulk_delete``/``bulk_query`` now run chunked IN-list
probes and multi-row INSERTs instead of replaying the single-pair code
path per element.  These tests pin the observable contract to the serial
path: per-pair failure strings, reference counts, orphan pruning,
attribute cleanup, and the logical-name changes the log carries.
"""

import pytest

from repro.core.lrc import (
    AttrType,
    LocalReplicaCatalog,
    ObjType,
    _IN_CHUNK,
    _SMALL_IN_CHUNK,
    _in_chunks,
)
from repro.core.updates import UpdateManager
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.postgres_engine import PostgresEngine
from repro.testing.faults import NullSink


@pytest.fixture(params=["mysql", "postgresql"])
def lrc(request):
    if request.param == "mysql":
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    else:
        engine = PostgresEngine(fsync=False, sync_latency=0.0)
    catalog = LocalReplicaCatalog(Connection(engine, "bulkv"), name="bulkv")
    catalog.init_schema()
    return catalog


def serial_reference(lrc_factory, pairs_create, pairs_delete):
    """Ground truth: run the same workload through the per-pair methods."""
    lrc = lrc_factory()
    create_failures = lrc._bulk_apply(pairs_create, lrc.create_mapping)
    delete_failures = lrc._bulk_apply(pairs_delete, lrc.delete_mapping)
    return lrc, create_failures, delete_failures


class TestInChunks:
    def test_small_lists_use_small_chunk(self):
        chunks = list(_in_chunks(list(range(5))))
        assert len(chunks) == 1 and len(chunks[0]) == _SMALL_IN_CHUNK
        # Padding repeats the last element (IN dedups, semantically free).
        assert chunks[0][:5] == [0, 1, 2, 3, 4]
        assert set(chunks[0][5:]) == {4}

    def test_large_lists_use_fixed_chunk(self):
        values = list(range(_IN_CHUNK + 3))
        chunks = list(_in_chunks(values))
        assert [len(c) for c in chunks] == [_IN_CHUNK, _IN_CHUNK]
        assert chunks[1][:3] == [_IN_CHUNK, _IN_CHUNK + 1, _IN_CHUNK + 2]

    def test_empty(self):
        assert list(_in_chunks([])) == []


class TestBulkCreateParity:
    def test_duplicate_inside_batch_fails_like_serial(self, lrc):
        failures = lrc.bulk_create(
            [("a", "p1"), ("a", "p2"), ("b", "p3")]
        )
        assert len(failures) == 1
        lfn, pfn, why = failures[0]
        assert (lfn, pfn) == ("a", "p2")
        assert "MappingExistsError" in why and "a" in why
        # First writer won, exactly as the serial loop would have it.
        assert lrc.get_mappings("a") == ["p1"]

    def test_preexisting_name_fails(self, lrc):
        lrc.create_mapping("old", "p0")
        failures = lrc.bulk_create([("old", "px"), ("new", "py")])
        assert [(f[0], f[1]) for f in failures] == [("old", "px")]
        assert lrc.get_mappings("new") == ["py"]

    def test_invalid_names_fail_per_pair(self, lrc):
        failures = lrc.bulk_create([("", "p"), ("ok", "p"), ("x", "")])
        assert len(failures) == 2
        assert all("InvalidNameError" in f[2] for f in failures)
        assert lrc.get_mappings("ok") == ["p"]

    def test_shared_pfn_refcounts(self, lrc):
        lrc.bulk_create([(f"l{i}", "shared") for i in range(10)])
        assert sorted(lrc.get_lfns("shared")) == sorted(
            f"l{i}" for i in range(10)
        )
        # Deleting all but one must keep the shared target row alive.
        lrc.bulk_delete([(f"l{i}", "shared") for i in range(9)])
        assert lrc.get_lfns("shared") == ["l9"]

    def test_large_batch_crosses_chunk_boundaries(self, lrc):
        n = _IN_CHUNK + 40
        failures = lrc.bulk_create([(f"l{i}", f"p{i}") for i in range(n)])
        assert failures == []
        assert lrc.lfn_count() == n
        result = lrc.bulk_query([f"l{i}" for i in range(n)])
        assert len(result) == n and result["l0"] == ["p0"]

    def test_notifications_fire_per_created_pair(self, lrc):
        lrc.add_rli("watcher")  # so the update manager reads the log
        manager = UpdateManager(lrc, lambda name: NullSink())
        lrc.bulk_create([("n1", "p1"), ("n1", "dup"), ("n2", "p2")])
        assert list(manager.pending().items()) == [("n1", True), ("n2", True)]


class TestBulkDeleteParity:
    def test_missing_and_duplicate_pairs_fail(self, lrc):
        lrc.bulk_create([("a", "p1"), ("b", "p2")])
        failures = lrc.bulk_delete(
            [("a", "p1"), ("a", "p1"), ("ghost", "p9")]
        )
        assert len(failures) == 2
        why = {(f[0], f[1]): f[2] for f in failures}
        # Second delete of the same pair fails like the serial path.
        assert "MappingNotFoundError" in why[("a", "p1")]
        assert "MappingNotFoundError" in why[("ghost", "p9")]
        assert lrc.get_mappings("b") == ["p2"]

    def test_partial_delete_keeps_remaining_replicas(self, lrc):
        lrc.create_mapping("multi", "p1")
        lrc.add_mapping("multi", "p2")
        lrc.add_mapping("multi", "p3")
        assert lrc.bulk_delete([("multi", "p2")]) == []
        assert sorted(lrc.get_mappings("multi")) == ["p1", "p3"]

    def test_orphan_attributes_pruned(self, lrc):
        lrc.create_mapping("attr-lfn", "attr-pfn")
        lrc.define_attribute("owner", ObjType.LFN, AttrType.STR)
        lrc.add_attribute("attr-lfn", "owner", ObjType.LFN, "me")
        assert lrc.bulk_delete([("attr-lfn", "attr-pfn"), ("x", "y")]) != []
        # The name row and its attribute values are gone; re-creating the
        # name starts clean rather than inheriting stale attributes.
        lrc.create_mapping("attr-lfn", "p-new")
        assert lrc.get_attributes("attr-lfn", ObjType.LFN) == {}

    def test_roundtrip_leaves_empty_catalog(self, lrc):
        pairs = [(f"l{i}", f"p{i % 7}") for i in range(120)]
        assert lrc.bulk_create(pairs) == []
        assert lrc.bulk_delete(pairs) == []
        assert lrc.lfn_count() == 0
        assert lrc.mapping_count() == 0

    def test_matches_serial_reference_run(self):
        def factory():
            engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
            cat = LocalReplicaCatalog(Connection(engine, "ref"), name="ref")
            cat.init_schema()
            return cat

        creates = [(f"l{i}", f"p{i % 3}") for i in range(20)]
        creates += [("l0", "dup-target"), ("", "bad")]
        deletes = [(f"l{i}", f"p{i % 3}") for i in range(0, 20, 2)]
        deletes += [("l2", "p2"), ("ghost", "p0")]  # dup + missing
        serial, serial_cf, serial_df = serial_reference(
            factory, creates, deletes
        )
        vector = factory()
        vector_cf = vector.bulk_create(creates)
        vector_df = vector.bulk_delete(deletes)
        assert vector_cf == serial_cf
        assert vector_df == serial_df
        lfns = [f"l{i}" for i in range(20)]
        assert vector.bulk_query(lfns) == serial.bulk_query(lfns)
        assert vector.lfn_count() == serial.lfn_count()
        assert vector.mapping_count() == serial.mapping_count()


class TestBulkQueryParity:
    def test_vectorized_matches_per_name_lookups(self, lrc):
        lrc.bulk_create([(f"q{i}", f"p{i % 4}") for i in range(30)])
        lrc.add_mapping("q0", "extra")
        names = [f"q{i}" for i in range(30)] + ["absent", "q0"]
        result = lrc.bulk_query(names)
        assert "absent" not in result
        assert sorted(result["q0"]) == ["extra", "p0"]
        for i in range(1, 30):
            assert result[f"q{i}"] == lrc.get_mappings(f"q{i}")

    def test_small_input_uses_serial_path(self, lrc):
        lrc.create_mapping("one", "p1")
        assert lrc.bulk_query(["one", "nope"]) == {"one": ["p1"]}

    def test_duplicate_names_in_request(self, lrc):
        lrc.bulk_create([("d1", "p"), ("d2", "p"), ("d3", "p")])
        result = lrc.bulk_query(["d1", "d1", "d2", "d1"])
        assert result == {"d1": ["p"], "d2": ["p"]}

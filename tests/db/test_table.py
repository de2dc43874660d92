"""Table-level tests: constraints, indexes, MVCC vs eager storage, vacuum."""

import pytest

from repro.db.errors import DBError, DuplicateKeyError, NoSuchIndexError
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import INT, VARCHAR


def make_table(eager=True) -> Table:
    schema = TableSchema(
        name="t",
        columns=[
            Column("id", INT, nullable=False, autoincrement=True),
            Column("name", VARCHAR(50), nullable=False),
            Column("ref", INT),
        ],
        primary_key=("id",),
        unique=[("name",)],
    )
    return Table(schema, eager_index_cleanup=eager)


class TestInsert:
    def test_autoincrement_assigned(self):
        t = make_table()
        rid1, row1 = t.insert({"name": "a"})
        rid2, row2 = t.insert({"name": "b"})
        assert row1[0] == 1 and row2[0] == 2

    def test_unique_violation(self):
        t = make_table()
        t.insert({"name": "a"})
        with pytest.raises(DuplicateKeyError):
            t.insert({"name": "a"})

    def test_pk_violation_on_explicit_id(self):
        t = make_table()
        t.insert({"id": 5, "name": "a"})
        with pytest.raises(DuplicateKeyError):
            t.insert({"id": 5, "name": "b"})

    def test_insert_maintains_indexes(self):
        t = make_table()
        t.insert({"name": "a", "ref": 1})
        assert len(t.lookup_equal(("name",), ("a",))) == 1


class TestDelete:
    def test_delete_removes_row(self):
        t = make_table()
        rid, _ = t.insert({"name": "a"})
        t.delete_rid(rid)
        assert t.row_count == 0
        assert t.lookup_equal(("name",), ("a",)) == []

    def test_eager_delete_reclaims(self):
        t = make_table(eager=True)
        rid, _ = t.insert({"name": "a"})
        t.delete_rid(rid)
        assert t.dead_tuple_count == 0
        # Name is reusable immediately.
        t.insert({"name": "a"})

    def test_mvcc_delete_leaves_dead_tuple(self):
        t = make_table(eager=False)
        rid, _ = t.insert({"name": "a"})
        t.delete_rid(rid)
        assert t.dead_tuple_count == 1
        # Reinsert works: uniqueness check filters dead entries.
        t.insert({"name": "a"})
        assert t.row_count == 1


class TestUpdate:
    def test_update_changes_value(self):
        t = make_table()
        rid, _ = t.insert({"name": "a", "ref": 1})
        new_rid, row = t.update_rid(rid, {"ref": 2})
        assert row[2] == 2
        assert t.lookup_equal(("name",), ("a",))[0][1][2] == 2

    def test_update_to_conflicting_unique_restores_row(self):
        t = make_table()
        t.insert({"name": "a"})
        rid, _ = t.insert({"name": "b"})
        with pytest.raises(DuplicateKeyError):
            t.update_rid(rid, {"name": "a"})
        # Old row restored.
        assert len(t.lookup_equal(("name",), ("b",))) == 1

    def test_update_same_unique_value_allowed(self):
        t = make_table()
        rid, _ = t.insert({"name": "a", "ref": 1})
        t.update_rid(rid, {"name": "a", "ref": 9})
        assert t.row_count == 1


class TestIndexes:
    def test_create_hash_index_backfills(self):
        t = make_table()
        t.insert({"name": "a", "ref": 7})
        t.create_hash_index("by_ref", ["ref"])
        assert len(t.lookup_equal(("ref",), (7,))) == 1

    def test_create_ordered_index_backfills(self):
        t = make_table()
        t.insert({"name": "abc"})
        t.insert({"name": "abd"})
        t.insert({"name": "xyz"})
        t.create_ordered_index("by_name", "name")
        assert len(t.prefix_index(t.find_ordered_index("name"), "ab")) == 2

    def test_duplicate_index_name_rejected(self):
        t = make_table()
        t.create_hash_index("i", ["ref"])
        with pytest.raises(DBError):
            t.create_ordered_index("i", "ref")

    def test_get_index_missing(self):
        with pytest.raises(NoSuchIndexError):
            make_table().get_index("nope")

    def test_lookup_without_index_falls_back_to_scan(self):
        t = make_table()
        t.insert({"name": "a", "ref": 3})
        assert len(t.lookup_equal(("ref",), (3,))) == 1


class TestVacuum:
    def test_vacuum_reclaims_dead_tuples(self):
        t = make_table(eager=False)
        rids = [t.insert({"name": f"n{i}"})[0] for i in range(10)]
        for rid in rids:
            t.delete_rid(rid)
        assert t.dead_tuple_count == 10
        assert t.vacuum() == 10
        assert t.dead_tuple_count == 0

    def test_vacuum_removes_dead_index_entries(self):
        t = make_table(eager=False)
        rid, _ = t.insert({"name": "a"})
        t.delete_rid(rid)
        t.insert({"name": "a"})
        before = t.stats.dead_index_hits
        t.vacuum()
        t.lookup_equal(("name",), ("a",))
        # After vacuum the lookup hits no dead entries.
        assert t.stats.dead_index_hits == before

    def test_dead_index_hits_grow_with_churn(self):
        """The mechanism behind the paper's Figure 8 sawtooth."""
        t = make_table(eager=False)
        for round_no in range(5):
            rid, _ = t.insert({"name": "hot"})
            t.delete_rid(rid)
        t.insert({"name": "hot"})
        # The final insert had to skip 5 dead entries for key "hot".
        assert t.stats.dead_index_hits >= 5

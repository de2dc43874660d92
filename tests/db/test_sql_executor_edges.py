"""Executor edge cases: composite-key paths, DISTINCT over joins,
parameterized IN, NULL handling, multi-row semantics."""

import pytest

from repro.db.engine import Database
from repro.db.errors import SQLSyntaxError


@pytest.fixture
def db():
    database = Database("edge")
    database.execute(
        "CREATE TABLE t_map (lfn_id INT NOT NULL, pfn_id INT NOT NULL, "
        "PRIMARY KEY (lfn_id, pfn_id))"
    )
    database.execute("CREATE INDEX m_lfn ON t_map (lfn_id)")
    database.execute(
        "CREATE TABLE t_lfn (id INT NOT NULL AUTO_INCREMENT, "
        "name VARCHAR(100) NOT NULL, ref INT, PRIMARY KEY (id))"
    )
    return database


class TestCompositeKeyAccess:
    def test_composite_equality_uses_pk_index(self, db):
        for lfn in range(5):
            for pfn in range(3):
                db.execute(
                    "INSERT INTO t_map (lfn_id, pfn_id) VALUES (?, ?)",
                    [lfn, pfn],
                )
        rows = db.execute(
            "SELECT lfn_id FROM t_map WHERE lfn_id = ? AND pfn_id = ?", [3, 2]
        ).rows
        assert rows == [(3,)]
        plan = db.execute(
            "EXPLAIN SELECT lfn_id FROM t_map WHERE lfn_id = ? AND pfn_id = ?",
            [3, 2],
        ).rows
        assert "hash index lookup t_map(lfn_id, pfn_id)" in plan[0][0]

    def test_partial_composite_uses_single_column_index(self, db):
        db.execute("INSERT INTO t_map (lfn_id, pfn_id) VALUES (7, 1), (7, 2)")
        rows = db.execute(
            "SELECT pfn_id FROM t_map WHERE lfn_id = ?", [7]
        ).rows
        assert sorted(r[0] for r in rows) == [1, 2]
        plan = db.execute(
            "EXPLAIN SELECT pfn_id FROM t_map WHERE lfn_id = ?", [7]
        ).rows
        assert "hash index lookup t_map(lfn_id)" in plan[0][0]


class TestDistinctAndAliases:
    def test_distinct_over_join(self, db):
        db.execute("INSERT INTO t_lfn (name, ref) VALUES ('a', 1), ('b', 1)")
        db.execute(
            "INSERT INTO t_map (lfn_id, pfn_id) VALUES (1, 10), (1, 11), (2, 10)"
        )
        rows = db.execute(
            "SELECT DISTINCT m.pfn_id FROM t_lfn l "
            "JOIN t_map m ON l.id = m.lfn_id"
        ).rows
        assert sorted(r[0] for r in rows) == [10, 11]

    def test_column_alias_in_output(self, db):
        db.execute("INSERT INTO t_lfn (name, ref) VALUES ('x', 9)")
        result = db.execute("SELECT ref AS weight FROM t_lfn")
        assert result.columns == ["weight"]

    def test_order_by_alias(self, db):
        db.execute(
            "INSERT INTO t_lfn (name, ref) VALUES ('a', 3), ('b', 1), ('c', 2)"
        )
        rows = db.execute(
            "SELECT name, ref AS weight FROM t_lfn ORDER BY weight"
        ).rows
        assert [r[0] for r in rows] == ["b", "c", "a"]


class TestParameterizedPredicates:
    def test_in_with_params(self, db):
        db.execute(
            "INSERT INTO t_lfn (name, ref) VALUES ('a', 1), ('b', 2), ('c', 3)"
        )
        rows = db.execute(
            "SELECT name FROM t_lfn WHERE ref IN (?, ?)", [1, 3]
        ).rows
        assert sorted(r[0] for r in rows) == ["a", "c"]

    def test_like_with_param_prefix(self, db):
        db.execute("INSERT INTO t_lfn (name, ref) VALUES ('run/a', 1)")
        db.execute("INSERT INTO t_lfn (name, ref) VALUES ('cal/b', 1)")
        rows = db.execute(
            "SELECT name FROM t_lfn WHERE name LIKE ?", ["run/%"]
        ).rows
        assert rows == [("run/a",)]

    def test_mixed_literal_and_param(self, db):
        db.execute("INSERT INTO t_lfn (name, ref) VALUES ('a', 5)")
        rows = db.execute(
            "SELECT name FROM t_lfn WHERE ref > 1 AND name = ?", ["a"]
        ).rows
        assert rows == [("a",)]


class TestNullSemantics:
    def test_null_not_equal_to_null(self, db):
        db.execute("INSERT INTO t_lfn (name) VALUES ('n1'), ('n2')")  # ref NULL
        rows = db.execute(
            "SELECT COUNT(*) FROM t_lfn WHERE ref = ref"
        ).scalar()
        # NULL = NULL is not true in SQL.
        assert rows == 0

    def test_order_by_with_nulls(self, db):
        db.execute("INSERT INTO t_lfn (name, ref) VALUES ('a', 2)")
        db.execute("INSERT INTO t_lfn (name) VALUES ('b')")
        db.execute("INSERT INTO t_lfn (name, ref) VALUES ('c', 1)")
        rows = db.execute("SELECT name FROM t_lfn ORDER BY ref").rows
        # NULLs sort last in this dialect.
        assert [r[0] for r in rows] == ["c", "a", "b"]


class TestMultiRowAndErrors:
    def test_multi_row_insert_rowcount(self, db):
        result = db.execute(
            "INSERT INTO t_map (lfn_id, pfn_id) VALUES (1, 1), (1, 2), (2, 1)"
        )
        assert result.rowcount == 3

    def test_update_multiple_rows(self, db):
        db.execute(
            "INSERT INTO t_lfn (name, ref) VALUES ('a', 1), ('b', 1), ('c', 2)"
        )
        count = db.execute("UPDATE t_lfn SET ref = 9 WHERE ref = 1").rowcount
        assert count == 2

    def test_count_with_where(self, db):
        db.execute(
            "INSERT INTO t_lfn (name, ref) VALUES ('a', 1), ('b', 2), ('c', 2)"
        )
        assert db.execute(
            "SELECT COUNT(*) FROM t_lfn WHERE ref = 2"
        ).scalar() == 2

    def test_insert_expression_rejected(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("INSERT INTO t_lfn (name, ref) VALUES ('a', ref)")


class TestInListProbe:
    """The executor builds a constant-time set per IN list (built once per
    statement); these pin its semantics to the row-at-a-time scan."""

    def _fill(self, db, n=40):
        for i in range(n):
            db.execute(
                "INSERT INTO t_lfn (name, ref) VALUES (?, ?)",
                [f"lfn{i}", i % 10],
            )

    def test_large_literal_in_list(self, db):
        self._fill(db)
        wanted = ", ".join(f"'lfn{i}'" for i in range(0, 40, 3))
        rows = db.execute(
            f"SELECT name FROM t_lfn WHERE name IN ({wanted})"
        ).rows
        assert sorted(r[0] for r in rows) == sorted(
            f"lfn{i}" for i in range(0, 40, 3)
        )

    def test_parameterized_in_list_rebinds_per_execution(self, db):
        self._fill(db, 10)
        sql = "SELECT name FROM t_lfn WHERE ref IN (?, ?)"
        first = db.execute(sql, [1, 2]).rows
        second = db.execute(sql, [7, 8]).rows
        # Same cached statement, different params: the probe set must be
        # rebuilt per execution, not remembered from the first run.
        assert sorted(r[0] for r in first) == ["lfn1", "lfn2"]
        assert sorted(r[0] for r in second) == ["lfn7", "lfn8"]

    def test_duplicate_and_padded_items(self, db):
        self._fill(db, 5)
        rows = db.execute(
            "SELECT name FROM t_lfn WHERE name IN "
            "('lfn1', 'lfn1', 'lfn1', 'lfn3')"
        ).rows
        assert sorted(r[0] for r in rows) == ["lfn1", "lfn3"]

    def test_non_constant_item_falls_back_to_scan(self, db):
        self._fill(db, 6)
        # A column reference among the items defeats the constant probe;
        # the row-at-a-time path must produce the same answer.
        rows = db.execute(
            "SELECT name FROM t_lfn WHERE ref IN (id, 3)"
        ).rows
        by_scan = db.execute(
            "SELECT name, id, ref FROM t_lfn"
        ).rows
        expected = sorted(
            name for name, row_id, ref in by_scan if ref in (row_id, 3)
        )
        assert sorted(r[0] for r in rows) == expected

    def test_not_in(self, db):
        self._fill(db, 6)
        rows = db.execute(
            "SELECT name FROM t_lfn WHERE name NOT IN ('lfn0', 'lfn5')"
        ).rows
        assert sorted(r[0] for r in rows) == [f"lfn{i}" for i in range(1, 5)]

    def test_null_never_matches_literals(self, db):
        db.execute("INSERT INTO t_lfn (name) VALUES ('nullref')")  # ref NULL
        rows = db.execute(
            "SELECT name FROM t_lfn WHERE ref IN (0, 1, 2)"
        ).rows
        assert rows == []

    def test_mixed_numeric_types_match(self, db):
        self._fill(db, 4)
        rows = db.execute(
            "SELECT name FROM t_lfn WHERE ref IN (1.0, 2)"
        ).rows
        assert sorted(r[0] for r in rows) == ["lfn1", "lfn2"]


class TestNullNeverEquals:
    """``=``, ``IN`` and index probes treat NULL as matching nothing —
    on the scan path, the hash-lookup path and the IN-probe path alike.
    The planner drops a conjunct its index answers, so the probe itself
    (not a residual re-check) has to get this right."""

    SELECTS = [
        ("SELECT name FROM t_lfn WHERE ref = ?", [None], []),
        ("SELECT name FROM t_lfn WHERE ref IN (?, ?)", [None, 1], ["one"]),
        ("SELECT name FROM t_lfn WHERE ref IN (?)", [None], []),
        ("SELECT name FROM t_lfn WHERE ref IN (NULL, 1)", [], ["one"]),
        ("SELECT name FROM t_lfn WHERE ref = NULL", [], []),
        ("SELECT name FROM t_lfn WHERE ref IS NULL", [], ["null"]),
    ]

    def _fill(self, db):
        db.execute(
            "INSERT INTO t_lfn (name, ref) VALUES ('null', NULL), ('one', 1)"
        )

    @pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
    @pytest.mark.parametrize("sql, params, expected", SELECTS)
    def test_select(self, db, indexed, sql, params, expected):
        self._fill(db)
        if indexed:
            db.execute("CREATE INDEX lfn_ref ON t_lfn (ref)")
        assert [r[0] for r in db.execute(sql, params).rows] == expected

    def test_paths_are_the_ones_meant(self, db):
        db.execute("CREATE INDEX lfn_ref ON t_lfn (ref)")
        eq = db.execute("EXPLAIN SELECT name FROM t_lfn WHERE ref = ?", [None])
        assert eq.rows == [("drive: hash index lookup t_lfn(ref)",)]
        probe = db.execute(
            "EXPLAIN SELECT name FROM t_lfn WHERE ref IN (?, ?)", [None, 1]
        )
        # The NULL item is not even probed.
        assert probe.rows == [("drive: hash index IN probe t_lfn(ref) [1 keys]",)]

    @pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
    def test_mutations_spare_the_null_row(self, db, indexed):
        self._fill(db)
        if indexed:
            db.execute("CREATE INDEX lfn_ref ON t_lfn (ref)")
        assert db.execute("DELETE FROM t_lfn WHERE ref = ?", [None]).rowcount == 0
        assert db.execute(
            "UPDATE t_lfn SET ref = 5 WHERE ref IN (?, ?)", [None, 7]
        ).rowcount == 0
        assert db.execute("SELECT COUNT(*) FROM t_lfn").scalar() == 2

    @pytest.mark.parametrize("indexed", [False, True], ids=["scan", "probe"])
    def test_join_key_null_joins_nothing(self, db, indexed):
        self._fill(db)
        db.execute("CREATE TABLE other (ref INT, tag VARCHAR(10))")
        db.execute("INSERT INTO other (ref, tag) VALUES (NULL, 'n'), (1, 'o')")
        if indexed:
            db.execute("CREATE INDEX other_ref ON other (ref)")
        rows = db.execute(
            "SELECT l.name, o.tag FROM t_lfn l JOIN other o ON o.ref = l.ref"
        ).rows
        assert rows == [("one", "o")]

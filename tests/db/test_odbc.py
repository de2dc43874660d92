"""ODBC-like layer: DSN registry, connections, cursors."""

import pytest

from repro.db.engine import Database
from repro.db.errors import ConnectionClosedError, UnknownDSNError
from repro.db.odbc import connect, register_dsn, unregister_dsn


@pytest.fixture
def dsn():
    db = Database("odbc-test")
    db.execute("CREATE TABLE t (id INT, name VARCHAR(50))")
    register_dsn("test-dsn", db)
    yield "test-dsn"
    unregister_dsn("test-dsn")


class TestRegistry:
    def test_connect_by_dsn(self, dsn):
        conn = connect(dsn)
        assert conn.dsn == dsn

    def test_unknown_dsn(self):
        with pytest.raises(UnknownDSNError):
            connect("never-registered")

    def test_unregister(self, dsn):
        unregister_dsn(dsn)
        with pytest.raises(UnknownDSNError):
            connect(dsn)
        # re-register for fixture teardown idempotence
        register_dsn(dsn, Database())

    def test_connect_engine_directly(self):
        db = Database("direct")
        conn = connect(db)
        assert conn.database is db


class TestConnection:
    def test_execute_shorthand(self, dsn):
        conn = connect(dsn)
        conn.execute("INSERT INTO t (id, name) VALUES (1, 'a')")
        rows = conn.execute("SELECT name FROM t WHERE id = 1").rows
        assert rows == [("a",)]

    def test_closed_connection_rejects_ops(self, dsn):
        conn = connect(dsn)
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.execute("SELECT * FROM t")

    def test_context_manager(self, dsn):
        with connect(dsn) as conn:
            conn.execute("SELECT COUNT(*) FROM t")
        with pytest.raises(ConnectionClosedError):
            conn.execute("SELECT COUNT(*) FROM t")


class TestCursor:
    def test_fetchall(self, dsn):
        conn = connect(dsn)
        cur = conn.cursor()
        cur.execute("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")
        cur.execute("SELECT name FROM t ORDER BY name")
        assert cur.fetchall() == [("a",), ("b",)]
        assert cur.fetchall() == []  # drained

    def test_fetchone(self, dsn):
        conn = connect(dsn)
        cur = conn.cursor()
        cur.execute("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")
        cur.execute("SELECT name FROM t ORDER BY name")
        assert cur.fetchone() == ("a",)
        assert cur.fetchone() == ("b",)
        assert cur.fetchone() is None

    def test_lastrowid_survives_fetchall(self):
        db = Database("odbc-autoinc")
        db.execute(
            "CREATE TABLE a (id INT NOT NULL AUTO_INCREMENT, name VARCHAR(50), "
            "PRIMARY KEY (id))"
        )
        cur = connect(db).cursor()
        cur.execute("INSERT INTO a (name) VALUES ('x'), ('y')")
        assert cur.fetchall() == []
        assert cur.lastrowid == 2
        assert cur.rowcount == 2

    def test_generated_keys_of_every_row(self, dsn):
        db = Database("odbc-keys")
        db.execute(
            "CREATE TABLE a (id INT NOT NULL AUTO_INCREMENT, name VARCHAR(50), "
            "PRIMARY KEY (id))"
        )
        cur = connect(db).cursor()
        assert cur.generated_keys == ()
        cur.execute("INSERT INTO a (name) VALUES ('x'), ('y'), ('z')")
        assert list(cur.generated_keys) == [1, 2, 3] and cur.lastrowid == 3
        cur.executemany("INSERT INTO a (name) VALUES (?), (?)", [["p", "q"], ["r", "s"]])
        assert list(cur.generated_keys) == [4, 5, 6, 7] and cur.lastrowid == 7
        assert cur.rowcount == 4
        # A table without an autoincrement column generates none.
        cur = connect(dsn).cursor()
        cur.execute("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")
        assert list(cur.generated_keys) == [] and cur.lastrowid is None

    def test_fetchone_then_fetchall_returns_the_rest(self, dsn):
        cur = connect(dsn).cursor()
        cur.execute("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        cur.execute("SELECT name FROM t ORDER BY name")
        assert cur.fetchone() == ("a",)
        assert cur.fetchall() == [("b",), ("c",)]
        assert cur.fetchone() is None and cur.fetchall() == []
        assert cur.rowcount == 3

    def test_fetchone_reads_in_place(self, dsn):
        """Walking a result row by row must not copy the remainder each
        time (it used to: quadratic over a large result)."""
        cur = connect(dsn).cursor()
        cur.execute("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")
        cur.execute("SELECT id FROM t")
        rows = cur._result.rows
        assert cur.fetchone() is rows[0]
        assert cur._result.rows is rows and len(rows) == 2

    def test_executemany(self, dsn):
        conn = connect(dsn)
        cur = conn.cursor()
        cur.executemany(
            "INSERT INTO t (id, name) VALUES (?, ?)",
            [(1, "a"), (2, "b"), (3, "c")],
        )
        assert cur.rowcount == 3

    def test_rowcount_and_description(self, dsn):
        conn = connect(dsn)
        cur = conn.cursor()
        assert cur.rowcount == -1
        cur.execute("SELECT id, name FROM t")
        assert [d[0] for d in cur.description] == ["id", "name"]

    def test_closed_cursor_rejects(self, dsn):
        cur = connect(dsn).cursor()
        cur.close()
        with pytest.raises(ConnectionClosedError):
            cur.execute("SELECT * FROM t")

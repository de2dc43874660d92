"""Database engine tests: DDL, logged DML, recovery, stats."""

import pytest

from repro.db.engine import Database
from repro.db.errors import NoSuchTableError, TableExistsError
from repro.db.mysql_engine import MySQLEngine
from repro.db.schema import Column, TableSchema
from repro.db.types import INT, VARCHAR
from repro.db.wal import InMemoryLogDevice, WriteAheadLog
from tests.db._log import durable_records


def schema(name="t"):
    return TableSchema(
        name,
        [
            Column("id", INT, nullable=False, autoincrement=True),
            Column("name", VARCHAR(50), nullable=False),
        ],
        primary_key=("id",),
        unique=[("name",)],
    )


class TestDDL:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table(schema())
        assert db.has_table("t") and db.has_table("T")
        assert db.table_names() == ["t"]

    def test_duplicate_create_rejected(self):
        db = Database()
        db.create_table(schema())
        with pytest.raises(TableExistsError):
            db.create_table(schema())

    def test_drop(self):
        db = Database()
        db.create_table(schema())
        db.drop_table("t")
        assert not db.has_table("t")

    def test_drop_missing(self):
        with pytest.raises(NoSuchTableError):
            Database().drop_table("nope")


class TestLoggedDML:
    def make(self):
        wal = WriteAheadLog(InMemoryLogDevice(sync_latency=0.0), flush_on_commit=True)
        db = Database(wal=wal)
        db.create_table(schema())
        return db, wal

    def test_insert_logged(self):
        db, wal = self.make()
        db.insert_row("t", {"name": "a"})
        records = durable_records(wal)
        assert len(records) == 1
        assert records[0].op_name == "INSERT"
        assert records[0].payload == (1, "a")

    def test_delete_logged_with_old_row(self):
        db, wal = self.make()
        rid, _ = db.insert_row("t", {"name": "a"})
        db.delete_row("t", rid)
        assert durable_records(wal)[-1].op_name == "DELETE"

    def test_update_logged(self):
        db, wal = self.make()
        rid, _ = db.insert_row("t", {"name": "a"})
        db.update_row("t", rid, {"name": "b"})
        assert durable_records(wal)[-1].op_name == "UPDATE"
        assert durable_records(wal)[-1].payload[1] == "b"


class TestRecovery:
    def test_replay_reconstructs_state(self):
        source = MySQLEngine(flush_on_commit=True, sync_latency=0.0)
        source.execute(
            "CREATE TABLE t (id INT NOT NULL AUTO_INCREMENT, "
            "name VARCHAR(50) NOT NULL, PRIMARY KEY (id), UNIQUE (name))"
        )
        for n in ("a", "b", "c"):
            source.execute("INSERT INTO t (name) VALUES (?)", [n])
        source.execute("DELETE FROM t WHERE name = 'b'")
        source.execute("UPDATE t SET name = 'z' WHERE name = 'c'")

        # "Crash": rebuild from durable log into a fresh engine.
        fresh = Database("recovered")
        fresh.execute(
            "CREATE TABLE t (id INT NOT NULL AUTO_INCREMENT, "
            "name VARCHAR(50) NOT NULL, PRIMARY KEY (id), UNIQUE (name))"
        )
        applied = fresh.apply_records(durable_records(source.wal))
        assert applied >= 5
        names = sorted(r[0] for r in fresh.execute("SELECT name FROM t").rows)
        assert names == ["a", "z"]

    def test_unsynced_tail_lost(self):
        """With flush disabled, the un-synced tail does not survive."""
        source = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
        source.wal.max_buffered_records = 10_000
        source.wal.flush_interval = 1e9
        source.execute("CREATE TABLE t (id INT, name VARCHAR(50))")
        source.execute("INSERT INTO t (id, name) VALUES (1, 'durable')")
        source.wal.flush()
        source.execute("INSERT INTO t (id, name) VALUES (2, 'lost')")

        fresh = Database("recovered")
        fresh.execute("CREATE TABLE t (id INT, name VARCHAR(50))")
        fresh.apply_records(durable_records(source.wal))
        rows = fresh.execute("SELECT name FROM t").rows
        assert rows == [("durable",)]

    def test_a_delete_replays_into_a_table_with_no_key(self):
        """With no key constraint the replayed DELETE matches the stored
        row (a tuple) by every column."""
        ddl = "CREATE TABLE t_k (a INT(11) NOT NULL, b VARCHAR(20))"
        source = MySQLEngine(flush_on_commit=True, sync_latency=0.0)
        source.execute(ddl)
        source.execute("INSERT INTO t_k (a, b) VALUES (1, 'x'), (2, 'y')")
        source.execute("DELETE FROM t_k WHERE a = 1")
        assert source.table("t_k").live_rows() == [(2, "y")]

        fresh = Database("recovered")
        fresh.execute(ddl)
        fresh.apply_records(durable_records(source.wal))
        assert fresh.table("t_k").live_rows() == [(2, "y")]


class TestReplaceRows:
    def test_keyless_duplicates_converge_by_count(self):
        db = Database()
        db.execute("CREATE TABLE k (a INT, b VARCHAR(10))")
        for row in [(1, "x"), (1, "x"), (1, "x"), (2, "y"), (3, "z")]:
            db.insert_row("k", {"a": row[0], "b": row[1]})
        before = db.stats()["k"]
        db.replace_rows([("K", [(1, "x"), (3, "z"), (3, "z"), (4, "w")])])
        rows = sorted(db.table("k").live_rows())
        assert rows == [(1, "x"), (3, "z"), (3, "z"), (4, "w")]
        after = db.stats()["k"]
        # Two of the three (1, x) and the (2, y) went; one (3, z) and (4, w) came.
        assert after["deletes"] - before["deletes"] == 3
        assert after["inserts"] - before["inserts"] == 2

    def test_a_table_the_image_does_not_list_is_emptied(self):
        db = Database()
        db.create_table(schema("t"))
        db.create_table(schema("u"))
        db.insert_row("t", {"name": "a"})
        db.insert_row("u", {"name": "b"})
        db.replace_rows([("t", [(1, "a")])])
        assert db.table("t").live_rows() == [(1, "a")]
        assert db.table("u").live_rows() == []

    def test_an_unknown_table_raises(self):
        db = Database()
        db.create_table(schema())
        with pytest.raises(NoSuchTableError):
            db.replace_rows([("nope", [(1, "a")])])


class TestStats:
    def test_stats_counts_operations(self):
        db = Database()
        db.create_table(schema())
        db.insert_row("t", {"name": "a"})
        rid, _ = db.insert_row("t", {"name": "b"})
        db.delete_row("t", rid)
        stats = db.stats()["t"]
        assert stats["inserts"] == 2 and stats["deletes"] == 1

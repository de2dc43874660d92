"""Prepared plans: built once, retired by DDL, safe to share.

``Database.execute`` caches one plan per SQL text.  These tests pin the
three ways that could go wrong: a plan outliving the schema it was built
for, a failed execution leaving the plan or the table damaged, and two
threads running one plan at once.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.db.errors import DuplicateKeyError, NoSuchTableError
from repro.db.mysql_engine import MySQLEngine
from repro.db.postgres_engine import PostgresEngine
from repro.db.schema import Column, TableSchema
from repro.db.types import INT, VARCHAR
from repro.obs.metrics import MetricsRegistry

POINT = "SELECT name FROM t WHERE ref = ?"


@pytest.fixture
def db():
    engine = MySQLEngine(
        flush_on_commit=False, sync_latency=0.0, metrics=MetricsRegistry()
    )
    engine.execute(
        "CREATE TABLE t (id INT NOT NULL, name VARCHAR(40) NOT NULL, ref INT, "
        "PRIMARY KEY (id))"
    )
    engine.execute("INSERT INTO t (id, name, ref) VALUES (1, 'a', 10), (2, 'b', 20)")
    # Every statement is retained with its plan: the public view of which
    # access path a (cached) statement actually ran with.
    engine.profiler.configure(enabled=True, slow_threshold=0.0)
    return engine


def last_drive(engine) -> str:
    entry = engine.profiler.log.interesting()[-1].to_dict()
    return next(op["detail"] for op in entry["plan"] if op["name"] == "drive")


def misses(engine) -> int:
    return engine.metrics.snapshot().counters["db.stmt_cache_misses"]


class TestInvalidation:
    def test_cached_plan_picks_up_create_index(self, db):
        assert db.execute(POINT, [20]).rows == [("b",)]
        assert last_drive(db) == "full scan t + filter"
        db.execute("CREATE INDEX t_ref ON t (ref)")
        assert db.execute(POINT, [20]).rows == [("b",)]
        assert last_drive(db) == "hash index lookup t(ref)"

    def test_index_created_on_the_table_object_counts_too(self, db):
        db.execute(POINT, [20])
        before = misses(db)
        db.table("t").create_hash_index("t_ref", ["ref"])
        assert db.execute(POINT, [10]).rows == [("a",)]
        assert last_drive(db) == "hash index lookup t(ref)"
        db.table("t").create_ordered_index("t_name", "name")
        assert db.execute("SELECT id FROM t WHERE name LIKE 'b%'").rows == [(2,)]
        assert last_drive(db).startswith("ordered index prefix scan t(name)")
        # One re-plan for the stale statement, one for the new text.
        assert misses(db) == before + 2

    def test_unchanged_schema_reuses_the_plan(self, db):
        db.execute(POINT, [10])
        before = db.metrics.snapshot()
        for ref in (10, 20, 30):
            db.execute(POINT, [ref])
        delta = db.metrics.snapshot().delta(before)
        assert delta.counters["db.stmt_cache_hits"] == 3
        assert delta.counters["db.stmt_cache_misses"] == 0

    def test_unprofiled_engine_registers_no_statement_series(self, db):
        db.profiler.configure(enabled=False)
        fresh = "SELECT id FROM t WHERE ref = ?"

        def statement_series():
            snap = db.metrics.snapshot()
            names = [*snap.counters, *snap.histograms]
            return [n for n in names if n.startswith("db.statement") and "select" in n]

        before = statement_series()
        db.execute(fresh, [10])
        db.execute("SELECT id FROM t WHERE ref = 10")  # literal: never a cache hit
        assert statement_series() == before
        # The cached plan works out its accounting on its first profiled run.
        db.profiler.configure(enabled=True)
        marked = db.metrics.snapshot()
        db.execute(fresh, [10])
        delta = db.metrics.snapshot().delta(marked)
        assert delta.counters["db.statements{class=select:t}"] == 1
        assert delta.counters["db.stmt_cache_misses"] == 0

    @pytest.mark.parametrize("via_sql", [True, False], ids=["sql", "api"])
    def test_survives_drop_and_recreate_with_columns_reordered(self, db, via_sql):
        insert = "INSERT INTO t (id, name, ref) VALUES (?, ?, ?)"
        update = "UPDATE t SET ref = ? WHERE id = ?"
        db.execute(insert, [3, "c", 30])
        db.execute(update, [31, 3])
        assert db.execute(POINT, [31]).rows == [("c",)]
        if via_sql:
            db.execute("DROP TABLE t")
        else:
            db.drop_table("t")
        with pytest.raises(NoSuchTableError):
            db.execute(POINT, [31])
        if via_sql:
            db.execute(
                "CREATE TABLE t (ref INT, name VARCHAR(40) NOT NULL, "
                "id INT NOT NULL, PRIMARY KEY (id))"
            )
        else:
            db.create_table(TableSchema(
                "t",
                [Column("ref", INT), Column("name", VARCHAR(40), nullable=False),
                 Column("id", INT, nullable=False)],
                primary_key=("id",),
            ))
        # The same texts, now against different column positions.
        db.execute(insert, [7, "seven", 70])
        db.execute(update, [71, 7])
        assert db.execute(POINT, [71]).rows == [("seven",)]
        assert db.execute("SELECT * FROM t").rows == [(71, "seven", 7)]


@pytest.mark.parametrize("flavour", ["mysql", "postgresql"])
def test_duplicate_key_leaves_table_wal_and_plan_usable(flavour):
    if flavour == "mysql":
        db = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    else:
        db = PostgresEngine(fsync=False, sync_latency=0.0, dead_hit_cost=0.0)
    db.execute(
        "CREATE TABLE t (id INT NOT NULL AUTO_INCREMENT, name VARCHAR(40) "
        "NOT NULL, PRIMARY KEY (id), UNIQUE (name))"
    )
    insert = "INSERT INTO t (name) VALUES (?)"
    assert db.execute(insert, ["a"]).lastrowid == 1
    logged = db.wal.records_appended
    for _ in range(3):
        with pytest.raises(DuplicateKeyError):
            db.execute(insert, ["a"])
    assert db.wal.records_appended == logged  # a refused row logs nothing
    assert db.table("t").check_integrity() == []
    assert db.execute("SELECT name FROM t").rows == [("a",)]
    assert db.execute(insert, ["b"]).rowcount == 1
    assert db.wal.records_appended == logged + 1
    assert sorted(db.execute("SELECT name FROM t").rows) == [("a",), ("b",)]


def test_eight_threads_share_one_plan_per_statement():
    """Plans hold no per-execution state: eight threads run the same
    cached statements (point lookup, IN list over an unindexed column,
    join, source-column sort, insert/update/delete) with their own
    parameters and must each see only their own answers."""
    db = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    db.execute(
        "CREATE TABLE item (id INT NOT NULL, owner INT NOT NULL, tag VARCHAR(20) "
        "NOT NULL, weight INT, PRIMARY KEY (id))"
    )
    db.execute("CREATE INDEX item_owner ON item (owner)")
    db.execute("CREATE TABLE owner (id INT NOT NULL, name VARCHAR(20), PRIMARY KEY (id))")
    threads, per_thread, rounds = 8, 6, 150
    for t in range(threads):
        db.execute("INSERT INTO owner (id, name) VALUES (?, ?)", [t, f"o{t}"])
        for k in range(per_thread):
            db.execute(
                "INSERT INTO item (id, owner, tag, weight) VALUES (?, ?, ?, ?)",
                [t * 100 + k, t, f"t{t}-{k}", k],
            )
    failures: list[str] = []

    def worker(t: int) -> None:
        mine = [f"t{t}-{k}" for k in range(per_thread)]
        try:
            for r in range(rounds):
                k = r % per_thread
                got = db.execute("SELECT tag FROM item WHERE id = ?", [t * 100 + k]).rows
                assert got == [(mine[k],)]
                got = db.execute(
                    "SELECT tag FROM item WHERE owner = ? AND weight IN (?, ?)",
                    [t, k, k + 100],
                ).rows
                assert got == [(mine[k],)]
                got = db.execute(
                    "SELECT o.name, i.tag FROM owner o JOIN item i ON i.owner = o.id "
                    "WHERE o.id = ? ORDER BY weight DESC",
                    [t],
                ).rows
                assert got == [(f"o{t}", tag) for tag in reversed(mine)]
                scratch = 10_000 + t
                db.execute(
                    "INSERT INTO item (id, owner, tag, weight) VALUES (?, ?, ?, ?)",
                    [scratch, t + 50, f"s{t}", r],
                )
                assert db.execute(
                    "UPDATE item SET weight = ? WHERE id = ?", [r + 1, scratch]
                ).rowcount == 1
                assert db.execute(
                    "SELECT weight FROM item WHERE owner = ?", [t + 50]
                ).rows == [(r + 1,)]
                assert db.execute("DELETE FROM item WHERE id = ?", [scratch]).rowcount == 1
        except Exception as exc:  # reported by the main thread
            failures.append(f"thread {t}: {type(exc).__name__}: {exc}")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in pool)
    assert failures == []
    assert db.execute("SELECT COUNT(*) FROM item").scalar() == threads * per_thread
    assert db.table("item").check_integrity() == []

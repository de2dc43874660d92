"""Differential test: the mini-SQL engine against stdlib ``sqlite3``.

Hypothesis generates statement sequences over the SQL subset both
systems agree on; every statement runs on SQLite and on both engine
flavours (eager MySQL-style storage and MVCC PostgreSQL-style storage,
whose index probes must skip dead tuples), and rows, row counts and
constraint failures must match statement by statement, as must the
final table contents.  The same SQL texts recur within a sequence with
different parameters, so cached plans are exercised, not just first runs.

Left out on purpose, because the two systems define them differently
(documented engine behaviour, not bugs): ``!=``/``NOT``/``NOT IN`` over
NULLs (this engine collapses SQL's three-valued logic), ORDER BY on a
nullable column (NULLs sort last here, first in SQLite), AUTO_INCREMENT
ids after a failed insert, and multi-row statements that fail half-way
(no statement-level rollback here) — multi-row inserts therefore use
keys no other statement draws.
"""

from __future__ import annotations

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.errors import DuplicateKeyError, IntegrityError
from repro.db.mysql_engine import MySQLEngine
from repro.db.postgres_engine import PostgresEngine

ENGINE_DDL = [
    "CREATE TABLE t_name (id INT NOT NULL, name VARCHAR(40) NOT NULL, "
    "ref INT, PRIMARY KEY (id), UNIQUE (name))",
    "CREATE INDEX name_prefix ON t_name (name) USING BTREE",
    "CREATE INDEX name_ref ON t_name (ref)",
    "CREATE TABLE t_link (a INT NOT NULL, b INT NOT NULL, PRIMARY KEY (a, b))",
    "CREATE INDEX link_a ON t_link (a)",
]
SQLITE_DDL = [
    "CREATE TABLE t_name (id INTEGER NOT NULL PRIMARY KEY, "
    "name TEXT NOT NULL UNIQUE, ref INTEGER)",
    "CREATE TABLE t_link (a INTEGER NOT NULL, b INTEGER NOT NULL, "
    "PRIMARY KEY (a, b))",
    "PRAGMA case_sensitive_like = ON",
]

ids = st.integers(min_value=1, max_value=8)
names = st.sampled_from(["a", "ab", "abc", "abd", "b", "ba", "c_d", "cxd"])
refs = st.sampled_from([None, 0, 1, 2, 3])
patterns = st.sampled_from(["a%", "ab%", "%", "b_", "c_d", "%d", "zz%", "a_c"])

NAME_JOIN = "FROM t_name n JOIN t_link l ON n.id = l.a "
THREE_WAY = NAME_JOIN + "JOIN t_name m ON l.b = m.id "

#: (SQL text, parameter strategies).  Texts are fixed so plans are reused.
TEMPLATES: list[tuple[str, tuple]] = [
    ("INSERT INTO t_name (id, name, ref) VALUES (?, ?, ?)", (ids, names, refs)),
    ("INSERT INTO t_link (a, b) VALUES (?, ?)", (ids, ids)),
    ("UPDATE t_name SET ref = ? WHERE name = ?", (refs, names)),
    ("UPDATE t_name SET ref = ? WHERE ref = ?", (refs, refs)),
    ("UPDATE t_name SET ref = ? WHERE ref IN (?, ?)", (refs, refs, refs)),
    ("UPDATE t_name SET name = ? WHERE id = ?", (names, ids)),
    ("UPDATE t_name SET ref = ? WHERE name LIKE ? AND ref IS NOT NULL",
     (refs, patterns)),
    ("DELETE FROM t_name WHERE name = ?", (names,)),
    ("DELETE FROM t_name WHERE ref = ?", (refs,)),
    ("DELETE FROM t_name WHERE id IN (?, ?, ?)", (ids, ids, ids)),
    ("DELETE FROM t_name WHERE name LIKE ?", (patterns,)),
    ("DELETE FROM t_link WHERE a = ? AND b = ?", (ids, ids)),
    ("DELETE FROM t_link WHERE a = ?", (ids,)),
    ("SELECT id, name, ref FROM t_name WHERE name = ?", (names,)),
    ("SELECT name FROM t_name WHERE id = ?", (ids,)),
    ("SELECT name FROM t_name WHERE ref = ?", (refs,)),
    ("SELECT name, ref FROM t_name WHERE ref IN (?, ?, ?)", (refs, refs, refs)),
    ("SELECT name FROM t_name WHERE name IN (?, ?) AND ref >= ?",
     (names, names, refs)),
    ("SELECT name FROM t_name WHERE name LIKE ?", (patterns,)),
    ("SELECT name FROM t_name WHERE name LIKE ? AND ref < ?", (patterns, refs)),
    ("SELECT name FROM t_name WHERE ref IS NULL OR ref = ?", (refs,)),
    ("SELECT COUNT(*) FROM t_name WHERE ref = ?", (refs,)),
    ("SELECT COUNT(*) FROM t_link", ()),
    ("SELECT b FROM t_link WHERE a = ? AND b = ?", (ids, ids)),
    ("SELECT n.name, l.b " + NAME_JOIN + "WHERE n.name = ?", (names,)),
    ("SELECT n.name, l.b " + NAME_JOIN + "WHERE n.ref IN (?, ?)", (refs, refs)),
    ("SELECT n.name, m.name " + THREE_WAY + "WHERE n.name = ?", (names,)),
    ("SELECT n.name, m.name, m.ref " + THREE_WAY + "WHERE n.name LIKE ?",
     (patterns,)),
    ("SELECT DISTINCT n.name " + NAME_JOIN, ()),
    ("SELECT DISTINCT ref FROM t_name WHERE ref IS NOT NULL ORDER BY ref", ()),
    ("SELECT name FROM t_name ORDER BY name DESC LIMIT 3", ()),
    ("SELECT name, ref FROM t_name WHERE ref IS NOT NULL ORDER BY ref, name LIMIT 4",
     ()),
    ("SELECT ref FROM t_name ORDER BY id LIMIT 2", ()),
]
ORDERED = {sql for sql, _ in TEMPLATES if "ORDER BY" in sql}


@st.composite
def statements(draw) -> list[tuple[str, list]]:
    """A statement sequence; multi-row inserts draw from their own keys."""
    out: list[tuple[str, list]] = []
    fresh = 100
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            rows = draw(st.integers(min_value=2, max_value=3))
            params: list = []
            for _row in range(rows):
                params += [fresh, f"m{fresh}", draw(refs)]
                fresh += 1
            sql = "INSERT INTO t_name (id, name, ref) VALUES " + ", ".join(
                ["(?, ?, ?)"] * rows
            )
        else:
            sql, strategies = draw(st.sampled_from(TEMPLATES))
            params = [draw(s) for s in strategies]
        out.append((sql, params))
    return out


def _null_first(row: tuple) -> tuple:
    return tuple((value is not None, value) for value in row)


def _outcome(sql: str, run) -> tuple:
    """Comparable result of one statement on one system."""
    try:
        rows, rowcount = run()
    except (sqlite3.IntegrityError, DuplicateKeyError, IntegrityError):
        return ("constraint violation",)
    if sql.startswith("SELECT"):
        rows = [tuple(r) for r in rows]
        return ("rows", rows if sql in ORDERED else sorted(rows, key=_null_first))
    return ("rowcount", rowcount)


def _engines():
    mysql = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    postgres = PostgresEngine(fsync=False, sync_latency=0.0, dead_hit_cost=0.0)
    for engine in (mysql, postgres):
        for ddl in ENGINE_DDL:
            engine.execute(ddl)
    return {"mysql": mysql, "postgresql": postgres}


@settings(max_examples=120, deadline=None)
@given(statements())
def test_statement_sequences_agree_with_sqlite(sequence):
    lite = sqlite3.connect(":memory:", isolation_level=None)
    for ddl in SQLITE_DDL:
        lite.execute(ddl)
    engines = _engines()
    try:
        for step, (sql, params) in enumerate(sequence):
            def on_sqlite():
                cursor = lite.execute(sql, params)
                return cursor.fetchall(), cursor.rowcount

            expected = _outcome(sql, on_sqlite)
            for flavour, engine in engines.items():
                def on_engine():
                    result = engine.execute(sql, params)
                    return result.rows, result.rowcount

                assert _outcome(sql, on_engine) == expected, (
                    f"{flavour} diverged at step {step}: {sql} {params}"
                )
        for table in ("t_name", "t_link"):
            dump = f"SELECT * FROM {table}"
            expected = sorted(lite.execute(dump).fetchall(), key=_null_first)
            for flavour, engine in engines.items():
                got = sorted(engine.execute(dump).rows, key=_null_first)
                assert got == expected, f"{flavour}: final {table} differs"
    finally:
        lite.close()

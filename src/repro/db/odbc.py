"""ODBC-like connection layer (DB-API 2.0 flavoured).

The paper's server reaches its relational back end through
libiODBC/myodbc (Figure 2).  This module plays that role: engines register
under a data source name (DSN) and callers obtain :class:`Connection` /
:class:`Cursor` objects that speak parameterized SQL, without knowing the
back-end flavour.  The RLS server (:mod:`repro.core.lrc`) only ever talks
to this layer, so swapping MySQL for PostgreSQL is a DSN change — exactly
the portability property the paper calls out.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro.db.engine import Database, ResultSet
from repro.db.errors import ConnectionClosedError, UnknownDSNError

_registry: dict[str, Database] = {}
_registry_lock = threading.Lock()


def register_dsn(dsn: str, database: Database) -> None:
    """Register ``database`` under ``dsn`` for :func:`connect`."""
    with _registry_lock:
        _registry[dsn] = database


def unregister_dsn(dsn: str) -> None:
    with _registry_lock:
        _registry.pop(dsn, None)


def connect(dsn: str | Database) -> "Connection":
    """Open a connection to a registered DSN (or wrap an engine directly)."""
    if isinstance(dsn, Database):
        return Connection(dsn, dsn.name)
    with _registry_lock:
        database = _registry.get(dsn)
    if database is None:
        raise UnknownDSNError(dsn)
    return Connection(database, dsn)


class Connection:
    """One client connection to an engine.

    Autocommit semantics: every statement is its own transaction, matching
    how the RLS server drives ODBC.  ``commit()`` forces a WAL flush and
    is otherwise a no-op.
    """

    def __init__(self, database: Database, dsn: str) -> None:
        self._database = database
        self.dsn = dsn
        self._closed = False

    @property
    def database(self) -> Database:
        if self._closed:
            raise ConnectionClosedError("connection is closed")
        return self._database

    def cursor(self) -> "Cursor":
        return Cursor(self)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Shorthand for ``cursor().execute(...)`` returning the result set."""
        return self.database.execute(sql, params)

    def commit(self) -> None:
        wal = self.database.wal
        if wal is not None:
            wal.flush()

    def transaction(self):
        """Group several statements under one commit durability barrier.

        With a flush-on-commit WAL, statements inside the context share a
        single sync at exit (how MySQL commits a multi-statement
        transaction); without a WAL this is a no-op context.
        """
        wal = self.database.wal
        if wal is None:
            import contextlib

            return contextlib.nullcontext()
        return wal.transaction()

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Cursor:
    """DB-API-style cursor over a :class:`Connection`."""

    def __init__(self, connection: Connection) -> None:
        self._connection = connection
        self._result: ResultSet | None = None
        #: Rows of ``_result`` already handed out by fetchone/fetchall.
        self._fetched = 0
        self._closed = False

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        if self._closed:
            raise ConnectionClosedError("cursor is closed")
        self._result = self._connection.database.execute(sql, params)
        self._fetched = 0
        return self

    def executemany(
        self, sql: str, seq_of_params: Sequence[Sequence[Any]]
    ) -> "Cursor":
        if self._closed:
            raise ConnectionClosedError("cursor is closed")
        total = 0
        keys: list[int] = []
        last: ResultSet | None = None
        for params in seq_of_params:
            last = self._connection.database.execute(sql, params)
            total += last.rowcount
            keys.extend(last.generated_keys)
        if last is not None:
            self._result = ResultSet(last.columns, [], total, keys)
            self._fetched = 0
        return self

    def fetchall(self) -> list[tuple]:
        """The rows not fetched yet (the whole result on a fresh cursor)."""
        if self._result is None:
            return []
        rows = self._result.rows
        if self._fetched:
            rows = rows[self._fetched :]
        self._fetched = len(self._result.rows)
        return rows

    def fetchone(self) -> tuple | None:
        if self._result is None or self._fetched >= len(self._result.rows):
            return None
        row = self._result.rows[self._fetched]
        self._fetched += 1
        return row

    @property
    def rowcount(self) -> int:
        return -1 if self._result is None else self._result.rowcount

    @property
    def lastrowid(self) -> int | None:
        return None if self._result is None else self._result.lastrowid

    @property
    def generated_keys(self) -> Sequence[int]:
        """The autoincrement value of every row the last INSERT (or
        ``executemany`` of INSERTs) stored, in order."""
        return () if self._result is None else self._result.generated_keys

    @property
    def description(self) -> list[tuple] | None:
        if self._result is None or not self._result.columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self._result.columns]

    def close(self) -> None:
        self._closed = True
        self._result = None

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

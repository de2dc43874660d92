"""Exception hierarchy for the embedded database substrate."""

from __future__ import annotations


class DBError(Exception):
    """Base class for every error raised by :mod:`repro.db`."""


class NoSuchTableError(DBError):
    """A statement referenced a table that does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"no such table: {name!r}")
        self.table_name = name


class NoSuchColumnError(DBError):
    """A statement referenced a column that does not exist."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"no such column: {table!r}.{column!r}")
        self.table_name = table
        self.column_name = column


class NoSuchIndexError(DBError):
    """An operation referenced an index that does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"no such index: {name!r}")
        self.index_name = name


class TableExistsError(DBError):
    """``CREATE TABLE`` collided with an existing table."""

    def __init__(self, name: str) -> None:
        super().__init__(f"table already exists: {name!r}")
        self.table_name = name


class IntegrityError(DBError):
    """A constraint (NOT NULL, unique, primary key) was violated."""


class DuplicateKeyError(IntegrityError):
    """A unique or primary-key constraint was violated."""

    def __init__(self, table: str, column: str, value: object) -> None:
        super().__init__(
            f"duplicate key in {table!r}: column {column!r} value {value!r}"
        )
        self.table_name = table
        self.column_name = column
        self.value = value


class TypeMismatchError(DBError):
    """A value could not be coerced to the declared column type."""


class SQLSyntaxError(DBError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ConnectionClosedError(DBError):
    """An operation was attempted on a closed connection or cursor."""


class UnknownDSNError(DBError):
    """``connect()`` was called with an unregistered data source name."""

    def __init__(self, dsn: str) -> None:
        super().__init__(f"unknown DSN: {dsn!r}")
        self.dsn = dsn

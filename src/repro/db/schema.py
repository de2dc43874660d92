"""Table schemas: column declarations and constraints."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.db.errors import IntegrityError, NoSuchColumnError, TypeMismatchError
from repro.db.types import ColumnType


@dataclass(frozen=True)
class Column:
    """One column declaration.

    Attributes
    ----------
    name:
        Column name (case-preserved; lookups are case-insensitive, as in
        MySQL's default collation).
    ctype:
        The :class:`~repro.db.types.ColumnType` used to coerce values.
    nullable:
        Whether SQL NULL is allowed.
    autoincrement:
        If true, INSERTs may omit the column and the table assigns the next
        integer.  Mirrors the ``id int(11)`` surrogate keys in Figure 3.
    """

    name: str
    ctype: ColumnType
    nullable: bool = True
    autoincrement: bool = False


@dataclass
class TableSchema:
    """Schema for one table: ordered columns plus key constraints.

    ``primary_key`` and each entry of ``unique`` are column-name tuples;
    multi-column keys are supported because the RLS mapping tables
    (``t_map``) key on ``(lfn_id, pfn_id)``.
    """

    name: str
    columns: Sequence[Column]
    primary_key: tuple[str, ...] = ()
    unique: Sequence[tuple[str, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.columns = list(self.columns)
        seen: set[str] = set()
        for col in self.columns:
            low = col.name.lower()
            if low in seen:
                raise IntegrityError(
                    f"duplicate column {col.name!r} in table {self.name!r}"
                )
            seen.add(low)
        self._by_name = {c.name.lower(): i for i, c in enumerate(self.columns)}
        # What coerce_row needs of each column, looked up once.
        self._coercions = [
            (c.name.lower(), c, c.ctype.coerce) for c in self.columns
        ]
        for key in (self.primary_key, *self.unique):
            for colname in key:
                if colname.lower() not in self._by_name:
                    raise NoSuchColumnError(self.name, colname)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        """Ordinal position of ``name`` (case-insensitive)."""
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise NoSuchColumnError(self.name, name) from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def key_constraints(self) -> list[tuple[str, ...]]:
        """All uniqueness constraints, primary key first."""
        keys: list[tuple[str, ...]] = []
        if self.primary_key:
            keys.append(tuple(self.primary_key))
        keys.extend(tuple(u) for u in self.unique)
        return keys

    def coerce_row(self, values: dict[str, Any]) -> list[Any]:
        """Validate a column→value mapping into an ordered row list.

        Missing nullable columns become NULL; missing autoincrement columns
        are left as ``None`` for the table to fill in.  Unknown columns and
        NOT NULL violations raise.
        """
        remaining = {k.lower(): v for k, v in values.items()}
        row: list[Any] = []
        for low, col, coerce in self._coercions:
            if low in remaining:
                value = remaining.pop(low)
                if value is None:
                    if not col.nullable and not col.autoincrement:
                        raise IntegrityError(
                            f"column {col.name!r} of {self.name!r} is NOT NULL"
                        )
                    row.append(None)
                else:
                    try:
                        row.append(coerce(value))
                    except TypeMismatchError as exc:
                        raise TypeMismatchError(
                            f"{self.name}.{col.name}: {exc}"
                        ) from None
            elif col.autoincrement or col.nullable:
                row.append(None)
            else:
                raise IntegrityError(
                    f"column {col.name!r} of {self.name!r} is NOT NULL "
                    "and has no default"
                )
        if remaining:
            unknown = sorted(remaining)
            raise NoSuchColumnError(self.name, unknown[0])
        return row

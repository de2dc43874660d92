"""Row heap storage with tombstones.

A :class:`RowHeap` stores rows in an append-only list.  Deleting marks the
slot dead (a tombstone) instead of reclaiming it — the same strategy as
PostgreSQL's MVCC heap, where deleted tuples linger until ``VACUUM``.  The
MySQL-flavoured engine compacts eagerly; the PostgreSQL-flavoured engine
relies on explicit vacuuming, which is what the paper's Figure 8 measures.
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import Any, Iterator

#: A stored row: frozen by ``Table.insert_many``, never mutated in place.
Row = tuple[Any, ...]


class RowHeap:
    """Append-only row storage addressed by row id (rid)."""

    __slots__ = ("_rows", "_dead", "_live_count", "_free_rids")

    def __init__(self) -> None:
        self._rows: list[Row | None] = []
        #: One byte per slot, 1 when the slot's row is dead.
        self._dead = bytearray()
        self._live_count = 0
        self._free_rids: list[int] = []

    def insert(self, row: Row) -> int:
        """Store ``row`` and return its rid, reusing vacuumed slots if any."""
        if self._free_rids:
            rid = self._free_rids.pop()
            self._rows[rid] = row
            self._dead[rid] = 0
        else:
            rid = len(self._rows)
            self._rows.append(row)
            self._dead.append(0)
        self._live_count += 1
        return rid

    def mark_dead(self, rid: int) -> Row:
        """Tombstone ``rid``; the row data stays until :meth:`reclaim`."""
        if self._dead[rid]:
            raise KeyError(f"row {rid} already dead")
        self._dead[rid] = 1
        self._live_count -= 1
        row = self._rows[rid]
        assert row is not None
        return row

    def reclaim(self, rid: int) -> None:
        """Free a tombstoned slot for reuse (the vacuum step)."""
        if not self._dead[rid]:
            raise KeyError(f"row {rid} is not dead")
        self._rows[rid] = None
        self._free_rids.append(rid)

    def is_dead(self, rid: int) -> bool:
        return self._dead[rid] == 1

    def get(self, rid: int) -> Row:
        """Return the row for ``rid`` (dead or alive, as long as not reclaimed)."""
        if not 0 <= rid < len(self._rows):
            raise KeyError(f"row id {rid} out of range")
        row = self._rows[rid]
        if row is None:
            raise KeyError(f"row {rid} has been reclaimed")
        return row

    def get_live(self, rid: int) -> Row | None:
        """Return the row if it is live, else ``None``."""
        row = self._rows[rid]
        if row is None or self._dead[rid]:
            return None
        return row

    def scan_live(self) -> Iterator[tuple[int, Row]]:
        """Yield ``(rid, row)`` for every live row in heap order."""
        dead = self._dead
        for rid, row in enumerate(self._rows):
            if row is not None and not dead[rid]:
                yield rid, row

    def live_rows(self) -> list[Row]:
        """Every live row in heap order (a reclaimed slot stays marked
        dead until it is reused)."""
        return list(compress(self._rows, map(not_, self._dead)))

    def scan_dead(self) -> Iterator[int]:
        """Yield the rids of tombstoned (not yet reclaimed) rows."""
        for rid, row in enumerate(self._rows):
            if row is not None and self._dead[rid]:
                yield rid

    @property
    def live_count(self) -> int:
        return self._live_count

    @property
    def dead_count(self) -> int:
        return len(self._rows) - self._live_count - len(self._free_rids)

    @property
    def physical_count(self) -> int:
        """Slots occupied by live or dead rows — the on-disk footprint."""
        return len(self._rows) - len(self._free_rids)

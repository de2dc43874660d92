"""In-memory indexes for the embedded database.

Two index structures are provided:

* :class:`HashIndex` — a dict from key tuple to a set of row ids.  O(1)
  equality lookups; used for the surrogate-key and name lookups that
  dominate RLS traffic.
* :class:`OrderedIndex` — one plain sorted list of the distinct keys,
  searched with :mod:`bisect`, supporting range and prefix scans, which
  back SQL ``LIKE 'prefix%'`` — the RLS wildcard queries.  There is no
  buffering and no compaction: a new key is placed by ``insort`` (a binary
  search plus one memmove of the list's tail, O(n) per key), a removed key
  by ``del``.  A statement hands over all its rows at once
  (:meth:`OrderedIndex.insert_rows`), and its new keys are merged by
  whichever of the two ways needs fewer key comparisons: one ``insort``
  each, or one ``extend`` + ``sort`` (the old keys and the sorted new keys
  are two runs, which timsort merges in one pass).  The scalar cost at
  paper scale is recorded in EXPERIMENTS.md.

Both take rows a statement at a time (``insert_rows`` / ``remove_rows``
over ``(rid, row)`` pairs); ``insert`` / ``remove`` are the one-entry
forms.

Both index types intentionally keep entries for *dead* MVCC tuples until
the owning table vacuums them (see :mod:`repro.db.postgres_engine`); the
cost of filtering dead entries out of lookups is what produces the paper's
Figure 8 sawtooth, so the behaviour is load-bearing, not an accident.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

#: What a table hands an index: ``(rid, stored row)`` pairs.
RowPairs = Sequence[tuple[int, list[Any]]]


class HashIndex:
    """Equality index mapping a key tuple to the set of row ids holding it."""

    __slots__ = ("name", "column_positions", "key_for", "_map")

    def __init__(self, name: str, column_positions: Iterable[int]) -> None:
        self.name = name
        self.column_positions = tuple(column_positions)
        #: ``row -> key tuple``, fixed when the index is created.
        self.key_for: Callable[[list[Any]], tuple] = _key_getter(
            self.column_positions
        )
        self._map: dict[tuple, set[int]] = {}

    def insert(self, key: tuple, rid: int) -> None:
        ids = self._map.get(key)
        if ids is None:
            self._map[key] = {rid}
        else:
            ids.add(rid)

    def insert_rows(self, pairs: RowPairs) -> None:
        key_for, insert = self.key_for, self.insert
        for rid, row in pairs:
            insert(key_for(row), rid)

    def remove(self, key: tuple, rid: int) -> None:
        ids = self._map.get(key)
        if ids is not None:
            ids.discard(rid)
            if not ids:
                del self._map[key]

    def remove_rows(self, pairs: RowPairs) -> None:
        key_for, remove = self.key_for, self.remove
        for rid, row in pairs:
            remove(key_for(row), rid)

    def lookup(self, key: tuple) -> set[int]:
        """Row ids whose indexed columns equal ``key`` (may include dead rows)."""
        return self._map.get(key, _EMPTY_SET)

    def __len__(self) -> int:
        return len(self._map)

    def distinct_keys(self) -> Iterator[tuple]:
        return iter(self._map)


_EMPTY_SET: frozenset[int] = frozenset()


def _key_getter(positions: tuple[int, ...]) -> Callable[[list[Any]], tuple]:
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions)  # a tuple for two positions or more


class OrderedIndex:
    """Sorted index over a single column supporting prefix/range scans.

    The distinct keys are kept in one sorted list and each key maps to the
    set of row ids carrying it.  Only single-column ordered indexes are
    needed by the RLS schema (name columns).
    """

    __slots__ = ("name", "column_position", "_keys", "_map")

    def __init__(self, name: str, column_position: int) -> None:
        self.name = name
        self.column_position = column_position
        self._keys: list[Any] = []
        self._map: dict[Any, set[int]] = {}

    def key_for(self, row: list[Any]) -> Any:
        return row[self.column_position]

    def insert(self, key: Any, rid: int) -> None:
        self._insert(((key, rid),))

    def insert_rows(self, pairs: RowPairs) -> None:
        position = self.column_position
        self._insert([(row[position], rid) for rid, row in pairs])

    def _insert(self, entries: Iterable[tuple[Any, int]]) -> None:
        """Index every ``(key, rid)``, then merge the new keys in one go."""
        by_key = self._map
        new: list[Any] = []
        for key, rid in entries:
            ids = by_key.get(key)
            if ids is None:
                by_key[key] = {rid}
                new.append(key)
            else:
                ids.add(rid)
        if new:
            self._merge(new)

    def _merge(self, new: list[Any]) -> None:
        """Put ``new`` (keys not in the list yet) in their sorted places.

        ``insort`` costs about log2 of the final length in comparisons
        per new key, a sort of the extended list at least one per key in
        it (timsort walks the old keys once to find that they are a run,
        then merges the runs), so the comparison count picks: single adds
        and 64-row statements against a loaded catalog insort, a bulk
        load sorts once instead of shifting the list's tail once per row.
        """
        keys = self._keys
        total = len(keys) + len(new)
        if len(new) * total.bit_length() < total:
            for key in new:
                bisect.insort(keys, key)
        else:
            keys.extend(new)
            keys.sort()

    def remove(self, key: Any, rid: int) -> None:
        ids = self._map.get(key)
        if ids is None:
            return
        ids.discard(rid)
        if not ids:
            del self._map[key]
            pos = bisect.bisect_left(self._keys, key)
            if pos < len(self._keys) and self._keys[pos] == key:
                del self._keys[pos]

    def remove_rows(self, pairs: RowPairs) -> None:
        position, remove = self.column_position, self.remove
        for rid, row in pairs:
            remove(row[position], rid)

    def lookup(self, key: Any) -> set[int]:
        return self._map.get(key, set())

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, set[int]]]:
        """Yield ``(key, row_ids)`` for keys within [low, high] in order."""
        if low is None:
            start = 0
        else:
            start = (
                bisect.bisect_left(self._keys, low)
                if include_low
                else bisect.bisect_right(self._keys, low)
            )
        if high is None:
            stop = len(self._keys)
        else:
            stop = (
                bisect.bisect_right(self._keys, high)
                if include_high
                else bisect.bisect_left(self._keys, high)
            )
        for i in range(start, stop):
            key = self._keys[i]
            yield key, self._map[key]

    def prefix_scan(self, prefix: str) -> Iterator[tuple[str, set[int]]]:
        """Yield ``(key, row_ids)`` for string keys starting with ``prefix``.

        Implements ``LIKE 'prefix%'`` without a full scan: the upper bound
        is the prefix with its last character incremented.
        """
        if prefix == "":
            yield from self.range_scan()
            return
        start = bisect.bisect_left(self._keys, prefix)
        for i in range(start, len(self._keys)):
            key = self._keys[i]
            if not isinstance(key, str) or not key.startswith(prefix):
                break
            yield key, self._map[key]

    def __len__(self) -> int:
        return len(self._keys)

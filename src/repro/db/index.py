"""In-memory indexes for the embedded database.

Two index structures are provided:

* :class:`HashIndex` — a dict from key tuple to its posting (below).  O(1)
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

A key's *posting* is the bare rid while one row carries the key and a
``set`` of rids from the second on (:func:`post` / :func:`unpost`; the data
decides, not a uniqueness flag: under MVCC a unique key keeps a dead and a
live rid).  An int is 216 bytes smaller than a one-element set and the
cyclic collector does not walk it.  ``lookup``, the scans and ``postings``
hand out an iterable of rids, possibly empty; do not mutate it.

Both index types intentionally keep entries for *dead* MVCC tuples until
the owning table vacuums them (see :mod:`repro.db.postgres_engine`); the
cost of filtering dead entries out of lookups is what produces the paper's
Figure 8 sawtooth, so the behaviour is load-bearing, not an accident.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

#: What a table hands an index: ``(rid, stored row)`` pairs.
RowPairs = Sequence[tuple[int, tuple[Any, ...]]]


def post(postings: dict, key: Any, rid: int) -> bool:
    """Put ``rid`` under ``key``; true when the key is new."""
    held = postings.get(key)
    if held is None:
        postings[key] = rid
        return True
    if type(held) is set:
        held.add(rid)
    elif held != rid:
        postings[key] = {held, rid}
    return False


def unpost(postings: dict, key: Any, rid: int) -> bool:
    """Take ``rid`` from under ``key``; true when the key is gone."""
    held = postings.get(key)
    if type(held) is set:
        held.discard(rid)
        if len(held) == 1:
            (postings[key],) = held
    elif held == rid:
        del postings[key]
        return True
    return False


def _rids(held: "int | set[int] | None") -> Collection[int]:
    """A posting as the iterable of rids readers are promised."""
    if held is None:
        return ()
    return held if type(held) is set else (held,)


class HashIndex:
    """Equality index mapping a key tuple to the row ids holding it."""

    __slots__ = ("name", "column_positions", "key_for", "_map")

    def __init__(self, name: str, column_positions: Iterable[int]) -> None:
        self.name = name
        self.column_positions = tuple(column_positions)
        #: ``row -> key tuple``, fixed when the index is created.
        self.key_for: Callable[[Sequence[Any]], tuple] = _key_getter(
            self.column_positions
        )
        self._map: dict[tuple, int | set[int]] = {}

    def insert(self, key: tuple, rid: int) -> None:
        post(self._map, key, rid)

    def insert_rows(self, pairs: RowPairs) -> None:
        key_for, by_key = self.key_for, self._map
        for rid, row in pairs:
            post(by_key, key_for(row), rid)

    def remove(self, key: tuple, rid: int) -> None:
        unpost(self._map, key, rid)

    def remove_rows(self, pairs: RowPairs) -> None:
        key_for, by_key = self.key_for, self._map
        for rid, row in pairs:
            unpost(by_key, key_for(row), rid)

    def lookup(self, key: tuple) -> Collection[int]:
        """Row ids whose indexed columns equal ``key`` (may include dead rows)."""
        return _rids(self._map.get(key))

    def postings(self) -> Iterator[tuple[tuple, Collection[int]]]:
        """``(key, row_ids)`` per distinct key."""
        return ((key, _rids(held)) for key, held in self._map.items())

    def __len__(self) -> int:
        return len(self._map)

    def distinct_keys(self) -> Iterator[tuple]:
        return iter(self._map)


def _key_getter(positions: tuple[int, ...]) -> Callable[[Sequence[Any]], tuple]:
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions)  # a tuple for two positions or more


class OrderedIndex:
    """Sorted index over a single column supporting prefix/range scans.

    The distinct keys are kept in one sorted list and each key maps to the
    row ids carrying it.  Only single-column ordered indexes are
    needed by the RLS schema (name columns).
    """

    __slots__ = ("name", "column_position", "_keys", "_map")

    def __init__(self, name: str, column_position: int) -> None:
        self.name = name
        self.column_position = column_position
        self._keys: list[Any] = []
        self._map: dict[Any, int | set[int]] = {}

    def key_for(self, row: Sequence[Any]) -> Any:
        return row[self.column_position]

    def insert(self, key: Any, rid: int) -> None:
        self._insert(((key, rid),))

    def insert_rows(self, pairs: RowPairs) -> None:
        position = self.column_position
        self._insert([(row[position], rid) for rid, row in pairs])

    def _insert(self, entries: Iterable[tuple[Any, int]]) -> None:
        """Index every ``(key, rid)``, then merge the new keys in one go."""
        by_key = self._map
        new = [key for key, rid in entries if post(by_key, key, rid)]
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
        if unpost(self._map, key, rid):
            pos = bisect.bisect_left(self._keys, key)
            if pos < len(self._keys) and self._keys[pos] == key:
                del self._keys[pos]

    def remove_rows(self, pairs: RowPairs) -> None:
        position, remove = self.column_position, self.remove
        for rid, row in pairs:
            remove(row[position], rid)

    def lookup(self, key: Any) -> Collection[int]:
        return _rids(self._map.get(key))

    def postings(self) -> Iterator[tuple[Any, Collection[int]]]:
        """``(key, row_ids)`` per distinct key, in no particular order."""
        return ((key, _rids(held)) for key, held in self._map.items())

    def distinct_keys(self) -> Iterator[Any]:
        """The key list, which is to hold every posting key, in order."""
        return iter(self._keys)

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Collection[int]]]:
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
            yield key, _rids(self._map[key])

    def prefix_scan(self, prefix: str) -> Iterator[tuple[str, Collection[int]]]:
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
            yield key, _rids(self._map[key])

    def __len__(self) -> int:
        return len(self._keys)

"""In-memory indexes for the embedded database.

Two index structures are provided:

* :class:`HashIndex` — a dict from key to its posting (below).  O(1)
  equality lookups; used for the surrogate-key and name lookups that
  dominate RLS traffic.  An index over one column is keyed by the
  column's value itself, one over two or more by the tuple of their
  values: a probe passes its key in that form, and a one-column key
  costs no 56-byte tuple beside the value the row already holds.
* :class:`OrderedIndex` — the distinct keys in order, supporting range
  and prefix scans, which back SQL ``LIKE 'prefix%'`` — the RLS wildcard
  queries.  The keys live in consecutive sorted *runs* of fewer than
  ``2 * RUN_LENGTH`` keys each, beside the list of each run's last key.
  A new key costs one :mod:`bisect` of the last keys, one ``insort`` into
  its run and so a memmove of at most one run, whatever the index's size;
  a run that reaches ``2 * RUN_LENGTH`` keys is split in two, a run left
  empty is dropped.  A removed key is the same two bisects and one
  ``del``.  A statement's new keys are placed one by one as well: a bulk
  load costs about what one sort per statement cost, and at paper scale
  far less (both in EXPERIMENTS.md, beside the scalar cost).

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

from bisect import bisect_left, bisect_right, insort
from functools import partial
from itertools import chain, islice, takewhile
from operator import ge, gt, itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

#: What a table hands an index: ``(rid, stored row)`` pairs.
RowPairs = Sequence[tuple[int, tuple[Any, ...]]]

#: Keys per run of an :class:`OrderedIndex` after a split; a run is split
#: when it reaches twice this.
RUN_LENGTH = 512


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
    """Equality index mapping a key to the row ids holding it: the value
    itself over one column, the tuple of values over several."""

    __slots__ = ("name", "column_positions", "key_for", "_map")

    def __init__(self, name: str, column_positions: Iterable[int]) -> None:
        self.name = name
        self.column_positions = tuple(column_positions)
        #: ``row -> key``, fixed when the index is created.
        self.key_for: Callable[[Sequence[Any]], Any] = itemgetter(
            *self.column_positions
        )
        self._map: dict[Any, int | set[int]] = {}

    def insert(self, key: Any, rid: int) -> None:
        post(self._map, key, rid)

    def insert_rows(self, pairs: RowPairs) -> None:
        key_for, by_key = self.key_for, self._map
        for rid, row in pairs:
            post(by_key, key_for(row), rid)

    def remove(self, key: Any, rid: int) -> None:
        unpost(self._map, key, rid)

    def remove_rows(self, pairs: RowPairs) -> None:
        key_for, by_key = self.key_for, self._map
        for rid, row in pairs:
            unpost(by_key, key_for(row), rid)

    def lookup(self, key: Any) -> Collection[int]:
        """Row ids whose indexed columns equal ``key`` (may include dead rows)."""
        return _rids(self._map.get(key))

    def postings(self) -> Iterator[tuple[Any, Collection[int]]]:
        """``(key, row_ids)`` per distinct key."""
        return ((key, _rids(held)) for key, held in self._map.items())

    def __len__(self) -> int:
        return len(self._map)

    def distinct_keys(self) -> Iterator[Any]:
        return iter(self._map)


class OrderedIndex:
    """Sorted index over a single column supporting prefix/range scans.

    The distinct keys are kept in sorted runs (see the module docstring)
    and each key maps to the row ids carrying it.  Only single-column
    ordered indexes are needed by the RLS schema (name columns).
    """

    __slots__ = ("name", "column_position", "_runs", "_lasts", "_map")

    def __init__(self, name: str, column_position: int) -> None:
        self.name = name
        self.column_position = column_position
        #: The distinct keys, in order, cut into runs; none is empty.
        self._runs: list[list[Any]] = []
        #: ``_lasts[i] == _runs[i][-1]``: what a key is bisected against.
        self._lasts: list[Any] = []
        self._map: dict[Any, int | set[int]] = {}

    def key_for(self, row: Sequence[Any]) -> Any:
        return row[self.column_position]

    def insert(self, key: Any, rid: int) -> None:
        if post(self._map, key, rid):
            self._place(key)

    def insert_rows(self, pairs: RowPairs) -> None:
        position, by_key, place = self.column_position, self._map, self._place
        for rid, row in pairs:
            if post(by_key, row[position], rid):
                place(row[position])

    def _place(self, key: Any) -> None:
        """Put ``key`` (not in the runs yet) in its run, splitting a full one."""
        runs, lasts = self._runs, self._lasts
        i = bisect_left(lasts, key)
        if i < len(lasts):
            run = runs[i]
            insort(run, key)
        elif runs:  # past every key: the last run grows
            i -= 1
            run = runs[i]
            run.append(key)
            lasts[i] = key
        else:
            runs.append([key])
            lasts.append(key)
            return
        if len(run) >= 2 * RUN_LENGTH:
            runs.insert(i + 1, run[RUN_LENGTH:])
            del run[RUN_LENGTH:]
            lasts.insert(i, run[-1])

    def remove(self, key: Any, rid: int) -> None:
        if not unpost(self._map, key, rid):
            return
        runs, lasts = self._runs, self._lasts
        i = bisect_left(lasts, key)
        run = runs[i]
        del run[bisect_left(run, key)]
        if not run:
            del runs[i], lasts[i]
        elif lasts[i] == key:
            lasts[i] = run[-1]

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
        """Every key of the runs, which are to hold every posting key, in order."""
        return chain.from_iterable(self._runs)

    def _keys_from(self, low: Any, after: bool) -> Iterator[Any]:
        """The keys from the first one ``>= low`` (``> low`` when
        ``after``) on, in order."""
        runs = self._runs
        find = bisect_right if after else bisect_left
        i = find(self._lasts, low)
        if i < len(runs):
            yield from islice(runs[i], find(runs[i], low), None)
            yield from chain.from_iterable(islice(runs, i + 1, None))

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Collection[int]]]:
        """Yield ``(key, row_ids)`` for keys within [low, high] in order."""
        if low is None:
            keys = self.distinct_keys()
        else:
            keys = self._keys_from(low, after=not include_low)
        if high is not None:
            keys = takewhile(partial(ge if include_high else gt, high), keys)
        by_key = self._map
        for key in keys:
            yield key, _rids(by_key[key])

    def prefix_scan(self, prefix: str) -> Iterator[tuple[str, Collection[int]]]:
        """Yield ``(key, row_ids)`` for string keys starting with ``prefix``.

        Implements ``LIKE 'prefix%'`` without a full scan: it starts at
        the first key not below the prefix and stops at the first key
        that does not start with it.
        """
        if prefix == "":
            yield from self.range_scan()
            return
        by_key = self._map
        for key in self._keys_from(prefix, after=False):
            if not isinstance(key, str) or not key.startswith(prefix):
                break
            yield key, _rids(by_key[key])

    def check_runs(self) -> list[str]:
        """One phrase per broken invariant of the runs (empty = healthy)."""
        runs, broken = self._runs, []
        if not all(0 < len(run) < 2 * RUN_LENGTH for run in runs):
            broken.append(f"a run is empty or holds {2 * RUN_LENGTH} keys or more")
        if not all(a < b for run in runs for a, b in zip(run, run[1:])):
            broken.append("a run is not strictly sorted")
        if not all(a[-1] < b[0] for a, b in zip(runs, runs[1:]) if a and b):
            broken.append("runs out of order")
        if self._lasts != [run[-1] for run in runs if run]:
            broken.append("a recorded last key is stale")
        if set(self.distinct_keys()) != self._map.keys():
            broken.append("the runs do not hold exactly the posting keys")
        return broken

    def __len__(self) -> int:
        return len(self._map)

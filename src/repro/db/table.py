"""Table objects: schema + row heap + index maintenance + constraints."""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Collection, Iterable, Iterator

from repro.db.errors import (
    DBError,
    DuplicateKeyError,
    NoSuchIndexError,
)
from repro.db.index import HashIndex, OrderedIndex
from repro.db.profiler import TimedLatch
from repro.db.schema import TableSchema
from repro.db.storage import Row, RowHeap
from repro.obs.metrics import MetricsRegistry


class Table:
    """One table of the embedded database.

    Parameters
    ----------
    schema:
        Column and key declarations.
    eager_index_cleanup:
        If true (MySQL-flavoured storage), deleting a row removes its index
        entries and reclaims the heap slot immediately.  If false
        (PostgreSQL-flavoured MVCC storage), deletes only tombstone the row;
        index entries keep pointing at the dead tuple until :meth:`vacuum`,
        and every reader pays to skip them.  The RLS paper's Figure 8
        measures exactly this cost.

    Thread safety: a single re-entrant latch serializes structural
    mutations; reads take the same latch.  The coarse latch is intentional —
    it reproduces the serialized-ingest behaviour of the paper's RLI back
    end under concurrent soft-state updates (Figure 12).  With a metrics
    registry, contended latch acquisitions are observed into
    ``db.latch_wait{table=...}`` so multi-client runs expose the
    serialization directly.

    Writes and index probes are statement-at-a-time: :meth:`insert_many`,
    :meth:`delete_many` and :meth:`lookup_index_many` take the latch once
    for all the rows of a statement, and :meth:`insert` /
    :meth:`delete_rid` are their one-element case.  What a write needs to
    know about the table (autoincrement positions, which indexes enforce
    uniqueness and which can wait for the statement's end) is worked out
    when the table and its indexes are created, not per call.

    ``on_ddl``, when the owning database has set it, is called after
    every index creation, so the database can retire the SQL plans that
    chose their access path without that index.
    """

    def __init__(
        self,
        schema: TableSchema,
        eager_index_cleanup: bool = True,
        dead_hit_cost: float = 0.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.schema = schema
        self.on_ddl: Callable[[], None] | None = None
        self.eager_index_cleanup = eager_index_cleanup
        #: Modelled seconds charged per dead index entry skipped during a
        #: lookup.  In PostgreSQL each dead index entry costs a heap fetch
        #: to discover the tuple is dead; in this in-memory engine that
        #: check is nearly free, so the MVCC-flavoured engine charges this
        #: instead (see repro.db.postgres_engine).
        self.dead_hit_cost = dead_hit_cost
        self.heap = RowHeap()
        self.latch = TimedLatch(
            hist=(
                metrics.histogram("db.latch_wait", table=schema.name)
                if metrics is not None
                else None
            ),
            reentrant=True,
        )
        self._autoinc = itertools.count(1)
        self._autoinc_positions = tuple(
            pos for pos, col in enumerate(schema.columns) if col.autoincrement
        )
        self._hash_indexes: dict[str, HashIndex] = {}
        self._ordered_indexes: dict[str, OrderedIndex] = {}
        self._all_indexes: list[HashIndex | OrderedIndex] = []
        # Unique constraints: (positions tuple, HashIndex) pairs.
        self._unique: list[tuple[tuple[int, ...], HashIndex]] = []
        self.stats = TableStats()
        for i, key in enumerate(schema.key_constraints()):
            positions = tuple(schema.column_index(c) for c in key)
            idx = self._make_hash_index(f"__key_{i}_" + "_".join(key), positions)
            self._unique.append((positions, idx))
        # Auto-index single-column keys are already hash indexes; callers add
        # ordered indexes for LIKE-prefix columns explicitly.
        #
        # An insert maintains the unique indexes row by row (a later row
        # of the same statement may collide with an earlier one) and the
        # indexes created afterwards once per statement.
        self._unique_writes = tuple(
            (idx, idx.key_for, schema.columns[positions[0]].name)
            for positions, idx in self._unique
        )
        self._deferred_indexes: list[HashIndex | OrderedIndex] = []

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def _make_hash_index(self, name: str, positions: tuple[int, ...]) -> HashIndex:
        idx = HashIndex(name, positions)
        self._hash_indexes[name] = idx
        self._all_indexes.append(idx)
        return idx

    def create_hash_index(self, name: str, columns: list[str]) -> HashIndex:
        """Create (and backfill) a hash index over ``columns``."""
        with self.latch:
            if name in self._hash_indexes or name in self._ordered_indexes:
                raise DBError(f"index already exists: {name!r}")
            positions = tuple(self.schema.column_index(c) for c in columns)
            idx = self._make_hash_index(name, positions)
            idx.insert_rows(list(self.heap.scan_live()))
            self._deferred_indexes.append(idx)
        if self.on_ddl is not None:
            self.on_ddl()
        return idx

    def create_ordered_index(self, name: str, column: str) -> OrderedIndex:
        """Create (and backfill) an ordered index over one column."""
        with self.latch:
            if name in self._hash_indexes or name in self._ordered_indexes:
                raise DBError(f"index already exists: {name!r}")
            idx = OrderedIndex(name, self.schema.column_index(column))
            self._ordered_indexes[name] = idx
            self._all_indexes.append(idx)
            idx.insert_rows(list(self.heap.scan_live()))
            self._deferred_indexes.append(idx)
        if self.on_ddl is not None:
            self.on_ddl()
        return idx

    def get_index(self, name: str) -> HashIndex | OrderedIndex:
        idx = self._hash_indexes.get(name, self._ordered_indexes.get(name))
        if idx is None:
            raise NoSuchIndexError(name)
        return idx

    def find_hash_index(self, columns: tuple[str, ...]) -> HashIndex | None:
        """Best-effort lookup of a hash index covering exactly ``columns``."""
        positions = tuple(self.schema.column_index(c) for c in columns)
        for idx in self._hash_indexes.values():
            if idx.column_positions == positions:
                return idx
        return None

    def covered_hash_index(self, positions: Collection[int]) -> HashIndex | None:
        """Widest hash index all of whose columns are among ``positions``."""
        best: HashIndex | None = None
        for idx in self._hash_indexes.values():
            if all(p in positions for p in idx.column_positions) and (
                best is None
                or len(idx.column_positions) > len(best.column_positions)
            ):
                best = idx
        return best

    def find_ordered_index(self, column: str) -> OrderedIndex | None:
        position = self.schema.column_index(column)
        for idx in self._ordered_indexes.values():
            if idx.column_position == position:
                return idx
        return None

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------

    def insert(self, values: dict[str, Any]) -> tuple[int, Row]:
        """Insert a row; returns ``(rid, stored_row)``."""
        return self.insert_many((values,))[0]

    def insert_many(
        self,
        rows: Iterable[dict[str, Any]],
        stored: list[tuple[int, Row]] | None = None,
    ) -> list[tuple[int, Row]]:
        """Insert the rows of one statement under one latch hold; returns
        ``(rid, stored_row)`` per row.

        Row by row, in this order: coerce, fill autoincrement columns,
        freeze to a tuple (nothing mutates a stored row, and the cyclic
        collector stops tracking a tuple of strings and ints), enforce
        unique/PK constraints (paying the dead-tuple filtering cost in
        MVCC mode), store.  A row that fails leaves the rows
        before it inserted and indexed, exactly as that many single
        inserts would; a caller that needs to know which passes its own
        ``stored`` list, which is appended to as rows go in.
        """
        if stored is None:
            stored = []
        first = len(stored)
        coerce = self.schema.coerce_row
        autoinc_positions, unique = self._autoinc_positions, self._unique_writes
        heap_insert, is_dead = self.heap.insert, self.heap.is_dead
        with self.latch:
            try:
                for values in rows:
                    row = coerce(values)
                    for pos in autoinc_positions:
                        if row[pos] is None:
                            row[pos] = next(self._autoinc)
                    row = tuple(row)
                    for idx, key_for, colname in unique:
                        key = key_for(row)
                        rids = idx.lookup(key)
                        if rids:
                            dead_hits = sum(map(is_dead, rids))
                            self._charge_dead_hits(dead_hits)
                            if dead_hits < len(rids):
                                raise DuplicateKeyError(
                                    self.schema.name,
                                    colname,
                                    tuple(row[p] for p in idx.column_positions),
                                )
                    rid = heap_insert(row)
                    for idx, key_for, _colname in unique:
                        idx.insert(key_for(row), rid)
                    stored.append((rid, row))
            finally:
                new = stored[first:]
                self.stats.inserts += len(new)
                for idx in self._deferred_indexes:
                    idx.insert_rows(new)
        return new

    def _charge_dead_hits(self, dead_hits: int) -> None:
        self.stats.dead_index_hits += dead_hits
        if dead_hits and self.dead_hit_cost > 0.0:
            time.sleep(dead_hits * self.dead_hit_cost)

    def delete_rid(self, rid: int) -> Row:
        """Delete one live row by rid; returns the old row."""
        return self.delete_many((rid,))[0][1]

    def delete_many(
        self,
        rids: Iterable[int],
        deleted: list[tuple[int, Row]] | None = None,
    ) -> list[tuple[int, Row]]:
        """Delete the live rows of one statement under one latch hold;
        returns ``(rid, old_row)`` per row.  A rid that is already dead
        raises and leaves the ones before it deleted (``deleted``, when
        given, is appended to as rows go)."""
        if deleted is None:
            deleted = []
        first = len(deleted)
        mark_dead = self.heap.mark_dead
        with self.latch:
            try:
                for rid in rids:
                    deleted.append((rid, mark_dead(rid)))
            finally:
                gone = deleted[first:]
                self.stats.deletes += len(gone)
                if self.eager_index_cleanup:
                    for idx in self._all_indexes:
                        idx.remove_rows(gone)
                    for rid, _row in gone:
                        self.heap.reclaim(rid)
        return gone

    def update_rid(self, rid: int, changes: dict[str, Any]) -> tuple[int, Row]:
        """MVCC-style update: tombstone the old version, insert the new one.

        Returns the new ``(rid, row)``.
        """
        with self.latch:
            old = self.heap.get(rid)
            new_values = {
                col.name: old[i] for i, col in enumerate(self.schema.columns)
            }
            new_values.update(changes)
            # Delete first so single-row unique updates don't self-collide.
            self.delete_rid(rid)
            try:
                return self.insert(new_values)
            except DBError:
                # Restore the old row so a failed update is not a delete.
                restored = {
                    col.name: old[i]
                    for i, col in enumerate(self.schema.columns)
                }
                self.insert(restored)
                raise

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Snapshot scan of live rows (materialized under the latch)."""
        with self.latch:
            return iter(list(self.heap.scan_live()))

    def live_rows(self) -> list[Row]:
        """The live rows themselves, in heap order, without their rids."""
        with self.latch:
            return self.heap.live_rows()

    def lookup_equal(
        self, columns: tuple[str, ...], key: tuple
    ) -> list[tuple[int, Row]]:
        """Live rows whose ``columns`` equal ``key``, via an index if any
        (which is keyed by the bare value when it has one column)."""
        idx = self.find_hash_index(columns)
        if idx is not None:
            probe = key[0] if len(idx.column_positions) == 1 else key
            return self.lookup_index_many(idx, (probe,))
        positions = tuple(self.schema.column_index(c) for c in columns)
        with self.latch:
            return [
                (rid, row)
                for rid, row in self.heap.scan_live()
                if tuple(row[p] for p in positions) == key
            ]

    def lookup_index_many(
        self, idx: HashIndex, keys: Iterable[Any]
    ) -> list[tuple[int, Row]]:
        """Live rows under each of ``keys`` in turn in one of this
        table's hash indexes, one latch hold for the whole list (an
        equality probe has one key, an ``IN`` probe many).  Each key is
        in the index's form: the bare value over one column, the tuple
        over several.

        Dead index entries are filtered here (and counted), which is the
        mechanism behind the PostgreSQL vacuum experiment.
        """
        with self.latch:
            get_live, lookup = self.heap.get_live, idx.lookup
            result: list[tuple[int, Row]] = []
            dead_hits = 0
            for key in keys:
                for rid in lookup(key):
                    row = get_live(rid)
                    if row is None:
                        dead_hits += 1
                    else:
                        result.append((rid, row))
            if dead_hits:
                self._charge_dead_hits(dead_hits)
            return result

    def prefix_index(self, idx: OrderedIndex, prefix: str) -> list[tuple[int, Row]]:
        """Live rows whose key in one of this table's ordered indexes
        starts with ``prefix``."""
        with self.latch:
            get_live = self.heap.get_live
            result: list[tuple[int, Row]] = []
            for _key, rids in idx.prefix_scan(prefix):
                for rid in rids:
                    row = get_live(rid)
                    if row is not None:
                        result.append((rid, row))
            return result

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def vacuum(self) -> int:
        """Physically remove tombstoned rows and their index entries.

        Returns the number of dead tuples reclaimed.  The PostgreSQL engine
        exposes this as the SQL ``VACUUM`` statement.
        """
        with self.latch:
            reclaimed = 0
            for rid in list(self.heap.scan_dead()):
                row = self.heap.get(rid)
                for idx in self._all_indexes:
                    idx.remove(idx.key_for(row), rid)
                self.heap.reclaim(rid)
                reclaimed += 1
            self.stats.vacuums += 1
            self.stats.tuples_reclaimed += reclaimed
            return reclaimed

    def check_integrity(self) -> list[str]:
        """fsck-style self-check: every live row must be reachable through
        every index under its own key, every index entry must point at a
        heap row (live or pending vacuum), a posting is a set only from
        two rids up, an ordered index's runs are non-empty, short of the
        split length, strictly sorted within and across their boundaries,
        recorded by their true last keys and hold exactly the posting
        keys (:meth:`OrderedIndex.check_runs`), and unique constraints must
        actually hold.  Returns a list of problem descriptions (empty =
        healthy)."""
        problems: list[str] = []
        with self.latch:
            name = self.schema.name
            live = dict(self.heap.scan_live())
            for idx in self._all_indexes:
                at = f"{name}: index {idx.name}"
                for rid, row in live.items():
                    key = idx.key_for(row)
                    if rid not in idx.lookup(key):
                        problems.append(
                            f"{name}: live row {rid} missing from index "
                            f"{idx.name} under key {key!r}"
                        )
                for key, rids in idx.postings():
                    if isinstance(rids, set) and len(rids) < 2:
                        problems.append(f"{at} key {key!r} holds a set of {len(rids)}")
                    for rid in rids:
                        try:
                            self.heap.get(rid)
                        except KeyError:
                            problems.append(f"{at}: {key!r} -> reclaimed row {rid}")
                if isinstance(idx, OrderedIndex) and (broken := idx.check_runs()):
                    problems.append(f"{at} runs: {'; '.join(broken)}")
            for _positions, idx in self._unique:
                seen: dict[Any, int] = {}
                for rid, row in live.items():
                    key = idx.key_for(row)
                    if key in seen:
                        problems.append(
                            f"{name}: unique violation on {key!r}: rows "
                            f"{seen[key]} and {rid}"
                        )
                    seen[key] = rid
        return problems

    @property
    def row_count(self) -> int:
        return self.heap.live_count

    @property
    def dead_tuple_count(self) -> int:
        return self.heap.dead_count


class TableStats:
    """Lightweight operation counters for instrumentation and tests."""

    __slots__ = ("inserts", "deletes", "dead_index_hits", "vacuums", "tuples_reclaimed")

    def __init__(self) -> None:
        self.inserts = 0
        self.deletes = 0
        self.dead_index_hits = 0
        self.vacuums = 0
        self.tuples_reclaimed = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

"""Replica Location Index (RLI).

An RLI aggregates soft state from one or more LRCs and answers the
question "which LRCs hold mappings for this logical name?".  Following the
paper's v2.0.9 behaviour it keeps two stores:

* **Relational store** for full/incremental (uncompressed) updates — the
  three tables on the right of Figure 3: ``t_lfn``, ``t_lrc`` and a
  ``t_map`` whose rows carry an ``updatetime`` timestamp.  An expire pass
  discards mappings older than the soft-state timeout.  Every write to
  ``t_lfn``/``t_map`` is ``_refresh`` or ``_drop``, on the logged
  statement-at-a-time storage primitives, so the WAL sees all of them.
* **Bloom store** for compressed updates — one in-memory Bloom filter per
  sending LRC, no database at all, "which provides fast soft state update
  and query performance" (§3.4).  Wildcard queries are impossible against
  Bloom filters and raise :class:`WildcardNotSupportedError` (§5.4).

A query consults both stores, since different LRCs may update the same RLI
in different modes — but the relational store only once some LRC has sent
an uncompressed update: a Bloom-only RLI answers from memory, with no SQL.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Iterable, Sequence

from repro.core.bloom import BloomFilter, BloomParameters, FilterTable
from repro.core.errors import (
    MappingNotFoundError,
    WildcardNotSupportedError,
)
from repro.core.naming import has_wildcard, wildcard_to_like
from repro.db.odbc import Connection
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

#: Default soft-state lifetime.  The Globus default full-update interval is
#: much shorter; entries must survive a few missed updates.
DEFAULT_TIMEOUT = 30 * 60.0

# Names _refresh writes at a time (bounds what it holds besides the index).
_CHUNK = 1024

_RLI_SCHEMA = [
    """CREATE TABLE t_lfn (
        id INT(11) NOT NULL AUTO_INCREMENT,
        name VARCHAR(250) NOT NULL,
        ref INT(11) NOT NULL,
        PRIMARY KEY (id),
        UNIQUE (name))""",
    "CREATE INDEX t_lfn_name_prefix ON t_lfn (name) USING BTREE",
    """CREATE TABLE t_lrc (
        id INT(11) NOT NULL AUTO_INCREMENT,
        name VARCHAR(250) NOT NULL,
        ref INT(11) NOT NULL,
        PRIMARY KEY (id),
        UNIQUE (name))""",
    """CREATE TABLE t_map (
        lfn_id INT(11) NOT NULL,
        pfn_id INT(11) NOT NULL,
        updatetime TIMESTAMP NOT NULL,
        PRIMARY KEY (lfn_id, pfn_id))""",
    "CREATE INDEX t_map_lfn ON t_map (lfn_id)",
    "CREATE INDEX t_map_lrc ON t_map (pfn_id)",
]
# Note: the paper's RLI t_map column is named pfn_id even though it holds
# an LRC id (Figure 3); we keep the name for fidelity.  Stored rows are
# tuples in column order, which the ingest helpers index by position.


class _ReceivedFilter(BloomFilter):
    """One LRC's filter as the RLI holds it; never changed once published."""

    __slots__ = ("received_at", "updates_received")


class ReplicaLocationIndex:
    """The RLI service logic, independent of any RPC front end."""

    def __init__(
        self,
        connection: Connection,
        name: str = "rli",
        timeout: float = DEFAULT_TIMEOUT,
        clock: Callable[[], float] = time.time,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.conn = connection
        self.name = name
        self.timeout = timeout
        self.clock = clock
        # The Bloom store is published as immutable snapshots: writers
        # build a new table and swap it in under ``_bloom_lock``; readers
        # take whichever reference is current, without the lock.
        self._bloom_lock = threading.RLock()
        self._bloom = FilterTable({})
        self._write_lock = threading.RLock()
        # Whether a query must consult the relational store.  True until
        # ``init_schema`` finds ``t_lrc`` empty, set again by any relational
        # ingest, never cleared by expiry: it may be conservatively true
        # but is never wrongly false.
        self._relational = True
        self.updates_applied = 0
        # Wall-clock receipt time of the newest soft-state update per LRC
        # (both stores), for the rli.staleness_age gauge.
        self._last_update_at: dict[str, float] = {}
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = registry
        self._m_apply = {
            kind: (
                registry.counter("rli.updates_applied", kind=kind),
                registry.histogram("rli.update_apply_latency", kind=kind),
            )
            for kind in ("full", "incremental", "bloom")
        }
        self._m_expired = registry.counter("rli.entries_expired")
        registry.register_gauge_fn("rli.mappings", self.mapping_count)
        registry.register_gauge_fn("rli.bloom_filters", self.bloom_filter_count)
        registry.register_gauge_fn("rli.staleness_age", self.staleness_age)

    def _record_apply(self, kind: str, lrc_name: str, elapsed: float) -> None:
        """Count one applied update and refresh the per-LRC staleness clock."""
        counter, histogram = self._m_apply[kind]
        counter.inc()
        if not histogram.noop:
            histogram.observe(elapsed)
        self._last_update_at[lrc_name] = self.clock()

    def staleness_age(self) -> float:
        """Seconds since the least-recently-updated LRC sent soft state.

        This is the worst-case age of the index's view of any contributing
        LRC — the paper's soft-state consistency measure.  Zero when no
        updates have been received yet.
        """
        if not self._last_update_at:
            return 0.0
        now = self.clock()
        return max(0.0, now - min(self._last_update_at.values()))

    def staleness_ages(self) -> dict[str, float]:
        """Per-LRC soft-state age in seconds (``rls top`` drill-down)."""
        now = self.clock()
        return {
            lrc: max(0.0, now - at)
            for lrc, at in sorted(self._last_update_at.items())
        }

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def init_schema(self) -> None:
        db = self.conn.database
        for statement in _RLI_SCHEMA:
            head = statement.split("(")[0].split()
            if head[1].upper() == "TABLE" and db.has_table(head[2]):
                continue
            if head[1].upper() == "INDEX":
                table_name = statement.split(" ON ")[1].split()[0]
                try:
                    db.table(table_name).get_index(head[2])
                    continue
                except Exception:
                    pass
            self.conn.execute(statement)
        with self._write_lock:
            self._relational = bool(
                self.conn.execute("SELECT COUNT(*) FROM t_lrc").scalar()
            )

    # ------------------------------------------------------------------
    # Soft-state ingest: uncompressed
    # ------------------------------------------------------------------

    def apply_full_update(self, lrc_name: str, lfns: Iterable[str]) -> int:
        """Apply a full uncompressed update: the list becomes this LRC's state.

        Every listed LFN is refreshed, and this LRC's mappings the list
        does not name are dropped: a full is authoritative for the LRC it
        comes from, as a Bloom full replaces its filter (DESIGN.md §5,
        decision 4).  The drop is a set difference, not a timestamp test,
        so it also holds for two fulls at one clock reading.  Returns the
        number of distinct LFNs listed.
        """
        now = self.clock()
        start = time.perf_counter()
        with self._write_lock, self.conn.transaction():
            lrc_id = self._get_or_insert_lrc(lrc_name)
            listed = self._refresh(lrc_id, lfns, now)
            t_map, by_lrc = self._index("t_map", "pfn_id")
            self._drop(
                (rid, row)
                for rid, row in t_map.lookup_index_many(by_lrc, (lrc_id,))
                if row[0] not in listed
            )
            self.updates_applied += 1
        self._record_apply("full", lrc_name, time.perf_counter() - start)
        return len(listed)

    def apply_incremental_update(
        self,
        lrc_name: str,
        added: Sequence[str],
        removed: Sequence[str],
    ) -> int:
        """Apply an immediate-mode delta (§3.3). Returns mappings touched."""
        now = self.clock()
        start = time.perf_counter()
        with self._write_lock, self.conn.transaction():
            lrc_id = self._get_or_insert_lrc(lrc_name)
            self._refresh(lrc_id, added, now)
            _ids, gone = self._held(lrc_id, dict.fromkeys(removed))
            self._drop(gone)
            self.updates_applied += 1
        self._record_apply("incremental", lrc_name, time.perf_counter() - start)
        return len(added) + len(removed)

    def _index(self, table_name: str, *columns: str):
        """A table and its hash index over exactly ``columns``."""
        table = self.conn.database.table(table_name)
        return table, table.find_hash_index(columns)

    def _held(self, lrc_id: int, names: Iterable[str]):
        """The ``t_lfn`` id of each of ``names`` that has one, and the
        ``t_map`` rows mapping those ids to ``lrc_id``: one probe a table."""
        t_lfn, by_name = self._index("t_lfn", "name")
        t_map, by_pair = self._index("t_map", "lfn_id", "pfn_id")
        ids = {
            row[1]: row[0]
            for _rid, row in t_lfn.lookup_index_many(by_name, names)
        }
        pairs = [(lfn_id, lrc_id) for lfn_id in ids.values()]
        return ids, t_map.lookup_index_many(by_pair, pairs)

    def _refresh(self, lrc_id: int, names: Iterable[str], now: float) -> set[int]:
        """Map every name to ``lrc_id`` as of ``now``, ``_CHUNK`` names at
        a time: the two probes of ``_held``, one insert per table for what
        is new, an update of each mapping already held.  Returns the
        ``t_lfn`` ids of the names."""
        db = self.conn.database
        listed: set[int] = set()
        names = iter(names)
        while chunk := dict.fromkeys(itertools.islice(names, _CHUNK)):
            ids, held = self._held(lrc_id, chunk)
            new = [name for name in chunk if name not in ids]
            stored = db.insert_rows("t_lfn", ({"name": n, "ref": 1} for n in new))
            ids.update(zip(new, (row[0] for _rid, row in stored)))
            for rid, _row in held:
                db.update_row("t_map", rid, {"updatetime": now})
            mapped = {row[0] for _rid, row in held}
            db.insert_rows(
                "t_map",
                (
                    {"lfn_id": lfn_id, "pfn_id": lrc_id, "updatetime": now}
                    for lfn_id in ids.values()
                    if lfn_id not in mapped
                ),
            )
            listed.update(ids.values())
        return listed

    def _drop(self, rows: Iterable[tuple[int, tuple]]) -> int:
        """Delete these ``(rid, row)`` of ``t_map``, then the ``t_lfn`` rows
        they leave with no mapping; returns the mappings deleted."""
        rows = list(rows)
        if not rows:
            return 0
        db = self.conn.database
        db.delete_rows("t_map", [rid for rid, _row in rows])
        t_map, by_lfn = self._index("t_map", "lfn_id")
        t_lfn, by_id = self._index("t_lfn", "id")
        lfn_ids = {row[0] for _rid, row in rows}
        still = t_map.lookup_index_many(by_lfn, lfn_ids)
        orphans = lfn_ids.difference(row[0] for _rid, row in still)
        found = t_lfn.lookup_index_many(by_id, orphans)
        db.delete_rows("t_lfn", [rid for rid, _row in found])
        return len(rows)

    # ------------------------------------------------------------------
    # Soft-state ingest: Bloom filters
    # ------------------------------------------------------------------

    def apply_bloom_update(
        self,
        lrc_name: str,
        bitmap: bytes,
        num_bits: int,
        num_hashes: int,
        approx_entries: int = 0,
    ) -> None:
        """Store/replace the in-memory Bloom filter for ``lrc_name``."""
        start = time.perf_counter()
        params = BloomParameters(num_bits=num_bits, num_hashes=num_hashes)
        bloom = _ReceivedFilter.from_bytes(bitmap, params, approx_entries)
        bloom.received_at = self.clock()
        with self._bloom_lock:
            held = self._bloom.filters
            previous = held.get(lrc_name)
            bloom.updates_received = (
                1 if previous is None else previous.updates_received + 1
            )
            self._bloom = FilterTable({**held, lrc_name: bloom})
            self.updates_applied += 1
        self._record_apply("bloom", lrc_name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, lfn: str) -> list[str]:
        """LRC names that (probably) hold mappings for ``lfn``.

        Results from Bloom filters carry the ~1 % false-positive caveat;
        clients recover by querying the returned LRCs (§3.2).  Raises
        :class:`MappingNotFoundError` when no LRC matches.
        """
        found = self._lookup(lfn)
        if not found:
            raise MappingNotFoundError(f"logical name not indexed: {lfn}")
        return found

    def _lookup(self, lfn: str) -> list[str]:
        """LRC names for ``lfn`` from both stores; empty when none match."""
        hits = self._bloom.matching(lfn)
        if self._relational:
            relational = self._query_relational(lfn)
            if relational:
                return list(dict.fromkeys(relational + hits))
        return hits

    def _query_relational(self, lfn: str) -> list[str]:
        rows = self.conn.execute(
            "SELECT c.name FROM t_lfn l "
            "JOIN t_map m ON l.id = m.lfn_id "
            "JOIN t_lrc c ON m.pfn_id = c.id "
            "WHERE l.name = ?",
            [lfn],
        ).rows
        return [r[0] for r in rows]

    def bulk_query(self, lfns: Sequence[str]) -> dict[str, list[str]]:
        """Query many LFNs; names with no hits are omitted from the result."""
        result: dict[str, list[str]] = {}
        for lfn in lfns:
            found = self._lookup(lfn)
            if found:
                result[lfn] = found
        return result

    def query_wildcard(self, pattern: str) -> list[tuple[str, str]]:
        """(lfn, lrc) pairs matching an RLS wildcard pattern.

        Only possible against the relational store; if this RLI holds any
        Bloom filters the operation fails, because filter contents cannot
        be enumerated (§5.4: wildcard searches "are not possible when using
        Bloom filter compression").
        """
        if self._bloom.filters:
            raise WildcardNotSupportedError(
                "RLI holds Bloom-filter state; wildcard queries are "
                "not supported"
            )
        like = wildcard_to_like(pattern) if has_wildcard(pattern) else pattern
        rows = self.conn.execute(
            "SELECT l.name, c.name FROM t_lfn l "
            "JOIN t_map m ON l.id = m.lfn_id "
            "JOIN t_lrc c ON m.pfn_id = c.id "
            "WHERE l.name LIKE ?",
            [like],
        ).rows
        return [(r[0], r[1]) for r in rows]

    # ------------------------------------------------------------------
    # Management / introspection
    # ------------------------------------------------------------------

    def lrc_list(self) -> list[str]:
        """Every LRC currently contributing state (both stores)."""
        relational = [
            r[0] for r in self.conn.execute("SELECT name FROM t_lrc").rows
        ]
        return sorted(set(relational) | set(self._bloom.filters))

    def mapping_count(self) -> int:
        return int(self.conn.execute("SELECT COUNT(*) FROM t_map").scalar())

    def bloom_filter_count(self) -> int:
        return len(self._bloom.filters)

    def bloom_stats(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "size_bytes": bloom.size_bytes,
                "received_at": bloom.received_at,
                "updates_received": bloom.updates_received,
                "fill_ratio": bloom.fill_ratio(),
            }
            for name, bloom in self._bloom.filters.items()
        }

    # ------------------------------------------------------------------
    # Soft-state expiry
    # ------------------------------------------------------------------

    def expire_once(self, now: float | None = None) -> int:
        """Discard state older than the timeout; returns entries dropped.

        This is the body of the paper's "expire thread [that] runs
        periodically and examines timestamps in the RLI mapping table".
        """
        current = self.clock() if now is None else now
        cutoff = current - self.timeout
        with self._write_lock, self.conn.transaction():
            dropped = self._drop(
                (rid, row)
                for rid, row in self.conn.database.table("t_map").scan()
                if row[2] < cutoff
            )
        with self._bloom_lock:
            held = self._bloom.filters
            live = {
                name: bloom
                for name, bloom in held.items()
                if bloom.received_at >= cutoff
            }
            if len(live) != len(held):
                dropped += len(held) - len(live)
                self._bloom = FilterTable(live)
        if dropped:
            self._m_expired.inc(dropped)
        return dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _get_or_insert_lrc(self, lrc_name: str) -> int:
        # Every relational ingest passes here; set before the insert, so a
        # query racing it may run one SELECT too many, never one too few.
        self._relational = True
        t_lrc, by_name = self._index("t_lrc", "name")
        for _rid, row in t_lrc.lookup_index_many(by_name, (lrc_name,)):
            return row[0]
        _rid, row = self.conn.database.insert_row(
            "t_lrc", {"name": lrc_name, "ref": 1}
        )
        return row[0]

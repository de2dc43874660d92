"""Replica Location Index (RLI).

An RLI aggregates soft state from one or more LRCs and answers the
question "which LRCs hold mappings for this logical name?".  Following the
paper's v2.0.9 behaviour it keeps two stores:

* **Relational store** for full/incremental (uncompressed) updates — the
  three tables on the right of Figure 3: ``t_lfn``, ``t_lrc`` and a
  ``t_map`` whose rows carry an ``updatetime`` timestamp.  An expire pass
  discards mappings older than the soft-state timeout.
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
from repro.db.errors import DuplicateKeyError
from repro.db.odbc import Connection
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

#: Default soft-state lifetime.  The Globus default full-update interval is
#: much shorter; entries must survive a few missed updates.
DEFAULT_TIMEOUT = 30 * 60.0

# Names bulk_load writes at a time (bounds what it holds besides the index).
_LOAD_CHUNK = 1024

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
# an LRC id (Figure 3); we keep the name for fidelity.


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
        """Apply a full uncompressed update: refresh every listed LFN.

        Mappings from this LRC that are *not* in the list simply age out at
        the soft-state timeout — full updates never delete eagerly.
        Returns the number of mappings refreshed.
        """
        now = self.clock()
        count = 0
        start = time.perf_counter()
        with self._write_lock:
            lrc_id = self._get_or_insert_lrc(lrc_name)
            for lfn in lfns:
                self._upsert_mapping(lfn, lrc_id, now)
                count += 1
            self.updates_applied += 1
        self._record_apply("full", lrc_name, time.perf_counter() - start)
        return count

    def apply_incremental_update(
        self,
        lrc_name: str,
        added: Sequence[str],
        removed: Sequence[str],
    ) -> int:
        """Apply an immediate-mode delta (§3.3). Returns mappings touched."""
        now = self.clock()
        start = time.perf_counter()
        with self._write_lock:
            lrc_id = self._get_or_insert_lrc(lrc_name)
            for lfn in added:
                self._upsert_mapping(lfn, lrc_id, now)
            for lfn in removed:
                self._remove_mapping(lfn, lrc_id)
            self.updates_applied += 1
        self._record_apply("incremental", lrc_name, time.perf_counter() - start)
        return len(added) + len(removed)

    def _upsert_mapping(self, lfn: str, lrc_id: int, now: float) -> None:
        lfn_id = self._get_or_insert_lfn(lfn)
        updated = self.conn.execute(
            "UPDATE t_map SET updatetime = ? WHERE lfn_id = ? AND pfn_id = ?",
            [now, lfn_id, lrc_id],
        ).rowcount
        if updated == 0:
            try:
                self.conn.execute(
                    "INSERT INTO t_map (lfn_id, pfn_id, updatetime) VALUES (?, ?, ?)",
                    [lfn_id, lrc_id, now],
                )
            except DuplicateKeyError:  # pragma: no cover - racing writers
                pass

    def _remove_mapping(self, lfn: str, lrc_id: int) -> None:
        rows = self.conn.execute(
            "SELECT id FROM t_lfn WHERE name = ?", [lfn]
        ).rows
        if not rows:
            return
        lfn_id = rows[0][0]
        self.conn.execute(
            "DELETE FROM t_map WHERE lfn_id = ? AND pfn_id = ?",
            [lfn_id, lrc_id],
        )
        remaining = self.conn.execute(
            "SELECT COUNT(*) FROM t_map WHERE lfn_id = ?", [lfn_id]
        ).scalar()
        if remaining == 0:
            self.conn.execute("DELETE FROM t_lfn WHERE id = ?", [lfn_id])

    def bulk_load(self, lrc_name: str, lfns: Iterable[str]) -> int:
        """Out-of-band initialization of the relational store (§4 setup).

        Writes the index tables directly, skipping the SQL layer; used by
        the benchmark harness to pre-populate an RLI before measuring.
        The names are taken ``_LOAD_CHUNK`` at a time: one index probe for
        the names ``t_lfn`` already holds and one for those this LRC
        already maps, then one ``insert_many`` per table.
        """
        now = self.clock()
        db = self.conn.database
        t_lfn, t_map = db.table("t_lfn"), db.table("t_map")
        by_name = t_lfn.find_hash_index(("name",))
        by_pair = t_map.find_hash_index(("lfn_id", "pfn_id"))
        assert by_name is not None and by_pair is not None  # UNIQUE / PRIMARY KEY
        count = 0
        lfns = iter(lfns)
        with self._write_lock:
            lrc_id = self._get_or_insert_lrc(lrc_name)
            while chunk := list(itertools.islice(lfns, _LOAD_CHUNK)):
                count += len(chunk)
                names = dict.fromkeys(chunk)
                ids = {
                    row[1]: row[0]
                    for _rid, row in t_lfn.lookup_index_many(
                        by_name, [(name,) for name in names]
                    )
                }
                mapped = {
                    row[0]
                    for _rid, row in t_map.lookup_index_many(
                        by_pair, [(lfn_id, lrc_id) for lfn_id in ids.values()]
                    )
                }
                new = [name for name in names if name not in ids]
                stored = t_lfn.insert_many({"name": name, "ref": 1} for name in new)
                ids.update(zip(new, (row[0] for _rid, row in stored)))
                t_map.insert_many(
                    {"lfn_id": ids[name], "pfn_id": lrc_id, "updatetime": now}
                    for name in names
                    if ids[name] not in mapped
                )
        return count

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
        dropped = 0
        with self._write_lock:
            stale = self.conn.execute(
                "SELECT lfn_id, pfn_id FROM t_map WHERE updatetime < ?",
                [cutoff],
            ).rows
            for lfn_id, lrc_id in stale:
                self.conn.execute(
                    "DELETE FROM t_map WHERE lfn_id = ? AND pfn_id = ?",
                    [lfn_id, lrc_id],
                )
                remaining = self.conn.execute(
                    "SELECT COUNT(*) FROM t_map WHERE lfn_id = ?", [lfn_id]
                ).scalar()
                if remaining == 0:
                    self.conn.execute("DELETE FROM t_lfn WHERE id = ?", [lfn_id])
                dropped += 1
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

    def _get_or_insert_lfn(self, lfn: str) -> int:
        rows = self.conn.execute(
            "SELECT id FROM t_lfn WHERE name = ?", [lfn]
        ).rows
        if rows:
            return rows[0][0]
        result = self.conn.execute(
            "INSERT INTO t_lfn (name, ref) VALUES (?, ?)", [lfn, 1]
        )
        assert result.lastrowid is not None
        return result.lastrowid

    def _get_or_insert_lrc(self, lrc_name: str) -> int:
        # Every relational ingest passes here; set before the INSERT, so a
        # query racing it may run one SELECT too many, never one too few.
        self._relational = True
        rows = self.conn.execute(
            "SELECT id FROM t_lrc WHERE name = ?", [lrc_name]
        ).rows
        if rows:
            return rows[0][0]
        result = self.conn.execute(
            "INSERT INTO t_lrc (name, ref) VALUES (?, ?)", [lrc_name, 1]
        )
        assert result.lastrowid is not None
        return result.lastrowid

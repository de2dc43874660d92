"""Local Replica Catalog (LRC).

Maintains logical-name → target-name mappings and typed attributes in a
relational back end reached through the ODBC layer, using the exact table
structure of the paper's Figure 3:

* ``t_lfn`` / ``t_pfn`` — logical and target names with reference counts;
* ``t_map`` — (lfn_id, pfn_id) associations;
* ``t_attribute`` + one value table per attribute type
  (``t_str_attr``, ``t_int_attr``, ``t_flt_attr``, ``t_date_attr``);
* ``t_rli`` — RLIs this LRC updates, and ``t_rlipartition`` — namespace
  partitioning regexes per RLI.

Every public operation in the paper's Table 1 is implemented, including
the bulk variants used by large scientific workflows (§5.4).

Every mutation is a logged write, so the write-ahead log is the one
change feed: the soft-state update manager (:mod:`repro.core.updates`)
reads the logical-name changes off it for its counting Bloom filter and
immediate-mode updates, and a shard master ships it to its mirrors.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import (
    AttributeExistsError,
    AttributeNotFoundError,
    InvalidAttributeError,
    MappingExistsError,
    MappingNotFoundError,
    UpdateTargetError,
)
from repro.core.naming import validate_name, wildcard_to_like
from repro.db.errors import DuplicateKeyError
from repro.db.odbc import Connection
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY


class ObjType(enum.IntEnum):
    """Which namespace an attribute attaches to."""

    LFN = 0
    PFN = 1

    @classmethod
    def parse(cls, value: "ObjType | int | str") -> "ObjType":
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(value)
        text = value.lower()
        if text in ("lfn", "logical"):
            return cls.LFN
        if text in ("pfn", "target", "physical"):
            return cls.PFN
        raise InvalidAttributeError(f"unknown object type {value!r}")


class AttrType(enum.IntEnum):
    """Attribute value type, one relational table per type (Figure 3)."""

    STR = 0
    INT = 1
    FLOAT = 2
    DATE = 3

    @classmethod
    def parse(cls, value: "AttrType | int | str") -> "AttrType":
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(value)
        text = value.lower()
        mapping = {
            "str": cls.STR, "string": cls.STR,
            "int": cls.INT, "integer": cls.INT,
            "float": cls.FLOAT, "double": cls.FLOAT,
            "date": cls.DATE, "timestamp": cls.DATE,
        }
        if text in mapping:
            return mapping[text]
        raise InvalidAttributeError(f"unknown attribute type {value!r}")


_ATTR_TABLE = {
    AttrType.STR: "t_str_attr",
    AttrType.INT: "t_int_attr",
    AttrType.FLOAT: "t_flt_attr",
    AttrType.DATE: "t_date_attr",
}

# Fixed IN-list chunk sizes for the vectorized bulk operations.  Keeping
# the placeholder count constant keeps the SQL text constant, so the
# engine's LRU plan cache hits instead of re-parsing and re-planning;
# short lists pad by repeating the last element (IN dedups, so padding is
# semantically free).
_IN_CHUNK = 256
_SMALL_IN_CHUNK = 16
# Multi-row INSERT chunk (rows per statement).
_INSERT_CHUNK = 64
# Pairs bulk_load writes at a time: what it holds besides the catalog
# itself is bounded by this, not by the length of the stream.
_LOAD_CHUNK = 1024


def _in_chunks(values: Sequence[Any]) -> "Iterable[list[Any]]":
    """Fixed-size chunks of ``values``, padded by repeating the last one."""
    if not values:
        return
    size = _SMALL_IN_CHUNK if len(values) <= _SMALL_IN_CHUNK else _IN_CHUNK
    for start in range(0, len(values), size):
        chunk = list(values[start : start + size])
        if len(chunk) < size:
            chunk.extend(chunk[-1:] * (size - len(chunk)))
        yield chunk


def _load_names(
    table: Any, counts: "Counter[str]"
) -> tuple[dict[str, int], list[int]]:
    """``bulk_load``'s write of one name table: the names of ``counts``
    the table lacks go in with one ``insert_many``, their count as
    ``ref``.  Returns name → id for all of ``counts`` and the ids of the
    names that were already there."""
    ids: dict[str, int] = {}
    new: list[str] = []
    old_ids: list[int] = []
    for name in counts:
        existing = table.lookup_equal(("name",), (name,))
        if existing:
            ids[name] = existing[0][1][0]
            old_ids.append(ids[name])
        else:
            new.append(name)
    stored = table.insert_many({"name": name, "ref": counts[name]} for name in new)
    ids.update(zip(new, [row[0] for _rid, row in stored]))
    return ids, old_ids


# DDL matching Figure 3 of the paper.
_SCHEMA_STATEMENTS = [
    """CREATE TABLE t_lfn (
        id INT(11) NOT NULL AUTO_INCREMENT,
        name VARCHAR(250) NOT NULL,
        ref INT(11) NOT NULL,
        PRIMARY KEY (id),
        UNIQUE (name))""",
    "CREATE INDEX t_lfn_name_prefix ON t_lfn (name) USING BTREE",
    """CREATE TABLE t_pfn (
        id INT(11) NOT NULL AUTO_INCREMENT,
        name VARCHAR(250) NOT NULL,
        ref INT(11) NOT NULL,
        PRIMARY KEY (id),
        UNIQUE (name))""",
    "CREATE INDEX t_pfn_name_prefix ON t_pfn (name) USING BTREE",
    """CREATE TABLE t_map (
        lfn_id INT(11) NOT NULL,
        pfn_id INT(11) NOT NULL,
        PRIMARY KEY (lfn_id, pfn_id))""",
    "CREATE INDEX t_map_lfn ON t_map (lfn_id)",
    "CREATE INDEX t_map_pfn ON t_map (pfn_id)",
    """CREATE TABLE t_attribute (
        id INT(11) NOT NULL AUTO_INCREMENT,
        name VARCHAR(250) NOT NULL,
        objtype INT(11) NOT NULL,
        type INT(11) NOT NULL,
        PRIMARY KEY (id),
        UNIQUE (name, objtype))""",
    """CREATE TABLE t_str_attr (
        obj_id INT(11) NOT NULL,
        attr_id INT(11) NOT NULL,
        value VARCHAR(250),
        PRIMARY KEY (obj_id, attr_id))""",
    "CREATE INDEX t_str_attr_attr ON t_str_attr (attr_id)",
    """CREATE TABLE t_int_attr (
        obj_id INT(11) NOT NULL,
        attr_id INT(11) NOT NULL,
        value INT(11),
        PRIMARY KEY (obj_id, attr_id))""",
    "CREATE INDEX t_int_attr_attr ON t_int_attr (attr_id)",
    """CREATE TABLE t_flt_attr (
        obj_id INT(11) NOT NULL,
        attr_id INT(11) NOT NULL,
        value FLOAT,
        PRIMARY KEY (obj_id, attr_id))""",
    "CREATE INDEX t_flt_attr_attr ON t_flt_attr (attr_id)",
    """CREATE TABLE t_date_attr (
        obj_id INT(11) NOT NULL,
        attr_id INT(11) NOT NULL,
        value TIMESTAMP,
        PRIMARY KEY (obj_id, attr_id))""",
    "CREATE INDEX t_date_attr_attr ON t_date_attr (attr_id)",
    """CREATE TABLE t_rli (
        id INT(11) NOT NULL AUTO_INCREMENT,
        flags INT(11) NOT NULL,
        name VARCHAR(250) NOT NULL,
        PRIMARY KEY (id),
        UNIQUE (name))""",
    """CREATE TABLE t_rlipartition (
        rli_id INT(11) NOT NULL,
        pattern VARCHAR(250) NOT NULL,
        PRIMARY KEY (rli_id, pattern))""",
]

#: t_rli.flags bit: this RLI receives Bloom-filter updates (else full LFN lists).
FLAG_BLOOMFILTER = 0x1


@dataclass(frozen=True)
class RLITarget:
    """One row of ``t_rli``: an index server this LRC must update."""

    name: str
    flags: int = 0
    patterns: tuple[str, ...] = ()

    @property
    def bloom(self) -> bool:
        return bool(self.flags & FLAG_BLOOMFILTER)


class LocalReplicaCatalog:
    """The LRC service logic, independent of any RPC front end."""

    def __init__(
        self,
        connection: Connection,
        name: str = "lrc",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.conn = connection
        self.name = name
        self._write_lock = threading.RLock()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = registry
        self._m_created = registry.counter("lrc.mappings_created")
        self._m_added = registry.counter("lrc.mappings_added")
        self._m_deleted = registry.counter("lrc.mappings_deleted")
        self._m_bulk_loaded = registry.counter("lrc.mappings_bulk_loaded")
        registry.register_gauge_fn("lrc.lfns", self.lfn_count)
        registry.register_gauge_fn("lrc.mappings", self.mapping_count)

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def init_schema(self) -> None:
        """Create the Figure 3 tables (idempotent)."""
        db = self.conn.database
        for statement in _SCHEMA_STATEMENTS:
            first_word_table = statement.split("(")[0].split()
            if first_word_table[1].upper() == "TABLE" and db.has_table(
                first_word_table[2]
            ):
                continue
            if first_word_table[1].upper() == "INDEX":
                table_name = statement.split(" ON ")[1].split()[0]
                index_name = first_word_table[2]
                try:
                    db.table(table_name).get_index(index_name)
                    continue
                except Exception:
                    pass
            self.conn.execute(statement)

    # ------------------------------------------------------------------
    # Mapping management (Table 1: create, add, delete + bulk)
    # ------------------------------------------------------------------

    def create_mapping(self, lfn: str, pfn: str) -> None:
        """Register a brand-new logical name with its first replica.

        Fails with :class:`MappingExistsError` if the logical name already
        exists (use :meth:`add_mapping` to register additional replicas).
        """
        validate_name(lfn, "logical name")
        validate_name(pfn, "target name")
        with self._write_lock, self.conn.transaction():
            if self._name_row("t_lfn", lfn) is not None:
                raise MappingExistsError(f"logical name exists: {lfn}")
            self._insert_map(self._insert_name("t_lfn", lfn), lfn, pfn)
        self._m_created.inc()

    def add_mapping(self, lfn: str, pfn: str) -> None:
        """Register an additional replica for an existing logical name."""
        validate_name(lfn, "logical name")
        validate_name(pfn, "target name")
        with self._write_lock, self.conn.transaction():
            lfn_row = self._name_row("t_lfn", lfn)
            if lfn_row is None:
                raise MappingNotFoundError(f"logical name does not exist: {lfn}")
            self._insert_map(lfn_row[0], lfn, pfn)
            self._set_ref("t_lfn", lfn_row[0], lfn_row[1] + 1)
        self._m_added.inc()

    def _insert_map(self, lfn_id: int, lfn: str, pfn: str) -> None:
        """The ``t_map`` row for ``lfn_id`` → ``pfn``, counted on the PFN.

        A new target name is inserted with ``ref = 1``; an existing one is
        re-counted from the ``ref`` its lookup already returned, and only
        after the ``t_map`` insert succeeded, so a rejected duplicate
        mapping has written nothing.
        """
        pfn_row = self._name_row("t_pfn", pfn)
        pfn_id = pfn_row[0] if pfn_row else self._insert_name("t_pfn", pfn)
        try:
            self.conn.execute(
                "INSERT INTO t_map (lfn_id, pfn_id) VALUES (?, ?)",
                [lfn_id, pfn_id],
            )
        except DuplicateKeyError:
            raise MappingExistsError(f"mapping exists: {lfn} -> {pfn}") from None
        if pfn_row:
            self._set_ref("t_pfn", pfn_id, pfn_row[1] + 1)

    def delete_mapping(self, lfn: str, pfn: str) -> None:
        """Remove one replica mapping; prunes orphaned LFN/PFN rows."""
        with self._write_lock, self.conn.transaction():
            lfn_row = self._name_row("t_lfn", lfn)
            pfn_row = self._name_row("t_pfn", pfn)
            if lfn_row is None or pfn_row is None:
                raise MappingNotFoundError(f"mapping does not exist: {lfn} -> {pfn}")
            lfn_id, lfn_ref = lfn_row
            pfn_id, pfn_ref = pfn_row
            deleted = self.conn.execute(
                "DELETE FROM t_map WHERE lfn_id = ? AND pfn_id = ?",
                [lfn_id, pfn_id],
            ).rowcount
            if deleted == 0:
                raise MappingNotFoundError(f"mapping does not exist: {lfn} -> {pfn}")
            orphans: dict[ObjType, list[int]] = {}
            for table, objtype, row_id, ref in (
                ("t_lfn", ObjType.LFN, lfn_id, lfn_ref),
                ("t_pfn", ObjType.PFN, pfn_id, pfn_ref),
            ):
                if ref <= 1:
                    self.conn.execute(f"DELETE FROM {table} WHERE id = ?", [row_id])
                    orphans[objtype] = [row_id]
                else:
                    self._set_ref(table, row_id, ref - 1)
            self._delete_attr_values(orphans)
        self._m_deleted.inc()

    # -- bulk variants ----------------------------------------------------
    #
    # The bulk mutations are *vectorized*: instead of replaying the
    # single-pair code path per element (5-6 statements each), they probe
    # existence with chunked IN lists, write with multi-row INSERTs, and
    # batch the orphan pruning — the amortization behind the paper's
    # Figure 11 bulk-rate lift.  Observable behavior matches the serial
    # path exactly: per-pair failure strings, log records in pair order,
    # and reference counts.  The whole batch commits in one
    # transaction (a crash mid-batch rolls back cleanly instead of leaving
    # a prefix applied).

    def bulk_create(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        """Create many mappings; returns per-pair failures (empty = all ok)."""
        pairs = [(lfn, pfn) for lfn, pfn in pairs]
        if len(pairs) <= 1:
            return self._bulk_apply(pairs, self.create_mapping)
        failures_at: dict[int, str] = {}
        valid: list[tuple[int, str, str]] = []
        for i, (lfn, pfn) in enumerate(pairs):
            try:
                validate_name(lfn, "logical name")
                validate_name(pfn, "target name")
            except Exception as exc:
                failures_at[i] = f"{type(exc).__name__}: {exc}"
                continue
            valid.append((i, lfn, pfn))
        creations: list[tuple[int, str, str]] = []
        with self._write_lock, self.conn.transaction():
            taken = set(
                self._name_rows_in("t_lfn", [lfn for _, lfn, _ in valid])
            )
            for i, lfn, pfn in valid:
                # A duplicate inside the batch fails the same way a
                # pre-existing name does, matching serial order semantics.
                if lfn in taken:
                    failures_at[i] = (
                        f"MappingExistsError: logical name exists: {lfn}"
                    )
                    continue
                taken.add(lfn)
                creations.append((i, lfn, pfn))
            if creations:
                pfn_rows = self._name_rows_in(
                    "t_pfn", [pfn for _, _, pfn in creations]
                )
                new_pfn_refs: dict[str, int] = {}
                bumps: dict[str, int] = {}
                for _, _, pfn in creations:
                    if pfn in pfn_rows:
                        bumps[pfn] = bumps.get(pfn, 0) + 1
                    else:
                        new_pfn_refs[pfn] = new_pfn_refs.get(pfn, 0) + 1
                # New target names arrive with their final refcount — no
                # per-row bump statements afterwards — and every new row's
                # id comes back from its INSERT, not from a re-read.
                pfn_ids = {pfn: row[0] for pfn, row in pfn_rows.items()}
                pfn_ids.update(zip(new_pfn_refs, self._insert_rows(
                    "t_pfn", ("name", "ref"), list(new_pfn_refs.items())
                )))
                # Every created logical name has exactly one mapping.
                lfn_ids = self._insert_rows(
                    "t_lfn", ("name", "ref"), [(lfn, 1) for _, lfn, _ in creations]
                )
                self._insert_rows(
                    "t_map",
                    ("lfn_id", "pfn_id"),
                    [
                        (lfn_id, pfn_ids[pfn])
                        for lfn_id, (_, _, pfn) in zip(lfn_ids, creations)
                    ],
                )
                for pfn, delta in bumps.items():
                    pfn_id, ref = pfn_rows[pfn]
                    self._set_ref("t_pfn", pfn_id, ref + delta)
        if creations:
            self._m_created.inc(len(creations))
        return [
            (pairs[i][0], pairs[i][1], failures_at[i])
            for i in sorted(failures_at)
        ]

    def bulk_add(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        return self._bulk_apply(pairs, self.add_mapping)

    def bulk_delete(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        pairs = [(lfn, pfn) for lfn, pfn in pairs]
        if len(pairs) <= 1:
            return self._bulk_apply(pairs, self.delete_mapping)
        failures_at: dict[int, str] = {}
        deletions: list[tuple[int, str, str, int, int]] = []
        lfn_ref_left: dict[str, int] = {}
        pfn_ref_left: dict[str, int] = {}
        with self._write_lock, self.conn.transaction():
            lfn_rows = self._name_rows_in("t_lfn", [l for l, _ in pairs])
            pfn_rows = self._name_rows_in("t_pfn", [p for _, p in pairs])
            lfn_ref_left = {name: ref for name, (_, ref) in lfn_rows.items()}
            pfn_ref_left = {name: ref for name, (_, ref) in pfn_rows.items()}
            # Which (lfn_id, pfn_id) associations actually exist, probed
            # once for all involved logical names.
            present: set[tuple[int, int]] = set()
            lfn_ids = [row[0] for row in lfn_rows.values()]
            for chunk in _in_chunks(lfn_ids):
                qs = ", ".join("?" * len(chunk))
                for a, b in self.conn.execute(
                    f"SELECT lfn_id, pfn_id FROM t_map WHERE lfn_id IN ({qs})",
                    chunk,
                ).rows:
                    present.add((a, b))
            for i, (lfn, pfn) in enumerate(pairs):
                lrow = lfn_rows.get(lfn)
                prow = pfn_rows.get(pfn)
                if (
                    lrow is None
                    or prow is None
                    or (lrow[0], prow[0]) not in present
                ):
                    failures_at[i] = (
                        "MappingNotFoundError: "
                        f"mapping does not exist: {lfn} -> {pfn}"
                    )
                    continue
                # Discarding makes a duplicate pair later in the batch
                # fail, exactly like the serial second delete would.
                present.discard((lrow[0], prow[0]))
                lfn_ref_left[lfn] -= 1
                pfn_ref_left[pfn] -= 1
                deletions.append((i, lfn, pfn, lrow[0], prow[0]))
            if deletions:
                touched_lfns = {d[1] for d in deletions}
                touched_pfns = {d[2] for d in deletions}
                # t_map: logical names losing *all* replicas batch into IN
                # deletes; partial deletes stay per-pair.
                full_wipe_ids = [
                    lfn_rows[n][0]
                    for n in touched_lfns
                    if lfn_ref_left[n] <= 0
                ]
                full_wipe = set(full_wipe_ids)
                for chunk in _in_chunks(full_wipe_ids):
                    qs = ", ".join("?" * len(chunk))
                    self.conn.execute(
                        f"DELETE FROM t_map WHERE lfn_id IN ({qs})", chunk
                    )
                for _, _, _, lfn_id, pfn_id in deletions:
                    if lfn_id not in full_wipe:
                        self.conn.execute(
                            "DELETE FROM t_map WHERE lfn_id = ? AND pfn_id = ?",
                            [lfn_id, pfn_id],
                        )
                # Prune orphaned name rows in batches; survivors get their
                # final refcount in one UPDATE each.
                self._delete_attr_values({
                    ObjType.LFN: self._prune_names(
                        "t_lfn", lfn_rows, lfn_ref_left, touched_lfns
                    ),
                    ObjType.PFN: self._prune_names(
                        "t_pfn", pfn_rows, pfn_ref_left, touched_pfns
                    ),
                })
        if deletions:
            self._m_deleted.inc(len(deletions))
        return [
            (pairs[i][0], pairs[i][1], failures_at[i])
            for i in sorted(failures_at)
        ]

    def _name_rows_in(
        self, table: str, names: Sequence[str]
    ) -> dict[str, tuple[int, int]]:
        """``name -> (id, ref)`` for every existing row among ``names``."""
        out: dict[str, tuple[int, int]] = {}
        unique = list(dict.fromkeys(names))
        for chunk in _in_chunks(unique):
            qs = ", ".join("?" * len(chunk))
            for row_id, name, ref in self.conn.execute(
                f"SELECT id, name, ref FROM {table} WHERE name IN ({qs})",
                chunk,
            ).rows:
                out[name] = (row_id, ref)
        return out

    def _insert_rows(
        self,
        table: str,
        columns: tuple[str, str],
        rows: Sequence[tuple[Any, Any]],
    ) -> list[int]:
        """Multi-row INSERT in fixed-size chunks (statement-cache friendly);
        returns the generated key of every row, in order."""
        keys: list[int] = []
        start = 0
        while start < len(rows):
            chunk = rows[start : start + _INSERT_CHUNK]
            placeholders = ", ".join(["(?, ?)"] * len(chunk))
            params: list[Any] = []
            for a, b in chunk:
                params.append(a)
                params.append(b)
            keys.extend(self.conn.execute(
                f"INSERT INTO {table} ({columns[0]}, {columns[1]}) "
                f"VALUES {placeholders}",
                params,
            ).generated_keys)
            start += len(chunk)
        return keys

    def _prune_names(
        self,
        table: str,
        rows: dict[str, tuple[int, int]],
        ref_left: dict[str, int],
        touched: set[str],
    ) -> list[int]:
        """Delete the touched names left without mappings and re-count
        the rest; returns the ids of the deleted rows."""
        orphan_ids = [rows[n][0] for n in touched if ref_left[n] <= 0]
        for chunk in _in_chunks(orphan_ids):
            qs = ", ".join("?" * len(chunk))
            self.conn.execute(
                f"DELETE FROM {table} WHERE id IN ({qs})", chunk
            )
        for name in touched:
            if ref_left[name] > 0:
                self._set_ref(table, rows[name][0], ref_left[name])
        return orphan_ids

    def _delete_attr_values(self, orphans: dict["ObjType", list[int]]) -> None:
        """Drop every attribute value attached to pruned LFN/PFN rows.

        ``t_attribute`` is read once for both namespaces.  Only values
        whose attribute definition matches the object's namespace are
        removed — an LFN and a PFN sharing a surrogate id in their
        respective tables must not clobber each other's attributes — and
        a definition's values live in the table of its type.
        """
        if not any(orphans.values()):
            return
        for attr_id, objtype, attrtype in self.conn.execute(
            "SELECT id, objtype, type FROM t_attribute"
        ).rows:
            obj_ids = orphans.get(objtype)
            if not obj_ids:
                continue
            # One primary-key probe per object: ``attr_id = ? AND obj_id
            # IN (...)`` is answered by the attr_id index and walks every
            # value of the attribute (36 ms against 15 us with 20 000).
            table = _ATTR_TABLE[AttrType(attrtype)]
            for obj_id in obj_ids:
                self.conn.execute(
                    f"DELETE FROM {table} WHERE obj_id = ? AND attr_id = ?",
                    [obj_id, attr_id],
                )

    def _bulk_apply(
        self,
        pairs: Sequence[tuple[str, str]],
        op: Callable[[str, str], None],
    ) -> list[tuple[str, str, str]]:
        failures: list[tuple[str, str, str]] = []
        for lfn, pfn in pairs:
            try:
                op(lfn, pfn)
            except Exception as exc:
                failures.append((lfn, pfn, f"{type(exc).__name__}: {exc}"))
        return failures

    def bulk_load(self, pairs: Iterable[tuple[str, str]]) -> int:
        """Out-of-band initialization: load many mappings fast.

        Bypasses the SQL layer and writes the Figure 3 tables directly —
        the equivalent of the paper's §4 setup step where "a server is
        loaded with a predefined number of mappings" before measuring.
        The pairs are taken ``_LOAD_CHUNK`` at a time (memory stays
        bounded however many are streamed in); each chunk writes each
        table with one ``insert_many``, new names carrying their final
        reference count, and a name that already existed is re-counted
        from ``t_map`` afterwards.  No row is WAL-logged: the load ends
        with a WAL checkpoint, whose image holds it.  Assumes a
        quiescent server and fresh (lfn, pfn) pairs; duplicate LFNs get
        additional replica mappings.  Whatever reads the log from before
        the checkpoint — an RLI feed, a mirror — is sent the whole state.
        Returns mappings loaded.
        """
        count = 0
        pairs = iter(pairs)
        db = self.conn.database
        with self._write_lock:
            while chunk := list(itertools.islice(pairs, _LOAD_CHUNK)):
                self._load_chunk(chunk)
                count += len(chunk)
            if db.wal is not None:
                db.wal.checkpoint()
        self._m_bulk_loaded.inc(count)
        return count

    def _load_chunk(self, chunk: list[tuple[str, str]]) -> None:
        """Write one chunk of ``bulk_load``."""
        for lfn, pfn in chunk:
            validate_name(lfn, "logical name")
            validate_name(pfn, "target name")
        db = self.conn.database
        t_lfn, t_pfn, t_map = db.table("t_lfn"), db.table("t_pfn"), db.table("t_map")
        lfn_ids, old_lfn_ids = _load_names(
            t_lfn, Counter(lfn for lfn, _ in chunk)
        )
        pfn_ids, old_pfn_ids = _load_names(
            t_pfn, Counter(pfn for _, pfn in chunk)
        )
        t_map.insert_many(
            {"lfn_id": lfn_ids[lfn], "pfn_id": pfn_ids[pfn]} for lfn, pfn in chunk
        )
        # A name that was here before is re-counted from t_map.
        for table, column, old_ids in (
            (t_lfn, "lfn_id", old_lfn_ids),
            (t_pfn, "pfn_id", old_pfn_ids),
        ):
            for row_id in old_ids:
                refs = len(t_map.lookup_equal((column,), (row_id,)))
                for rid, _row in table.lookup_equal(("id",), (row_id,)):
                    table.update_rid(rid, {"ref": refs})

    # ------------------------------------------------------------------
    # Queries (Table 1: by logical/target name, wildcard, bulk, attribute)
    # ------------------------------------------------------------------

    def get_mappings(self, lfn: str) -> list[str]:
        """Target names for ``lfn``; raises if none exist."""
        rows = self.conn.execute(
            "SELECT p.name FROM t_lfn l "
            "JOIN t_map m ON l.id = m.lfn_id "
            "JOIN t_pfn p ON m.pfn_id = p.id "
            "WHERE l.name = ?",
            [lfn],
        ).rows
        if not rows:
            raise MappingNotFoundError(f"logical name does not exist: {lfn}")
        return [r[0] for r in rows]

    def get_lfns(self, pfn: str) -> list[str]:
        """Logical names mapped to target name ``pfn``."""
        rows = self.conn.execute(
            "SELECT l.name FROM t_pfn p "
            "JOIN t_map m ON p.id = m.pfn_id "
            "JOIN t_lfn l ON m.lfn_id = l.id "
            "WHERE p.name = ?",
            [pfn],
        ).rows
        if not rows:
            raise MappingNotFoundError(f"target name does not exist: {pfn}")
        return [r[0] for r in rows]

    def query_wildcard(self, pattern: str) -> list[tuple[str, str]]:
        """(lfn, pfn) pairs whose logical name matches an RLS wildcard."""
        like = wildcard_to_like(pattern)
        rows = self.conn.execute(
            "SELECT l.name, p.name FROM t_lfn l "
            "JOIN t_map m ON l.id = m.lfn_id "
            "JOIN t_pfn p ON m.pfn_id = p.id "
            "WHERE l.name LIKE ?",
            [like],
        ).rows
        return [(r[0], r[1]) for r in rows]

    def bulk_query(self, lfns: Sequence[str]) -> dict[str, list[str]]:
        """Mappings for many logical names; absent names are omitted.

        Vectorized: one 3-way join per IN-list chunk instead of one per
        name, which is where the Figure 11 bulk-query rate comes from.
        """
        lfns = list(lfns)
        if len(lfns) <= 2:
            result: dict[str, list[str]] = {}
            for lfn in lfns:
                try:
                    result[lfn] = self.get_mappings(lfn)
                except MappingNotFoundError:
                    continue
            return result
        found: dict[str, list[str]] = {}
        for chunk in _in_chunks(list(dict.fromkeys(lfns))):
            qs = ", ".join("?" * len(chunk))
            rows = self.conn.execute(
                "SELECT l.name, p.name FROM t_lfn l "
                "JOIN t_map m ON l.id = m.lfn_id "
                "JOIN t_pfn p ON m.pfn_id = p.id "
                f"WHERE l.name IN ({qs})",
                chunk,
            ).rows
            for lname, pname in rows:
                if lname in found:
                    found[lname].append(pname)
                else:
                    found[lname] = [pname]
        # Preserve the serial path's key order (input order, found only).
        return {lfn: found[lfn] for lfn in lfns if lfn in found}

    def exists(self, lfn: str) -> bool:
        return self._name_row("t_lfn", lfn) is not None

    def lfn_count(self) -> int:
        return int(self.conn.execute("SELECT COUNT(*) FROM t_lfn").scalar())

    def mapping_count(self) -> int:
        return int(self.conn.execute("SELECT COUNT(*) FROM t_map").scalar())

    def all_lfns(self) -> list[str]:
        """Every logical name (the payload of a full soft-state update)."""
        return [r[0] for r in self.conn.execute("SELECT name FROM t_lfn").rows]

    # ------------------------------------------------------------------
    # Attribute management (Table 1)
    # ------------------------------------------------------------------

    def define_attribute(
        self, name: str, objtype: ObjType | str, attrtype: AttrType | str
    ) -> int:
        """Create an attribute definition; returns its id."""
        objtype = ObjType.parse(objtype)
        attrtype = AttrType.parse(attrtype)
        with self._write_lock:
            try:
                result = self.conn.execute(
                    "INSERT INTO t_attribute (name, objtype, type) VALUES (?, ?, ?)",
                    [name, int(objtype), int(attrtype)],
                )
            except DuplicateKeyError:
                raise AttributeExistsError(
                    f"attribute exists: {name} ({objtype.name.lower()})"
                ) from None
            assert result.lastrowid is not None
            return result.lastrowid

    def undefine_attribute(self, name: str, objtype: ObjType | str) -> None:
        """Drop an attribute definition and all of its values."""
        objtype = ObjType.parse(objtype)
        with self._write_lock:
            attr_id, attrtype = self._attr_def(name, objtype)
            self.conn.execute(
                f"DELETE FROM {_ATTR_TABLE[attrtype]} WHERE attr_id = ?", [attr_id]
            )
            self.conn.execute("DELETE FROM t_attribute WHERE id = ?", [attr_id])

    def add_attribute(
        self, object_name: str, attr_name: str, objtype: ObjType | str, value: Any
    ) -> None:
        """Attach an attribute value to an LFN or PFN."""
        objtype = ObjType.parse(objtype)
        with self._write_lock:
            attr_id, attrtype = self._attr_def(attr_name, objtype)
            obj_id = self._object_id(object_name, objtype)
            value = _coerce_attr_value(attrtype, value)
            try:
                self.conn.execute(
                    f"INSERT INTO {_ATTR_TABLE[attrtype]} (obj_id, attr_id, value) "
                    "VALUES (?, ?, ?)",
                    [obj_id, attr_id, value],
                )
            except DuplicateKeyError:
                raise AttributeExistsError(
                    f"attribute {attr_name} already set on {object_name}"
                ) from None

    def modify_attribute(
        self, object_name: str, attr_name: str, objtype: ObjType | str, value: Any
    ) -> None:
        objtype = ObjType.parse(objtype)
        with self._write_lock:
            attr_id, attrtype = self._attr_def(attr_name, objtype)
            obj_id = self._object_id(object_name, objtype)
            value = _coerce_attr_value(attrtype, value)
            updated = self.conn.execute(
                f"UPDATE {_ATTR_TABLE[attrtype]} SET value = ? "
                "WHERE obj_id = ? AND attr_id = ?",
                [value, obj_id, attr_id],
            ).rowcount
            if updated == 0:
                raise AttributeNotFoundError(
                    f"attribute {attr_name} not set on {object_name}"
                )

    def remove_attribute(
        self, object_name: str, attr_name: str, objtype: ObjType | str
    ) -> None:
        objtype = ObjType.parse(objtype)
        with self._write_lock:
            attr_id, attrtype = self._attr_def(attr_name, objtype)
            obj_id = self._object_id(object_name, objtype)
            deleted = self.conn.execute(
                f"DELETE FROM {_ATTR_TABLE[attrtype]} "
                "WHERE obj_id = ? AND attr_id = ?",
                [obj_id, attr_id],
            ).rowcount
            if deleted == 0:
                raise AttributeNotFoundError(
                    f"attribute {attr_name} not set on {object_name}"
                )

    def get_attributes(
        self, object_name: str, objtype: ObjType | str
    ) -> dict[str, Any]:
        """All attribute name → value pairs on an object."""
        objtype = ObjType.parse(objtype)
        obj_id = self._object_id(object_name, objtype)
        result: dict[str, Any] = {}
        for attrtype, table in _ATTR_TABLE.items():
            rows = self.conn.execute(
                f"SELECT a.name, v.value FROM t_attribute a "
                f"JOIN {table} v ON a.id = v.attr_id "
                "WHERE v.obj_id = ? AND a.objtype = ?",
                [obj_id, int(objtype)],
            ).rows
            for attr_name, value in rows:
                result[attr_name] = value
        return result

    def query_by_attribute(
        self,
        attr_name: str,
        objtype: ObjType | str,
        value: Any = None,
        op: str = "=",
    ) -> list[tuple[str, Any]]:
        """Objects carrying attribute ``attr_name`` (optionally filtered).

        Returns (object name, attribute value) pairs.  ``op`` is one of
        ``= != < <= > >=`` applied to ``value`` when given.
        """
        objtype = ObjType.parse(objtype)
        attr_id, attrtype = self._attr_def(attr_name, objtype)
        name_table = "t_lfn" if objtype is ObjType.LFN else "t_pfn"
        sql = (
            f"SELECT n.name, v.value FROM {_ATTR_TABLE[attrtype]} v "
            f"JOIN {name_table} n ON v.obj_id = n.id "
            "WHERE v.attr_id = ?"
        )
        params: list[Any] = [attr_id]
        if value is not None:
            if op not in ("=", "!=", "<", "<=", ">", ">="):
                raise InvalidAttributeError(f"bad attribute comparison {op!r}")
            sql += f" AND v.value {op} ?"
            params.append(_coerce_attr_value(attrtype, value))
        rows = self.conn.execute(sql, params).rows
        return [(r[0], r[1]) for r in rows]

    def bulk_add_attribute(
        self, triples: Sequence[tuple[str, str, Any]], objtype: ObjType | str
    ) -> list[tuple[str, str, str]]:
        """Bulk attach: (object, attribute, value) triples; returns failures."""
        failures = []
        for object_name, attr_name, value in triples:
            try:
                self.add_attribute(object_name, attr_name, objtype, value)
            except Exception as exc:
                failures.append(
                    (object_name, attr_name, f"{type(exc).__name__}: {exc}")
                )
        return failures

    # ------------------------------------------------------------------
    # RLI update-target management (Table 1: LRC management)
    # ------------------------------------------------------------------

    def add_rli(
        self,
        rli_name: str,
        bloom: bool = False,
        patterns: Iterable[str] = (),
    ) -> None:
        """Register an RLI this LRC must send soft-state updates to."""
        flags = FLAG_BLOOMFILTER if bloom else 0
        with self._write_lock:
            try:
                result = self.conn.execute(
                    "INSERT INTO t_rli (flags, name) VALUES (?, ?)",
                    [flags, rli_name],
                )
            except DuplicateKeyError:
                raise UpdateTargetError(f"RLI already registered: {rli_name}") from None
            rli_id = result.lastrowid
            for pattern in patterns:
                self.conn.execute(
                    "INSERT INTO t_rlipartition (rli_id, pattern) VALUES (?, ?)",
                    [rli_id, pattern],
                )

    def remove_rli(self, rli_name: str) -> None:
        with self._write_lock:
            row = self.conn.execute(
                "SELECT id FROM t_rli WHERE name = ?", [rli_name]
            ).rows
            if not row:
                raise UpdateTargetError(f"RLI not registered: {rli_name}")
            rli_id = row[0][0]
            self.conn.execute("DELETE FROM t_rlipartition WHERE rli_id = ?", [rli_id])
            self.conn.execute("DELETE FROM t_rli WHERE id = ?", [rli_id])

    def rli_targets(self) -> list[RLITarget]:
        """Every registered RLI with its flags and partition patterns."""
        targets = []
        for rli_id, flags, name in self.conn.execute(
            "SELECT id, flags, name FROM t_rli"
        ).rows:
            patterns = tuple(
                r[0]
                for r in self.conn.execute(
                    "SELECT pattern FROM t_rlipartition WHERE rli_id = ?",
                    [rli_id],
                ).rows
            )
            targets.append(RLITarget(name=name, flags=flags, patterns=patterns))
        return targets

    # ------------------------------------------------------------------
    # Integrity verification (rls admin verify)
    # ------------------------------------------------------------------

    def verify_integrity(self) -> list[str]:
        """Catalog-level fsck: check cross-table invariants.

        * every ``t_map`` row references existing ``t_lfn``/``t_pfn`` rows;
        * ``ref`` counts equal the actual mapping counts;
        * no orphaned names (a name row with zero mappings);
        * attribute values reference existing objects and definitions;
        * the storage engine's own index integrity holds.

        Returns a list of problem descriptions (empty = healthy).
        """
        problems: list[str] = []
        with self._write_lock:
            db = self.conn.database
            for table_name in ("t_lfn", "t_pfn", "t_map", "t_attribute"):
                problems.extend(db.table(table_name).check_integrity())

            lfn_rows = {r[0]: (r[1], r[2]) for r in self.conn.execute(
                "SELECT id, name, ref FROM t_lfn").rows}
            pfn_rows = {r[0]: (r[1], r[2]) for r in self.conn.execute(
                "SELECT id, name, ref FROM t_pfn").rows}
            maps = self.conn.execute("SELECT lfn_id, pfn_id FROM t_map").rows

            lfn_counts: dict[int, int] = {}
            pfn_counts: dict[int, int] = {}
            for lfn_id, pfn_id in maps:
                if lfn_id not in lfn_rows:
                    problems.append(f"t_map references missing lfn id {lfn_id}")
                if pfn_id not in pfn_rows:
                    problems.append(f"t_map references missing pfn id {pfn_id}")
                lfn_counts[lfn_id] = lfn_counts.get(lfn_id, 0) + 1
                pfn_counts[pfn_id] = pfn_counts.get(pfn_id, 0) + 1

            for rows, counts, label in (
                (lfn_rows, lfn_counts, "lfn"),
                (pfn_rows, pfn_counts, "pfn"),
            ):
                for row_id, (name, ref) in rows.items():
                    actual = counts.get(row_id, 0)
                    if actual == 0:
                        problems.append(
                            f"orphaned {label} {name!r} (id {row_id})"
                        )
                    elif ref != actual:
                        problems.append(
                            f"{label} {name!r}: ref={ref} but has "
                            f"{actual} mappings"
                        )

            attr_ids = {
                r[0]
                for r in self.conn.execute("SELECT id FROM t_attribute").rows
            }
            for table in _ATTR_TABLE.values():
                for obj_id, attr_id in self.conn.execute(
                    f"SELECT obj_id, attr_id FROM {table}"
                ).rows:
                    if attr_id not in attr_ids:
                        problems.append(
                            f"{table}: value references missing attribute "
                            f"definition {attr_id}"
                        )
                    if obj_id not in lfn_rows and obj_id not in pfn_rows:
                        problems.append(
                            f"{table}: value references missing object "
                            f"{obj_id}"
                        )
        return problems

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _name_row(self, table: str, name: str) -> tuple[int, int] | None:
        rows = self.conn.execute(
            f"SELECT id, ref FROM {table} WHERE name = ?", [name]
        ).rows
        return (rows[0][0], rows[0][1]) if rows else None

    def _insert_name(self, table: str, name: str) -> int:
        """A new name row holding its first mapping; returns its id."""
        result = self.conn.execute(
            f"INSERT INTO {table} (name, ref) VALUES (?, ?)", [name, 1]
        )
        assert result.lastrowid is not None
        return result.lastrowid

    def _set_ref(self, table: str, row_id: int, ref: int) -> None:
        self.conn.execute(
            f"UPDATE {table} SET ref = ? WHERE id = ?", [ref, row_id]
        )

    def _object_id(self, name: str, objtype: ObjType) -> int:
        table = "t_lfn" if objtype is ObjType.LFN else "t_pfn"
        row = self._name_row(table, name)
        if row is None:
            raise MappingNotFoundError(
                f"{'logical' if objtype is ObjType.LFN else 'target'} "
                f"name does not exist: {name}"
            )
        return row[0]

    def _attr_def(self, name: str, objtype: ObjType) -> tuple[int, AttrType]:
        rows = self.conn.execute(
            "SELECT id, type FROM t_attribute WHERE name = ? AND objtype = ?",
            [name, int(objtype)],
        ).rows
        if not rows:
            raise AttributeNotFoundError(
                f"attribute not defined: {name} ({objtype.name.lower()})"
            )
        return rows[0][0], AttrType(rows[0][1])


def _coerce_attr_value(attrtype: AttrType, value: Any) -> Any:
    try:
        if attrtype is AttrType.STR:
            if not isinstance(value, str):
                raise TypeError("expected str")
            return value
        if attrtype is AttrType.INT:
            return int(value)
        if attrtype is AttrType.FLOAT:
            return float(value)
        if attrtype is AttrType.DATE:
            if isinstance(value, (int, float)):
                return float(value)
            import datetime as _dt

            if isinstance(value, _dt.datetime):
                return value.timestamp()
            return _dt.datetime.fromisoformat(str(value)).timestamp()
    except (TypeError, ValueError) as exc:
        raise InvalidAttributeError(
            f"bad {attrtype.name.lower()} attribute value {value!r}: {exc}"
        ) from None
    raise InvalidAttributeError(f"unknown attribute type {attrtype!r}")

"""Statement-at-a-time storage against a row-at-a-time oracle.

``Table.insert_many`` / ``delete_many`` / ``lookup_index_many`` and
``WriteAheadLog.log_many`` do for all the rows of one SQL statement what
the engine used to do one row at a time.  The one-row-at-a-time code is
kept *here*, as the reference: the bodies ``Table.insert``,
``Table.delete_rid``, ``Table.lookup_index`` and ``WriteAheadLog.log`` had
before they became the one-element case of the batch code, plus a
``BytesIO`` record encoder that writes the wire codec's tags by hand
(it does not call :mod:`repro.net.codec`).  An index entry goes in and out through the
index's own one-entry ``insert`` / ``remove`` and is read back through
``lookup`` / ``postings()``; how a posting is held is not this file's
business (``test_index_postings.py`` models it).  Hypothesis generates
statement sequences; each statement runs as SQL on one engine and as a
loop of reference calls on a twin, and after every statement the two must
agree on heap rows, every index's contents, ``TableStats``, the
autoincrement position and the raw WAL bytes — including when row k of a
multi-row INSERT is a duplicate key, a NOT NULL violation or a type
mismatch (the prefix stays stored and logged, the error is the same).
"""

from __future__ import annotations

import enum
import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.errors import DBError, DuplicateKeyError, IntegrityError, TypeMismatchError
from repro.db.index import HashIndex, OrderedIndex
from repro.db.mysql_engine import MySQLEngine
from repro.db.postgres_engine import PostgresEngine
from repro.db.wal import (
    InMemoryLogDevice,
    OP_DELETE,
    OP_INSERT,
    WALRecord,
    WriteAheadLog,
    decode_records,
    encode_record,
    encode_records,
)
from repro.net.codec import make_reader
from repro.obs import reqctx
from repro.obs.metrics import MetricsRegistry
from tests.db._log import durable_records

# ---------------------------------------------------------------------------
# The oracle: the row-at-a-time code as it was
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<QBI")


def oracle_encode_value(out: io.BytesIO, value) -> None:
    """One scalar in the wire codec's tags, written out by hand."""
    if value is None:
        out.write(b"N")
    elif isinstance(value, bool):
        out.write(b"T" if value else b"F")
    elif isinstance(value, int):
        out.write(b"I" + struct.pack("<q", value))
    elif isinstance(value, float):
        out.write(b"D" + struct.pack("<d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.write(b"S" + struct.pack("<I", len(data)) + data)
    else:
        raise TypeError(f"cannot encode type {type(value).__name__}")


def oracle_encode_record(record: WALRecord) -> bytes:
    body = io.BytesIO()
    oracle_encode_value(body, record.table)
    body.write(b"L" + struct.pack("<I", len(record.payload)))
    for value in record.payload:
        oracle_encode_value(body, value)
    payload = body.getvalue()
    return _HEADER.pack(record.lsn, record.op, len(payload)) + payload


class OracleLog:
    """``WriteAheadLog.log`` as it was: one record, one append, one
    flush decision per call (flush off here, so none fires)."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.next_lsn = 1

    def log(self, op: int, table: str, payload: tuple) -> None:
        self.data += oracle_encode_record(WALRecord(self.next_lsn, op, table, payload))
        self.next_lsn += 1


def oracle_key(idx, row):
    """A hash index over one column is keyed by the bare value, over
    several by the tuple of values; an ordered index by the value."""
    if isinstance(idx, HashIndex):
        values = tuple(row[i] for i in idx.column_positions)
        return values[0] if len(values) == 1 else values
    return row[idx.column_position]


def oracle_insert(table, values: dict):
    row = table.schema.coerce_row(values)
    for pos, col in enumerate(table.schema.columns):
        if col.autoincrement and row[pos] is None:
            row[pos] = next(table._autoinc)
    row = tuple(row)  # a stored row is a tuple
    for positions, idx in table._unique:
        rids = idx.lookup(oracle_key(idx, row))
        dead = sum(1 for rid in rids if table.heap.is_dead(rid))
        table.stats.dead_index_hits += dead
        if dead < len(rids):
            colname = table.schema.columns[positions[0]].name
            key = tuple(row[p] for p in positions)  # the error shows the tuple
            raise DuplicateKeyError(table.schema.name, colname, key)
    rid = table.heap.insert(row)
    for idx in table._all_indexes:
        idx.insert(oracle_key(idx, row), rid)
    table.stats.inserts += 1
    return rid, row


def oracle_delete_rid(table, rid: int):
    row = table.heap.mark_dead(rid)
    table.stats.deletes += 1
    if table.eager_index_cleanup:
        for idx in table._all_indexes:
            idx.remove(oracle_key(idx, row), rid)
        table.heap.reclaim(rid)
    return row


def oracle_lookup_index(table, idx, key):
    result = []
    for rid in idx.lookup(key):
        row = table.heap.get_live(rid)
        if row is None:
            table.stats.dead_index_hits += 1
        else:
            result.append((rid, row))
    return result


def oracle_in_probe(table, column: str, items) -> list:
    """``col IN (items)`` the way InProbe ran it: one ``lookup_index`` per
    distinct non-NULL key, in list order."""
    idx = table.find_hash_index((column,))
    found = []
    for key in dict.fromkeys(items):
        if key is not None:
            found.extend(oracle_lookup_index(table, idx, key))
    return found


# ---------------------------------------------------------------------------
# Twin engines and state comparison
# ---------------------------------------------------------------------------

DDL = [
    "CREATE TABLE t_name (id INT NOT NULL AUTO_INCREMENT, name VARCHAR(8) NOT NULL, "
    "ref INT, PRIMARY KEY (id), UNIQUE (name))",
    "CREATE INDEX name_prefix ON t_name (name) USING BTREE",
    "CREATE INDEX name_ref ON t_name (ref)",
]
FLAVOURS = ["mysql", "postgresql"]


def make_engine(flavour: str):
    if flavour == "mysql":
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0, flush_interval=1e9)
    else:
        engine = PostgresEngine(
            fsync=False, sync_latency=0.0, dead_hit_cost=0.0, flush_interval=1e9
        )
    engine.wal.max_buffered_records = 10**9  # nothing syncs: the device buffer is the log
    for ddl in DDL:
        engine.execute(ddl)
    return engine


def table_state(table) -> dict:
    return {
        "rows": list(table.heap._rows),
        "dead": list(table.heap._dead),
        "free": list(table.heap._free_rids),
        "hash": {
            name: {key: set(ids) for key, ids in idx.postings()}
            for name, idx in table._hash_indexes.items()
        },
        "ordered": {
            name: (list(idx.distinct_keys()), {key: set(ids) for key, ids in idx.postings()})
            for name, idx in table._ordered_indexes.items()
        },
        "stats": table.stats.snapshot(),
        "autoinc": repr(table._autoinc),
    }


def logged_bytes(engine) -> bytes:
    device = engine.wal.device
    return bytes(device._durable + device._buffer)


def outcome(fn):
    try:
        return ("ok", fn())
    except (DBError, KeyError) as exc:
        return (type(exc).__name__, str(exc))


# Small domains, so duplicates, re-inserts over dead tuples and IN lists
# with hits, misses, repeats and NULLs all come up.
names = st.sampled_from(["a", "ab", "abc", "b", "ba", "c", "cd", "d"])
refs = st.sampled_from([None, 0, 1, 2])
explicit_ids = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
#: A row that breaks a rule: NOT NULL, VARCHAR(8), INT.
bad_rows = st.sampled_from(
    [(None, None, 1), (None, "far-too-long", 1), (None, "ok", "not-a-number")]
)
good_rows = st.tuples(explicit_ids, names, refs)
insert_rows = st.lists(st.one_of(good_rows, good_rows, good_rows, bad_rows),
                       min_size=1, max_size=6)
in_items = st.lists(st.one_of(names, st.none()), min_size=1, max_size=6)

statements = st.one_of(
    st.tuples(st.just("insert"), insert_rows),
    st.tuples(st.just("insert"), insert_rows),
    st.tuples(st.just("delete_in"), in_items),
    st.tuples(st.just("delete_ref"), refs),
    st.tuples(st.just("select_in"), in_items),
    st.tuples(st.just("vacuum"), st.none()),
)


def run_sql(engine, kind: str, arg):
    if kind == "insert":
        placeholders = ", ".join(["(?, ?, ?)"] * len(arg))
        params = [value for row in arg for value in row]
        result = engine.execute(
            f"INSERT INTO t_name (id, name, ref) VALUES {placeholders}", params
        )
        return result.rowcount, list(result.generated_keys), result.lastrowid
    if kind == "delete_in":
        qs = ", ".join("?" * len(arg))
        return engine.execute(f"DELETE FROM t_name WHERE name IN ({qs})", arg).rowcount
    if kind == "delete_ref":
        return engine.execute("DELETE FROM t_name WHERE ref = ?", [arg]).rowcount
    if kind == "select_in":
        qs = ", ".join("?" * len(arg))
        return engine.execute(
            f"SELECT id, name, ref FROM t_name WHERE name IN ({qs})", arg
        ).rows
    return engine.execute("VACUUM t_name").rowcount


def run_oracle(engine, log: OracleLog, kind: str, arg):
    table = engine.table("t_name")
    if kind == "insert":
        keys = []
        for id_, name, ref in arg:
            _rid, row = oracle_insert(table, {"id": id_, "name": name, "ref": ref})
            log.log(OP_INSERT, "t_name", tuple(row))
            keys.append(row[0])
        return len(arg), keys, keys[-1]
    if kind in ("delete_in", "delete_ref"):
        if kind == "delete_in":
            matches = oracle_in_probe(table, "name", arg)
        elif arg is None:
            matches = []
        else:
            matches = oracle_lookup_index(table, table.find_hash_index(("ref",)), arg)
        for rid, _row in matches:
            log.log(OP_DELETE, "t_name", tuple(oracle_delete_rid(table, rid)))
        return len(matches)
    if kind == "select_in":
        return [tuple(row) for _rid, row in oracle_in_probe(table, "name", arg)]
    return table.vacuum()


@pytest.mark.parametrize("flavour", FLAVOURS)
@settings(max_examples=120, deadline=None)
@given(script=st.lists(statements, min_size=1, max_size=14))
def test_statements_match_a_loop_of_single_row_calls(flavour, script):
    engine, twin = make_engine(flavour), make_engine(flavour)
    log = OracleLog()
    for kind, arg in script:
        got = outcome(lambda: run_sql(engine, kind, arg))
        want = outcome(lambda: run_oracle(twin, log, kind, arg))
        assert got == want, (kind, arg)
        assert table_state(engine.table("t_name")) == table_state(twin.table("t_name"))
        assert logged_bytes(engine) == bytes(log.data)
        assert engine.wal.records_appended == log.next_lsn - 1
    assert engine.table("t_name").check_integrity() == []
    # Plan, table and WAL are usable after any failure above.
    engine.execute("INSERT INTO t_name (id, name, ref) VALUES (?, ?, ?)", [99, "zz", 9])
    assert engine.execute("SELECT ref FROM t_name WHERE name = ?", ["zz"]).rows == [(9,)]
    assert [r.lsn for r in decode_records(logged_bytes(engine))] == list(
        range(1, engine.wal.records_appended + 1)
    )


# ---------------------------------------------------------------------------
# Named failure cases of a multi-row INSERT: the prefix stays
# ---------------------------------------------------------------------------

FAILURES = [
    ((None, "a", 5), DuplicateKeyError, "duplicate key in 't_name': column 'name' value ('a',)"),
    ((None, None, 5), IntegrityError, "column 'name' of 't_name' is NOT NULL"),
    ((None, "ok", "x"), TypeMismatchError, "t_name.ref: cannot coerce 'x' to INT"),
]


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("bad, error, message", FAILURES)
def test_row_k_fails_and_the_prefix_is_stored_and_logged(flavour, bad, error, message):
    engine = make_engine(flavour)
    sql = "INSERT INTO t_name (id, name, ref) VALUES (?, ?, ?), (?, ?, ?), (?, ?, ?), (?, ?, ?)"
    rows = [(None, "a", 1), (None, "b", 2), bad, (None, "never", 3)]
    with pytest.raises(error) as caught:
        engine.execute(sql, [value for row in rows for value in row])
    assert str(caught.value) == message
    stored = engine.execute("SELECT id, name, ref FROM t_name").rows
    assert stored == [(1, "a", 1), (2, "b", 2)]
    assert [(r.op, r.payload) for r in decode_records(logged_bytes(engine))] == [
        (OP_INSERT, (1, "a", 1)), (OP_INSERT, (2, "b", 2)),
    ]
    table = engine.table("t_name")
    assert table.stats.inserts == 2 and table.check_integrity() == []
    assert [k for k, _ in table.get_index("name_prefix").range_scan()] == ["a", "b"]
    # The same plan runs again; ids go on from where the failed row left them.
    result = engine.execute(sql, ["9", "w", 0, None, "x", 0, None, "y", 0, None, "z", 0])
    assert result.rowcount == 4 and result.lastrowid == result.generated_keys[-1]
    assert engine.wal.records_appended == 6


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_delete_many_stops_at_a_dead_rid_like_a_loop_would(flavour):
    engine, twin = make_engine(flavour), make_engine(flavour)
    for e in (engine, twin):
        e.execute("INSERT INTO t_name (name, ref) VALUES (?, ?), (?, ?), (?, ?)",
                  ["a", 1, "b", 1, "c", 1])
    rids = [rid for rid, _row in engine.table("t_name").scan()]
    victims = [rids[0], rids[1], rids[0], rids[2]]  # the third is dead by then
    deleted: list = []
    with pytest.raises(KeyError):
        engine.table("t_name").delete_many(victims, deleted)
    assert [row[1] for _rid, row in deleted] == ["a", "b"]
    with pytest.raises(KeyError):
        for rid in victims:
            oracle_delete_rid(twin.table("t_name"), rid)
    assert table_state(engine.table("t_name")) == table_state(twin.table("t_name"))
    with pytest.raises(KeyError):  # and through the logged form: two records
        engine.delete_rows("t_name", [rids[2], rids[2]])
    assert engine.wal.records_appended == 3 + 1


def test_mvcc_deletes_leave_tombstones_and_charge_dead_hits_once_per_entry():
    engine = make_engine("postgresql")
    table = engine.table("t_name")
    for _ in range(5):
        engine.execute("INSERT INTO t_name (name, ref) VALUES (?, ?), (?, ?)",
                       ["hot", 1, "cold", 1])
        engine.execute("DELETE FROM t_name WHERE name IN (?, ?, ?)", ["hot", "cold", "hot"])
    assert table.row_count == 0 and table.dead_tuple_count == 10
    # Insert k checks UNIQUE(name) past the k-1 dead entries of each name;
    # delete k probes each name once (IN dedups) past the same entries.
    assert table.stats.dead_index_hits == 2 * 2 * sum(range(5))
    before = table.stats.dead_index_hits
    rows = table.lookup_index_many(
        table.find_hash_index(("name",)), ["hot", "cold", "nope"]
    )
    assert rows == [] and table.stats.dead_index_hits == before + 10
    assert table.vacuum() == 10 and table.check_integrity() == []


def test_in_probe_dedups_skips_nulls_and_keeps_list_order():
    engine = make_engine("mysql")
    engine.execute("INSERT INTO t_name (name, ref) VALUES (?, ?), (?, ?), (?, ?)",
                   ["a", 1, "b", 2, "c", 3])
    rows = engine.execute(
        "SELECT name FROM t_name WHERE name IN (?, ?, ?, ?, ?)", ["c", None, "a", "c", "zz"]
    ).rows
    assert rows == [("c",), ("a",)]


def test_an_ordered_index_is_sorted_however_its_keys_arrive():
    # Few keys into many and many into few: either way each new key is
    # placed in its run, and a run that fills is split.
    idx = OrderedIndex("o", 0)
    idx.insert_rows([(rid, [f"k{rid:04d}"]) for rid in range(0, 2000, 2)])
    idx.insert_rows([(5001, ["k0001"]), (5003, ["k0003"])])
    idx.insert_rows([(rid, [f"k{rid:04d}"]) for rid in range(1999, 4, -2)])
    assert list(idx.distinct_keys()) == sorted(k for k, _ in idx.postings())
    assert len(idx) == 2000
    idx.insert("k0001", 7)
    assert set(idx.lookup("k0001")) == {5001, 7} and len(idx) == 2000


# ---------------------------------------------------------------------------
# The record encoder against the BytesIO one, in the wire codec's tags
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False), st.text(max_size=12),
)
payloads = st.lists(st.lists(scalars, max_size=5).map(tuple), max_size=6)


@settings(max_examples=200, deadline=None)
@given(first=st.integers(1, 2**40), op=st.sampled_from([OP_INSERT, OP_DELETE]),
       table=st.text(min_size=1, max_size=10), rows=payloads)
def test_encoder_is_byte_identical_and_round_trips(first, op, table, rows):
    data, count = encode_records(first, op, table, rows)
    records = [WALRecord(first + i, op, table, row) for i, row in enumerate(rows)]
    assert count == len(rows)
    assert data == b"".join(oracle_encode_record(r) for r in records)
    assert list(decode_records(data)) == records
    for record in records:
        assert encode_record(record) == oracle_encode_record(record)


@settings(max_examples=200, deadline=None)
@given(first=st.integers(1, 2**40), op=st.sampled_from([OP_INSERT, OP_DELETE]),
       table=st.text(max_size=10), rows=payloads)
def test_every_record_body_is_the_table_then_the_payload_as_codec_values(
    first, op, table, rows
):
    data, _count = encode_records(first, op, table, rows)
    offset = 0
    for row in rows:
        _lsn, _op, length = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size
        read, tell, _seek = make_reader(data[offset : offset + length])
        assert (read(), read()) == (table, list(row))
        assert tell() == length
        offset += length
    assert offset == len(data)


class Colour(enum.IntEnum):
    RED = 3


class Str(str):
    pass


def test_subclasses_encode_as_their_base_type_and_strangers_raise():
    record = WALRecord(1, OP_INSERT, "t", (Colour.RED, Str("s"), True))
    assert encode_record(record) == oracle_encode_record(record)
    for encode in (encode_record, oracle_encode_record):
        with pytest.raises(TypeError, match="cannot encode type object"):
            encode(WALRecord(1, OP_INSERT, "t", (1, object())))


def test_truncated_tail_of_a_multi_record_append():
    data, _count = encode_records(1, OP_INSERT, "t_lfn", [(i, f"lfn-{i}", 1) for i in range(4)])
    one = len(data) // 4
    for cut in range(1, one):
        assert [r.lsn for r in decode_records(data[:-cut])] == [1, 2, 3]
    assert [r.lsn for r in decode_records(data[: one + 5])] == [1]


# ---------------------------------------------------------------------------
# Flush policy: the statement is the unit
# ---------------------------------------------------------------------------


def rows_sql(n: int) -> tuple[str, list]:
    params: list = []
    for i in range(n):
        params += [f"n{i}", i]
    return "INSERT INTO t_name (name, ref) VALUES " + ", ".join(["(?, ?)"] * n), params


def test_flush_on_commit_syncs_once_per_statement_outside_a_transaction():
    engine = MySQLEngine(flush_on_commit=True, sync_latency=0.0)
    for ddl in DDL:
        engine.execute(ddl)
    device = engine.wal.device
    engine.execute(*rows_sql(5))
    assert device.sync_count == 1 and len(durable_records(engine.wal)) == 5
    engine.execute("DELETE FROM t_name WHERE name IN (?, ?, ?)", ["n0", "n1", "n2"])
    assert device.sync_count == 2 and len(durable_records(engine.wal)) == 8
    engine.execute("DELETE FROM t_name WHERE name = ?", ["gone"])  # wrote nothing
    assert device.sync_count == 2
    with pytest.raises(DuplicateKeyError):  # its prefix is a commit too
        engine.execute("INSERT INTO t_name (name, ref) VALUES (?, ?), (?, ?)", ["p", 1, "n3", 1])
    assert device.sync_count == 3 and len(durable_records(engine.wal)) == 9


def test_flush_on_commit_syncs_once_per_transaction_inside_one():
    engine = MySQLEngine(flush_on_commit=True, sync_latency=0.0)
    for ddl in DDL:
        engine.execute(ddl)
    device = engine.wal.device
    with engine.wal.transaction():
        engine.execute(*rows_sql(5))
        engine.execute("DELETE FROM t_name WHERE name IN (?, ?)", ["n0", "n1"])
        assert device.sync_count == 0
    assert device.sync_count == 1 and len(durable_records(engine.wal)) == 7


def test_with_flush_off_the_buffer_bound_is_looked_at_when_the_statement_ends():
    device = InMemoryLogDevice(sync_latency=0.0)
    wal = WriteAheadLog(device, flush_on_commit=False, max_buffered_records=3,
                        flush_interval=1e9)
    wal.log_many(OP_INSERT, "t", [(i,) for i in range(5)])  # crosses 3 at its third row
    assert device.sync_count == 1 and len(durable_records(wal)) == 5
    wal.log_many(OP_INSERT, "t", [(5,), (6,)])
    assert device.sync_count == 1 and len(durable_records(wal)) == 5
    assert wal.log(OP_INSERT, "t", (7,)) == 8
    assert device.sync_count == 2 and len(durable_records(wal)) == 8


def test_with_flush_off_the_interval_is_looked_at_when_the_statement_ends():
    device = InMemoryLogDevice(sync_latency=0.0)
    now = [0.0]
    clock_reads = []

    def clock() -> float:
        clock_reads.append(now[0])
        return now[0]

    wal = WriteAheadLog(device, flush_on_commit=False, flush_interval=5.0,
                        max_buffered_records=10**6, clock=clock)
    clock_reads.clear()
    wal.log_many(OP_INSERT, "t", [(i,) for i in range(4)])
    assert device.sync_count == 0 and len(clock_reads) == 1  # one decision, not four
    now[0] = 6.0
    wal.log_many(OP_INSERT, "t", [(4,), (5,)])
    assert device.sync_count == 1 and len(durable_records(wal)) == 6


def test_an_empty_statement_is_not_a_commit():
    device = InMemoryLogDevice(sync_latency=0.0)
    wal = WriteAheadLog(device, flush_on_commit=True)
    assert wal.log_many(OP_DELETE, "t", []) == 0
    assert device.sync_count == 0 and wal.records_appended == 0


def test_counters_and_charged_bytes_equal_those_of_single_appends():
    payloads = [(i, f"lfn-{i}", 1) for i in range(7)]
    seen = {}
    for how in ("many", "single"):
        registry = MetricsRegistry()
        wal = WriteAheadLog(InMemoryLogDevice(sync_latency=0.0), flush_on_commit=False,
                            flush_interval=1e9, metrics=registry)
        costs = reqctx.activate(reqctx.RequestCosts("wal", None, "cms-prod"))
        try:
            if how == "many":
                wal.log_many(OP_INSERT, "t_lfn", payloads)
            else:
                for payload in payloads:
                    wal.log(OP_INSERT, "t_lfn", payload)
        finally:
            reqctx.deactivate()
        snap = registry.snapshot()
        seen[how] = (
            snap.counters["wal.records_appended"], snap.gauges["wal.queue_depth"],
            costs.wal_bytes, wal.records_appended, wal.device.bytes_written,
        )
    assert seen["many"] == seen["single"]
    assert seen["many"][0] == 7 and seen["many"][1] == 7.0

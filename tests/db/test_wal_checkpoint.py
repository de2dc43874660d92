"""WAL checkpoints: the log stays bounded, the image is exact, counts don't move.

A checkpoint replaces everything logged so far with an image of the
tables (their live rows, by reference) and the device keeps only what is
logged after it.  Recovery reads the image as records followed by the
suffix, so replaying it must rebuild the live tables whatever was written
and however many checkpoints were crossed, and so must a mirror that is
shipped the log from any position; and since a checkpoint appends no
record (it only takes the next LSN), ``records_appended`` and the bytes
charged to a request are those of the statements alone.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from repro.cluster.mirror import MirrorIngest
from repro.core.lrc import LocalReplicaCatalog
from repro.db import wal as wal_module
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.postgres_engine import PostgresEngine
from repro.db.wal import (
    OP_CHECKPOINT,
    OP_INSERT,
    decode_records,
    encode_record,
    encode_records,
)
from repro.obs import reqctx
from tests.db._log import durable_records

DDL = (
    "CREATE TABLE t (id INT NOT NULL AUTO_INCREMENT, name VARCHAR(40) NOT NULL, "
    "ref INT, PRIMARY KEY (id), UNIQUE (name))"
)
#: Both storage flavours, flush off.
ENGINES = {
    "mysql": lambda: MySQLEngine(flush_on_commit=False, sync_latency=0.0),
    "postgres": lambda: PostgresEngine(sync_latency=0.0, dead_hit_cost=0.0),
}


@pytest.fixture
def floor(monkeypatch):
    """Set the checkpoint floor for engines built after this call."""

    def set_floor(records: int) -> int:
        monkeypatch.setattr(wal_module, "CHECKPOINT_MIN_RECORDS", records)
        return records

    return set_floor


def live_tables(engine) -> dict[str, Counter]:
    return {
        name: Counter(engine.table(name).live_rows()) for name in engine.table_names()
    }


def recovered(engine, flavour: str = "mysql"):
    """A fresh engine with ``engine``'s DDL, rebuilt from its durable log."""
    fresh = ENGINES[flavour]()
    for name in engine.table_names():
        fresh.create_table(engine.table(name).schema)
    fresh.apply_records(durable_records(engine.wal))
    return fresh


def split_log(engine) -> tuple[list, list]:
    """The durable log as (checkpoint record + image, suffix)."""
    records = durable_records(engine.wal)
    if not records or records[0].op != OP_CHECKPOINT:
        return [], records
    image = 1 + records[0].payload[0]
    return records[:image], records[image:]


def test_the_retained_log_is_bounded_by_the_floor_or_the_last_image(floor):
    floor_records = floor(256)
    # Flush on: every statement is durable, so read_all() is the whole log.
    engine = MySQLEngine(flush_on_commit=True, sync_latency=0.0)
    lrc = LocalReplicaCatalog(Connection(engine, "ck"), name="ck")
    lrc.init_schema()
    wal = engine.wal
    log_many = wal.log_many
    checkpoints: set[int] = set()

    def checked(op, table, payloads):
        lsn = log_many(op, table, payloads)
        image, suffix = split_log(engine)
        image_rows = len(image) - 1 if image else 0
        assert len(suffix) <= max(floor_records, image_rows) + len(payloads)
        if image:
            checkpoints.add(image[0].lsn)
        return lsn

    wal.log_many = checked
    # 300 loaded rows: past the floor, so the image sets the gap.
    lrc.bulk_load((f"base-{i}", f"pfn-base-{i}") for i in range(100))
    for cycle in range(200):
        pairs = [(f"lfn-{cycle}-{i}", f"pfn-{cycle}-{i}") for i in range(20)]
        assert lrc.bulk_create(pairs) == []
        assert lrc.bulk_delete(pairs) == []
    assert len(checkpoints) >= 50
    assert lrc.mapping_count() == 100
    assert live_tables(recovered(engine)) == live_tables(engine)


def test_a_checkpoint_appends_no_record_and_charges_no_bytes(floor):
    floor(4)
    engine = ENGINES["mysql"]()
    engine.execute(DDL)
    for i in range(3):
        engine.execute("INSERT INTO t (name, ref) VALUES (?, ?)", [f"n{i}", i])
    assert split_log(engine)[0] == []  # three records: no checkpoint yet
    device = engine.wal.device
    written = device.bytes_written
    costs = reqctx.activate(reqctx.RequestCosts("wal", None, "cms-prod"))
    try:
        engine.execute("INSERT INTO t (name, ref) VALUES (?, ?)", ["n3", 3])
    finally:
        reqctx.deactivate()
    record = encode_records(4, OP_INSERT, "t", [(4, "n3", 3)])[0]
    assert costs.wal_bytes == len(record) == device.bytes_written - written
    assert engine.wal.records_appended == 4
    image, suffix = split_log(engine)
    assert [r.lsn for r in image] == [5] * 5 and suffix == []  # the next LSN
    assert Counter(r.payload for r in image[1:]) == live_tables(engine)["t"]


@pytest.mark.parametrize("flavour", sorted(ENGINES))
def test_eight_writers_recover_to_the_live_tables(floor, flavour):
    floor(32)
    engine = ENGINES[flavour]()
    engine.execute(DDL)
    errors: list[BaseException] = []
    deadline = time.monotonic() + 1.0

    def writer(n: int) -> None:
        try:
            i = 0
            while time.monotonic() < deadline:
                rid, _row = engine.insert_row("t", {"name": f"w{n}-{i}", "ref": 0})
                rid, _row = engine.update_row("t", rid, {"ref": i})
                if i % 3:
                    engine.delete_rows("t", [rid])
                i += 1
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    engine.wal.flush()
    assert split_log(engine)[0], "no checkpoint was taken"
    assert live_tables(recovered(engine, flavour)) == live_tables(engine)


def test_a_torn_tail_after_the_image_loses_exactly_the_torn_record(floor):
    floor(8)
    engine = MySQLEngine(flush_on_commit=True, sync_latency=0.0)
    engine.execute(DDL)
    for i in range(8):  # the eighth insert takes the checkpoint
        engine.execute("INSERT INTO t (name, ref) VALUES (?, ?)", [f"n{i}", i])
    engine.execute("INSERT INTO t (name, ref) VALUES (?, ?), (?, ?)", ["a", 10, "b", 20])
    engine.execute("UPDATE t SET ref = ? WHERE name = ?", [7, "a"])
    engine.execute("DELETE FROM t WHERE ref < ?", [4])
    image, suffix = split_log(engine)
    assert len(image) == 9 and len(suffix) == 7
    data = engine.wal.device.read_all()
    end = sum(len(encode_record(r)) for r in image)
    assert list(decode_records(data[:end])) == image
    for k, record in enumerate(suffix):
        assert list(decode_records(data[: end + 1])) == image + suffix[:k]
        end += len(encode_record(record))
        assert list(decode_records(data[: end - 1])) == image + suffix[:k]
        assert list(decode_records(data[:end])) == image + suffix[: k + 1]
    assert end == len(data)


def test_a_registered_reader_keeps_its_records_across_a_checkpoint(floor):
    """An automatic checkpoint keeps the records after a registered
    ``LogReader``'s position, and the reader is served them with the
    suffix instead of the image, so a replica there replays to the live
    tables.  An explicit checkpoint (``bulk_load``'s, whose rows bypassed
    the log) keeps none, and the reader is told so."""
    floor(8)
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    replica = ENGINES["mysql"]()
    for db in (engine, replica):
        db.execute(DDL)
    insert = "INSERT INTO t (name, ref) VALUES (?, ?)"
    for i in range(3):
        engine.execute(insert, [f"n{i}", i])
    reader = engine.wal.reader()
    data, _count, reader.position = reader.read()
    replica.apply_records(decode_records(data))
    for i in range(3, 12):  # the eighth record takes the checkpoint
        engine.execute(insert, [f"n{i}", i])
        if i % 3 == 0:
            engine.execute("DELETE FROM t WHERE name = ?", [f"n{i - 1}"])
    assert engine.wal.checkpoint_lsn > reader.position
    data, count, last = reader.read()
    records = list(decode_records(data))
    assert len(records) == count and records[0].lsn == reader.position + 1
    assert OP_CHECKPOINT not in {r.op for r in records}
    assert engine.wal.checkpoint_lsn not in {r.lsn for r in records}
    replica.apply_records(records)
    assert live_tables(replica) == live_tables(engine)
    reader.position = last
    engine.wal.checkpoint()
    assert engine.wal.checkpoint_lsn > last and reader.read() is None


def checkpoint_lsn(data: bytes) -> int | None:
    first = next(decode_records(data), None)
    return first.lsn if first is not None and first.op == OP_CHECKPOINT else None


@pytest.mark.parametrize("flavour", sorted(ENGINES))
def test_any_prefix_then_the_rest_replays_to_the_live_tables(floor, flavour):
    """The log-shipping oracle: a mirror shipped the log from 0 when it
    ended at p, then from p once it ended at last — each ship delivered
    twice, as after a lost acknowledgement — holds what recovery and the
    master hold, for every durable position p, across checkpoints."""
    floor(8)
    engine = ENGINES[flavour]()
    lrc = LocalReplicaCatalog(Connection(engine, "rp"), name="rp")
    lrc.init_schema()
    wal = engine.wal
    #: durable position p -> the ships that bring a mirror there: the log
    #: from 0 back then, or, for the record before a checkpoint a
    #: statement took, the ships to the last mark and what followed it.
    firsts: dict[int, list] = {0: [(0, b"")]}
    #: p -> a reader registered at p then, which the later checkpoints
    #: keep records for.
    readers = {0: wal.reader(0)}

    def mark() -> None:
        data, _count, last = wal.read_all()
        firsts[last] = [(0, data)]
        readers[last] = wal.reader(last)

    log_many = wal.log_many

    def logged(op, table, payloads):
        before, since = max(firsts), wal.checkpoint_lsn
        lsn = log_many(op, table, payloads)
        if wal.checkpoint_lsn > since and wal.checkpoint_lsn == wal.last_lsn:
            # The position just before this checkpoint: a mirror there
            # took the last mark's ships and the records since.
            kept = readers[before].read()[0]
            firsts[lsn] = firsts[before] + [(before, kept)]
            readers[lsn] = wal.reader(lsn)
        mark()
        return lsn

    wal.log_many = logged
    lrc.add_rli("rli-a", patterns=["^l"])
    lrc.define_attribute("size", "lfn", "int")
    for i in range(12):
        lrc.create_mapping(f"l{i}", f"p{i}")
        lrc.add_attribute(f"l{i}", "size", "lfn", i)
        if i % 2:
            lrc.add_mapping(f"l{i}", f"p{i - 1}")
        if i % 3 == 2:
            lrc.delete_mapping(f"l{i - 1}", f"p{i - 1}")
        if i == 6:
            lrc.bulk_load((f"b{k}", f"pb{k}") for k in range(5))
            mark()  # its rows reach the log only as the checkpoint's image
    lrc.modify_attribute("l0", "size", "lfn", 99)
    assert lrc.bulk_create([(f"x{k}", f"px{k}") for k in range(4)]) == []
    assert lrc.bulk_delete([(f"x{k}", f"px{k}") for k in range(0, 4, 2)]) == []
    lrc.remove_rli("rli-a")
    wal.log_many = log_many
    mark()
    assert len({checkpoint_lsn(ships[0][1]) for ships in firsts.values()} - {None}) >= 2
    assert any(len(ships) > 1 for ships in firsts.values()), "no p = checkpoint - 1"

    expected = live_tables(engine)
    assert live_tables(recovered(engine, flavour)) == expected
    # Within one gap: at or after the checkpoint before the last.
    held_from = sorted({checkpoint_lsn(ships[0][1]) or 0 for ships in firsts.values()})[-2]
    for p, ships in sorted(firsts.items()):
        rest = (0, wal.read_all()[0]) if p < wal.checkpoint_lsn else (p, log_after(wal, p))
        read = readers[p].read()
        assert read is not None or p < held_from, p
        kept = (0, wal.read_all()[0]) if read is None else (p, read[0])
        assert read is None or checkpoint_lsn(kept[1]) is None, p
        for last_ships in (rest, kept):
            mirror = LocalReplicaCatalog(Connection(ENGINES[flavour](), "mi"), name="mi")
            mirror.init_schema()
            ingest = MirrorIngest(mirror, master="rp")
            for after, data in [*ships, *ships, last_ships, last_ships]:
                ingest.apply_log("rp", after, data)
            assert ingest.applied_lsn == wal.last_lsn, p
            assert live_tables(mirror.conn.database) == expected, p
            assert mirror.verify_integrity() == [], p


def log_after(wal, lsn: int) -> bytes:
    """The durable records after ``lsn`` (at or after the last checkpoint)."""
    return wal.reader(lsn).read()[0]


def test_a_readers_backlog_counts_the_records_after_it(floor):
    """Three records, a checkpoint (LSN 4, which carries no record), two
    more: a reader before the checkpoint is behind by every record after
    it but the checkpoint's LSN, one at or after it by the LSNs after it."""
    floor(1_000)
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    engine.execute(DDL)
    insert = "INSERT INTO t (name, ref) VALUES (?, ?)"
    for i in range(3):
        engine.execute(insert, [f"n{i}", i])
    engine.wal.checkpoint()
    for i in range(3, 5):
        engine.execute(insert, [f"n{i}", i])
    assert (engine.wal.checkpoint_lsn, engine.wal.last_lsn) == (4, 6)
    backlog = {lsn: engine.wal.reader(lsn).backlog for lsn in range(8)}
    assert backlog == {0: 5, 1: 4, 2: 3, 3: 2, 4: 2, 5: 1, 6: 0, 7: 0}

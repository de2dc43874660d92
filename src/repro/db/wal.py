"""Write-ahead log with configurable flush policy.

The paper's headline LRC result (Figures 4 and 5) is that add throughput is
dominated by whether the MySQL back end flushes its transaction log to the
physical disk on every commit (~84 adds/s) or only periodically
(>700 adds/s), while query throughput is unaffected.  This module provides
that mechanism:

* every committed mutation appends a :class:`WALRecord` to the log, and
  the unit of appending is the SQL statement: :meth:`WriteAheadLog.log_many`
  encodes the records of all the rows a statement wrote, appends them to
  the device in one piece and takes one flush decision
  (:meth:`WriteAheadLog.log` is its one-record case).  A record is a
  header (LSN, opcode, body length) and a body of two
  :mod:`repro.net.codec` values, the table name and the payload as a
  list: the log is written in the wire's one value codec;
* with ``flush_on_commit=True``, each commit performs a device sync whose
  latency models a disk write barrier (default 11 ms — calibrated so a
  single-threaded add loop lands near the paper's 84 adds/s).  Outside
  :meth:`WriteAheadLog.transaction` a statement is its own commit: one
  sync per statement, however many rows it wrote;
* with ``flush_on_commit=False``, records accumulate in a buffer and are
  synced in the background every ``flush_interval`` seconds or when the
  buffer exceeds ``max_buffered_records`` (both looked at when a
  statement ends) — "loose consistency, providing improved performance
  at some risk of database corruption" (§5.1).

The log is bounded by checkpoints.  Once a statement brings the records
logged since the last checkpoint to :data:`CHECKPOINT_MIN_RECORDS`, or to
the row count of the last image if that is larger, the log takes an image
of its database's tables (the live rows, by reference) and the device
drops every record before it.  A checkpoint takes the next LSN, so it is a
position in the log like any record.  Read back, the log is that image as
records — one ``OP_CHECKPOINT``, then one INSERT per row, all at its LSN —
followed by every record synced since, which is what
:meth:`repro.db.engine.Database.apply_records` replays: in crash recovery
and on a shard master's mirrors.  Each mirror and LRC→RLI target reads
the records after its own position through a :class:`LogReader`, and a
checkpoint a statement triggers keeps the records after the lowest
registered position, so a reader that keeps up never loses one.  A reader
the log no longer holds records for is told so: a mirror is then shipped
:meth:`WriteAheadLog.read_all`, an RLI target a full.
"""

from __future__ import annotations

import contextlib
import struct
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.db.profiler import TimedLatch
from repro.net.codec import encode, encode_into, make_reader
from repro.obs import reqctx, tracing
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

_HEADER = struct.Struct("<QBI")  # lsn, opcode, body length

OP_INSERT = 1
OP_DELETE = 2
OP_UPDATE = 3
OP_CHECKPOINT = 4

_OP_NAMES = {
    OP_INSERT: "INSERT",
    OP_DELETE: "DELETE",
    OP_UPDATE: "UPDATE",
    OP_CHECKPOINT: "CHECKPOINT",
}

#: The fewest records logged between two checkpoints.  The gap is the
#: larger of this and the row count of the last image, so a checkpoint
#: visits at most one row per record logged, and the log never holds much
#: more than twice the catalog.
CHECKPOINT_MIN_RECORDS = 65_536

#: A checkpoint's image: each table's name and its live rows.  The rows are
#: the stored tuples themselves, which nothing mutates.
Image = list[tuple[str, list[tuple[Any, ...]]]]


@dataclass(frozen=True)
class WALRecord:
    """One durable log record."""

    lsn: int
    op: int
    table: str
    payload: tuple[Any, ...]

    @property
    def op_name(self) -> str:
        return _OP_NAMES.get(self.op, f"OP{self.op}")


_BLANK_HEADER = bytes(_HEADER.size)


def encode_records(
    first_lsn: int,
    op: int,
    table: str,
    payloads: Iterable[Sequence[Any]],
    step: int = 1,
) -> tuple[bytes, int]:
    """The records of one statement, LSNs counting up from ``first_lsn``
    by ``step`` (0: all at ``first_lsn``), as one byte string; also
    returns how many there are.  A record's body is two wire-codec
    values: the table name, then the payload as a list."""
    head = encode(table)
    out = bytearray()
    count = 0
    for payload in payloads:
        start = len(out)
        out += _BLANK_HEADER
        out += head
        encode_into(out, payload)
        length = len(out) - start - _HEADER.size
        _HEADER.pack_into(out, start, first_lsn + count * step, op, length)
        count += 1
    return bytes(out), count


def encode_record(record: WALRecord) -> bytes:
    return encode_records(record.lsn, record.op, record.table, (record.payload,))[0]


def encode_checkpoint(lsn: int, image: Image) -> bytes:
    """A checkpoint as records, all at ``lsn``: one ``OP_CHECKPOINT``
    whose payload is the image's row count, then one INSERT per row."""
    rows = sum(len(table_rows) for _table, table_rows in image)
    parts = [encode_records(lsn, OP_CHECKPOINT, "", [(rows,)])[0]]
    for table, table_rows in image:
        parts.append(encode_records(lsn, OP_INSERT, table, table_rows, step=0)[0])
    return b"".join(parts)


def records_between(data: bytes, after: int, last: int) -> tuple[bytes, int, int]:
    """The complete records of ``data`` with an LSN in ``(after, last]``,
    how many there are, and the offset past the last one, found by
    stepping over record headers only."""
    offset, size, start, count = 0, len(data), None, 0
    unpack = _HEADER.unpack_from
    while offset + _HEADER.size <= size:
        lsn, _op, length = unpack(data, offset)
        end = offset + _HEADER.size + length
        if end > size or lsn > last:
            break
        if lsn > after:
            count += 1
            if start is None:
                start = offset
        offset = end
    return (b"" if start is None else data[start:offset]), count, offset


def decode_records(data: bytes, table: str | None = None) -> Iterator[WALRecord]:
    """Decode a byte stream of records; stops cleanly at a truncated tail.
    ``table``: decode that table's records only, stepping over the rest."""
    offset = 0
    size = len(data)
    head = None if table is None else encode(table)
    read, _tell, seek = make_reader(data)
    while offset + _HEADER.size <= size:
        lsn, op, length = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size
        if offset + length > size:
            return  # torn tail write — normal after a crash
        if head is None or data.startswith(head, offset):
            seek(offset)
            yield WALRecord(lsn, op, read(), tuple(read()))
        offset += length


class InMemoryLogDevice:
    """The WAL's durable device: RAM-backed, with a modelled sync latency.

    ``sync_latency`` models the disk write barrier: 11 ms default, which is
    the seek+rotate budget of the early-2000s disks in the paper's testbed
    (and yields their ~84 adds/s with flush-on-commit).  Set it to 0 for
    tests that don't care about timing.  ``sleep`` is injectable so the
    discrete-event simulator can charge virtual time instead of real time.
    """

    def __init__(
        self,
        sync_latency: float = 0.011,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._buffer = bytearray()
        #: What was synced since the last checkpoint.
        self._durable = bytearray()
        #: The last checkpoint's LSN and image, rendered only when read.
        self._checkpoint: tuple[int, Image] | None = None
        self.sync_latency = sync_latency
        self._sleep = sleep
        self.sync_count = 0
        self.bytes_written = 0

    def append(self, data: bytes) -> None:
        self._buffer.extend(data)
        self.bytes_written += len(data)

    def sync(self) -> None:
        if self.sync_latency > 0:
            self._sleep(self.sync_latency)
        self._durable.extend(self._buffer)
        self._buffer.clear()
        self.sync_count += 1

    def checkpoint(self, lsn: int, image: Image) -> None:
        """Drop every record up to ``lsn``: ``image`` stands for them.
        Called right after a sync, so nothing is buffered."""
        self._durable = bytearray()
        self._checkpoint = (lsn, image)

    def durable(self, start: int = 0) -> tuple[tuple[int, Image] | None, bytes]:
        """What survives a crash: the last checkpoint's LSN and image (None
        before the first), and the synced bytes that follow, from byte
        ``start`` of them — un-synced ones are lost in a 'crash'."""
        return self._checkpoint, bytes(self._durable[start:])

    def read_all(self) -> bytes:
        """Every durable record, the checkpoint rendered."""
        checkpoint, data = self.durable()
        return data if checkpoint is None else encode_checkpoint(*checkpoint) + data


class WriteAheadLog:
    """Append-ordered durable log with per-commit or periodic flushing."""

    def __init__(
        self,
        device: InMemoryLogDevice | None = None,
        flush_on_commit: bool = True,
        flush_interval: float = 1.0,
        max_buffered_records: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.device = device if device is not None else InMemoryLogDevice()
        self.flush_on_commit = flush_on_commit
        self.flush_interval = flush_interval
        self.max_buffered_records = max_buffered_records
        self._clock = clock
        self._next_lsn = 1
        #: The last LSN the device holds synced.
        self._durable_lsn = 0
        self._buffered = 0
        self._last_flush = clock()
        self.records_appended = 0
        self._txn = threading.local()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_flush = registry.histogram("wal.flush_latency")
        self._m_records = registry.counter("wal.records_appended")
        self._m_queue = registry.gauge("wal.queue_depth")
        # Contended acquisitions of the append lock surface as
        # db.wal_lock_wait, separating "waiting for the log" from
        # "waiting for the device" (wal.flush_latency) under load.
        self._lock = TimedLatch(
            hist=registry.histogram("db.wal_lock_wait"), reentrant=False
        )
        #: Optional flight recorder; the server wires this so WAL flushes
        #: land in the same event ring as RPC and update-delivery events.
        self.flight = None
        # Set by attach(); a log no database owns is never checkpointed.
        self._write_latch: Any = None
        self._image: Callable[[], Image] | None = None
        self._checkpoint_in = CHECKPOINT_MIN_RECORDS
        #: The LSN of the last checkpoint (0: none yet).
        self.checkpoint_lsn = 0
        self._readers: weakref.WeakSet[LogReader] = weakref.WeakSet()
        #: What a checkpoint a statement triggered kept: (the lowest
        #: position it serves, the device's bytes up to the checkpoint from
        #: at most there); None after another.
        self._kept: tuple[int, bytes] | None = None

    def attach(self, write_latch: Any, image: Callable[[], Image]) -> None:
        """Let this log checkpoint the database that owns it.

        ``write_latch`` is held by every writer of that database around a
        table write and the append that logs it, and is taken before this
        log's lock; ``image`` lists every table's live rows.
        """
        self._write_latch, self._image = write_latch, image

    def _sync_device(self) -> None:
        """Sync the device, recording flush latency and the queue drain.

        Callers hold ``self._lock``.  With no registry installed the
        instrument is a no-op singleton and the timing pair is skipped.
        """
        buffered = self._buffered
        if self._m_flush.noop and not tracing.active() and self.flight is None:
            self.device.sync()
        else:
            from repro.obs.profile import thread_role

            start = time.perf_counter()
            with thread_role("wal.flush"):
                with tracing.span("wal.flush", buffered=buffered):
                    self.device.sync()
            self._m_flush.observe(time.perf_counter() - start)
            if self.flight is not None:
                self.flight.record("wal.flush", buffered=buffered)
        self._buffered = 0
        self._durable_lsn = self._next_lsn - 1
        self._m_queue.set(0)
        self._last_flush = self._clock()

    def transaction(self):
        """Defer per-commit syncs until the enclosing transaction ends.

        A multi-statement RLS operation (e.g. an add touching t_lfn, t_pfn
        and t_map) is one database transaction with ONE durability barrier
        at commit — not one fsync per statement.  Nestable; only the
        outermost exit syncs.
        """
        return _WALTransaction(self)

    def _txn_depth(self) -> int:
        return getattr(self._txn, "depth", 0)

    def log(self, op: int, table: str, payload: Sequence[Any]) -> int:
        """Append one record; flush according to policy. Returns its LSN."""
        return self.log_many(op, table, (payload,))

    def log_many(
        self, op: int, table: str, payloads: Iterable[Sequence[Any]]
    ) -> int:
        """Append one record per payload — the rows one statement wrote —
        with consecutive LSNs, as one device append, and flush according
        to policy once.  Returns the last LSN.  No payloads, nothing
        happens: a statement that wrote no row is not a commit."""
        with self._lock:
            data, count = encode_records(self._next_lsn, op, table, payloads)
            if not count:
                return self._next_lsn - 1
            self._next_lsn += count
            self.device.append(data)
            costs = reqctx.current()
            if costs is not None:
                costs.wal_bytes += len(data)
            self.records_appended += count
            self._m_records.inc(count)
            self._buffered += count
            self._m_queue.set(self._buffered)
            if self.flush_on_commit:
                if self._txn_depth() > 0:
                    self._txn.pending = True
                else:
                    self._sync_device()
            elif (
                self._buffered >= self.max_buffered_records
                or self._clock() - self._last_flush >= self.flush_interval
            ):
                self._sync_device()
            last = self._next_lsn - 1
            self._checkpoint_in -= count
            if self._checkpoint_in <= 0 and self._image is not None:
                self._checkpoint(keep=True)
            return last

    def flush(self) -> None:
        """Sync what is buffered (on clean shutdown, and before a read of
        the durable records); with nothing buffered the device is not
        touched."""
        with self._lock:
            if self._durable_lsn < self._next_lsn - 1:
                self._sync_device()

    def checkpoint(self) -> None:
        """Take a checkpoint now (see :meth:`attach`); a log no database
        owns has nothing to image and is left as it is."""
        if self._image is None:
            return
        with self._write_latch, self._lock:
            self._checkpoint()

    def _checkpoint(self, keep: bool = False) -> None:
        """Image the tables, sync, and let the device drop every record
        the image stands for.  The caller holds the write latch and
        ``self._lock``, so no table write is waiting for its append and
        the image is exactly the state at the last LSN.  The checkpoint
        takes the next LSN: a reader at the last one has not seen a write
        that bypassed the log (``bulk_load``) and is owed the image.
        ``keep``: every write since the last checkpoint was logged (a
        statement triggered this one), so the records after the lowest
        registered reader stand for the image from there and are kept:
        the device's bytes from where a reader's last read ended, copied
        but not stepped over (a reader does that, outside the latch).
        None are kept for a reader before the last checkpoint (whose LSN,
        if a statement triggered it too, carries no record): it is owed
        the image anyway.  Appends no record and charges no request: what
        it costs is one sync and, with a reader behind, one copy."""
        image = self._image()
        self._sync_device()
        last, since, kept = self._durable_lsn, self.checkpoint_lsn, None
        if keep:
            floor = since - (self._kept is not None)
            held = [r.position for r in self._readers if r.position >= floor]
            after = min(held, default=last)
            ends = [r._end for r in self._readers if r._end[0] == since]
            start = max((end for _since, lsn, end in ends if lsn <= after), default=0)
            kept = after, self.device.durable(start)[1] if after < last else b""
        self._kept = kept
        self._next_lsn += 1
        self._durable_lsn = self.checkpoint_lsn = self._next_lsn - 1
        self.device.checkpoint(self._durable_lsn, image)
        self._checkpoint_in = max(
            CHECKPOINT_MIN_RECORDS, sum(len(rows) for _table, rows in image)
        )

    def snapshot(self, read: Callable[[], Any]) -> tuple[Any, int]:
        """``read()`` run under the write latch after a flush, as a
        checkpoint reads its image, and the durable LSN of the state it
        saw."""
        with self._write_latch or contextlib.nullcontext():
            self.flush()
            return read(), self.last_lsn

    @property
    def last_lsn(self) -> int:
        """The LSN of the last record logged (synced or not) or checkpoint."""
        return self._next_lsn - 1

    def reader(self, lsn: int = 0) -> "LogReader":
        """A reader at ``lsn``, registered with the checkpoints for as long
        as it lives."""
        reader = LogReader(self, lsn)
        with self._lock:
            self._readers.add(reader)
        return reader

    def read_all(self) -> tuple[bytes, int, int]:
        """The whole durable log, its checkpoint rendered, how many records
        it holds and its last LSN (flushed first, copied under the lock)."""
        self.flush()
        with self._lock:
            last, data = self._durable_lsn, self.device.read_all()
        return data, records_between(data, 0, last)[1], last


class LogReader:
    """A position in a :class:`WriteAheadLog` — a mirror's or an RLI
    target's acknowledged LSN, a feed's read-through one — set by its
    owner, and the byte offset where its last read ended."""

    def __init__(self, log: WriteAheadLog, position: int) -> None:
        self.log, self.position = log, position
        #: (checkpoint LSN, last LSN, byte offset after it) of the last read.
        self._end = (-1, 0, 0)

    @property
    def backlog(self) -> int:
        """The records logged after the position (a checkpoint's LSN
        carries none)."""
        log = self.log
        return max(0, log.last_lsn - self.position - (self.position < log.checkpoint_lsn))

    def read(self) -> tuple[bytes, int, int] | None:
        """The durable records after the position, how many, and the last
        durable LSN; None if the log no longer holds them.  Flushes only
        when a record is buffered; copies the device under the log's lock,
        from where the last read ended if the position is there."""
        log = self.log
        log.flush()
        with log._lock:
            last, since, kept = log._durable_lsn, log.checkpoint_lsn, log._kept
            lsn = self.position
            if lsn < since and (kept is None or lsn < kept[0]):
                return None
            after = max(lsn, since)
            start = self._end[2] if self._end[:2] == (since, after) else 0
            data = log.device.durable(start)[1]
        prefix, before = records_between(kept[1], lsn, since)[:2] if lsn < since else (b"", 0)
        records, count, end = records_between(data, after, last)
        self._end = (since, last, start + end)
        return prefix + records, before + count, last


class _WALTransaction:
    """Context manager deferring commit syncs (see WriteAheadLog.transaction)."""

    __slots__ = ("wal",)

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal

    def __enter__(self) -> "_WALTransaction":
        local = self.wal._txn
        local.depth = getattr(local, "depth", 0) + 1
        return self

    def __exit__(self, *exc: Any) -> None:
        local = self.wal._txn
        local.depth -= 1
        if (
            local.depth == 0
            and getattr(local, "pending", False)
            and self.wal.flush_on_commit
        ):
            local.pending = False
            with self.wal._lock:
                self.wal._sync_device()

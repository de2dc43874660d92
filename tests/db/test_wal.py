"""Write-ahead log: encoding, flush policies, durability, recovery."""

import time

import pytest

from repro.db.wal import (
    InMemoryLogDevice,
    OP_DELETE,
    OP_INSERT,
    WALRecord,
    WriteAheadLog,
    decode_records,
    encode_record,
)
from repro.obs.metrics import MetricsRegistry
from tests.db._log import durable_records


class TestRecordCodec:
    def roundtrip(self, payload):
        record = WALRecord(7, OP_INSERT, "t_lfn", tuple(payload))
        decoded = list(decode_records(encode_record(record)))
        assert decoded == [record]

    def test_scalar_types(self):
        self.roundtrip([1, "name", 2.5, None, True, False])

    def test_unicode(self):
        self.roundtrip(["lfn-ünïcode-データ"])

    def test_empty_payload(self):
        self.roundtrip([])

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode_record(WALRecord(1, OP_INSERT, "t", (object(),)))

    def test_truncated_tail_ignored(self):
        record = encode_record(WALRecord(1, OP_INSERT, "t", ("a",)))
        # Torn write: last 3 bytes missing.
        decoded = list(decode_records(record + record[:-3]))
        assert len(decoded) == 1

    def test_multiple_records_in_order(self):
        data = b"".join(
            encode_record(WALRecord(i, OP_DELETE, "t", (i,))) for i in range(5)
        )
        assert [r.lsn for r in decode_records(data)] == list(range(5))


class TestFlushPolicies:
    def test_flush_on_commit_syncs_every_record(self):
        device = InMemoryLogDevice(sync_latency=0.0)
        wal = WriteAheadLog(device, flush_on_commit=True)
        for i in range(5):
            wal.log(OP_INSERT, "t", (i,))
        assert device.sync_count == 5
        assert len(durable_records(wal)) == 5

    def test_periodic_flush_buffers(self):
        device = InMemoryLogDevice(sync_latency=0.0)
        fake_now = [0.0]
        wal = WriteAheadLog(
            device,
            flush_on_commit=False,
            flush_interval=10.0,
            max_buffered_records=100,
            clock=lambda: fake_now[0],
        )
        for i in range(5):
            wal.log(OP_INSERT, "t", (i,))
        assert device.sync_count == 0
        # Durable view is empty until a flush happens.
        assert durable_records(wal) == []

    def test_buffer_threshold_triggers_sync(self):
        device = InMemoryLogDevice(sync_latency=0.0)
        wal = WriteAheadLog(
            device, flush_on_commit=False, max_buffered_records=3,
            flush_interval=1e9,
        )
        for i in range(3):
            wal.log(OP_INSERT, "t", (i,))
        assert device.sync_count == 1

    def test_interval_triggers_sync(self):
        device = InMemoryLogDevice(sync_latency=0.0)
        fake_now = [0.0]
        wal = WriteAheadLog(
            device,
            flush_on_commit=False,
            flush_interval=5.0,
            max_buffered_records=10_000,
            clock=lambda: fake_now[0],
        )
        wal.log(OP_INSERT, "t", (1,))
        assert device.sync_count == 0
        fake_now[0] = 6.0
        wal.log(OP_INSERT, "t", (2,))
        assert device.sync_count == 1

    def test_explicit_flush(self):
        device = InMemoryLogDevice(sync_latency=0.0)
        wal = WriteAheadLog(device, flush_on_commit=False, flush_interval=1e9)
        wal.log(OP_INSERT, "t", (1,))
        wal.flush()
        assert len(durable_records(wal)) == 1

    def test_unsynced_records_lost_in_crash(self):
        """Flush-disabled mode risks losing the buffered tail (§5.1)."""
        device = InMemoryLogDevice(sync_latency=0.0)
        wal = WriteAheadLog(
            device, flush_on_commit=False, flush_interval=1e9,
            max_buffered_records=100,
        )
        wal.log(OP_INSERT, "t", (1,))
        wal.flush()
        wal.log(OP_INSERT, "t", (2,))  # never synced
        assert [r.payload for r in durable_records(wal)] == [(1,)]

    def test_lsns_monotonic(self):
        wal = WriteAheadLog(InMemoryLogDevice(sync_latency=0.0))
        lsns = [wal.log(OP_INSERT, "t", (i,)) for i in range(10)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 10


class TestSyncLatency:
    def test_sync_latency_charged_per_commit(self):
        slept = []
        device = InMemoryLogDevice(sync_latency=0.01, sleep=slept.append)
        wal = WriteAheadLog(device, flush_on_commit=True)
        for i in range(3):
            wal.log(OP_INSERT, "t", (i,))
        assert slept == [0.01, 0.01, 0.01]

    def test_no_latency_when_buffering(self):
        slept = []
        device = InMemoryLogDevice(sync_latency=0.01, sleep=slept.append)
        wal = WriteAheadLog(
            device, flush_on_commit=False, flush_interval=1e9,
            max_buffered_records=100,
        )
        wal.log(OP_INSERT, "t", (1,))
        assert slept == []

    def test_the_flush_histogram_sums_time_spent_flushing(self):
        """``wal.flush_latency`` observes each sync's duration: its sum is
        at least the modelled latency slept and no more than the wall
        time around the flushes."""
        registry = MetricsRegistry()
        device = InMemoryLogDevice(sync_latency=0.002)
        wal = WriteAheadLog(device, flush_on_commit=True, metrics=registry)
        start = time.perf_counter()
        for i in range(5):
            wal.log(OP_INSERT, "t", (i,))
        wall = time.perf_counter() - start
        flushes = registry.histogram("wal.flush_latency").snapshot()
        assert flushes.count == device.sync_count == 5
        assert 5 * 0.002 <= flushes.sum <= wall

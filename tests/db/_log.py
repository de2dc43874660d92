"""Decode what a write-ahead log's device holds durably."""

from __future__ import annotations

from repro.db.wal import WALRecord, WriteAheadLog, decode_records


def durable_records(wal: WriteAheadLog) -> list[WALRecord]:
    """Every durable record, the checkpoint rendered (crash-recovery view)."""
    return list(decode_records(wal.device.read_all()))

"""What a catalog entry costs the heap and the cyclic collector.

Counts, not timings.  A stored row is a tuple of strings and ints and an
index key holds the bare rid while one row carries it, so once a young
collection has looked at them a loaded catalog adds nothing to the set of
objects a full collection walks — and a full collection holds the GIL, so
it stops every connection for as long as that walk takes.  With one ``set``
per index key and rows as lists a mapping was 12.00 tracked containers and
about 3 200 bytes; with one-column index keys wrapped in a one-element tuple
it was about 1 110-1 240 bytes.  Keyed by the bare value it reads about
790-910; the bounds below are 0.05 and 1 000.

The write-ahead log goes to a device that keeps nothing here: the
in-memory device *is* the disk of the modelled server and would be
counted as catalog.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.lrc import LocalReplicaCatalog
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.wal import InMemoryLogDevice

MAX_TRACKED_PER_MAPPING = 0.05
MAX_BYTES_PER_MAPPING = 1_000


def pairs(prefix: str, count: int) -> list[tuple[str, str]]:
    return [
        (f"{prefix}/lfn-{i:09d}", f"pfn://site-{prefix}/lfn-{i:09d}") for i in range(count)
    ]


class DiscardingLogDevice(InMemoryLogDevice):
    """A log device that keeps neither records nor checkpoint images."""

    def append(self, data: bytes) -> None:
        pass

    def checkpoint(self, lsn, image) -> None:
        pass


@pytest.fixture
def lrc():
    device = DiscardingLogDevice(sync_latency=0.0)
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0, device=device)
    catalog = LocalReplicaCatalog(Connection(engine, "fp"), name="fp")
    catalog.init_schema()
    # Every statement shape the test runs (a bulk call of 1 000 names is a
    # few wide statements plus a remainder) is planned once, outside the counts.
    warm = pairs("warm", 1_001)
    catalog.create_mapping(*warm[0])
    catalog.add_mapping(warm[0][0], "pfn://warm/second")
    catalog.delete_mapping(warm[0][0], "pfn://warm/second")
    catalog.delete_mapping(*warm[0])
    assert catalog.bulk_create(warm[1:]) == []
    assert catalog.bulk_delete(warm[1:]) == []
    return catalog


class Footprint:
    """Tracked containers and traced bytes since construction."""

    def __init__(self) -> None:
        gc.collect()
        self.objects = len(gc.get_objects())
        self.bytes = tracemalloc.get_traced_memory()[0]

    def per_mapping(self, mappings: int) -> tuple[float, float]:
        gc.collect()
        tracked = len(gc.get_objects()) - self.objects
        traced = tracemalloc.get_traced_memory()[0] - self.bytes
        return tracked / mappings, traced / mappings


def assert_within_bounds(footprint: Footprint, mappings: int) -> None:
    tracked, traced = footprint.per_mapping(mappings)
    assert tracked <= MAX_TRACKED_PER_MAPPING, f"{tracked:.3f} tracked containers per mapping"
    assert traced <= MAX_BYTES_PER_MAPPING, f"{traced:.0f} bytes per mapping"
    assert traced > 200, "the counters are not counting"
    print(f"{mappings} mappings: {tracked:.4f} tracked containers, {traced:.0f} bytes each")


def test_a_mapping_costs_the_collector_nothing_and_the_heap_under_1500_bytes(lrc):
    tracemalloc.start()
    try:
        base = Footprint()
        assert lrc.bulk_load(pairs("load", 5_000)) == 5_000
        assert_within_bounds(base, 5_000)

        written = Footprint()
        for lfn, pfn in pairs("scalar", 1_000):
            lrc.create_mapping(lfn, pfn)
        assert lrc.bulk_create(pairs("bulk", 1_000)) == []
        # Bytes are judged over the whole catalog: a window this short
        # reads whichever index dict happened to double inside it.
        tracked, _traced = written.per_mapping(2_000)
        assert tracked <= MAX_TRACKED_PER_MAPPING, f"{tracked:.3f} per written mapping"
        assert_within_bounds(base, 7_000)

        # Half of them: a second replica and back (an index key goes
        # 1 -> 2 -> 1 rids), then the name itself deleted and re-added.
        churned = Footprint()
        half = pairs("scalar", 500) + pairs("bulk", 500)
        for lfn, _pfn in half:
            lrc.add_mapping(lfn, "pfn://shared/second")
        for lfn, _pfn in half:
            lrc.delete_mapping(lfn, "pfn://shared/second")
        assert lrc.bulk_delete(half) == []
        assert lrc.bulk_create(half) == []
        tracked, _traced = churned.per_mapping(1_000)
        assert tracked <= MAX_TRACKED_PER_MAPPING, f"{tracked:.3f} left behind per churned mapping"
        assert_within_bounds(base, 7_000)
    finally:
        tracemalloc.stop()
    assert lrc.mapping_count() == 7_000 and lrc.verify_integrity() == []

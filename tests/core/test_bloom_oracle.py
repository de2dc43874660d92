"""The hashed-probe read path against an oracle, and the wire format pinned.

Two things a faster Bloom path may never do: report a name absent that a
filter holds (the north-star invariant: Bloom mode never yields a false
negative), or change a single bit of what travels between an LRC and an
RLI.  The oracle below is written from the public ``probe_positions`` and
a plain byte test, so it shares no code with ``FilterTable`` /
``BloomFilter.__contains__``; the golden vectors were produced by the
code before the hashed path existed.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.bloom import (
    BloomFilter,
    BloomParameters,
    CountingBloomFilter,
    FilterTable,
    probe_positions,
)
from repro.core.errors import MappingNotFoundError
from repro.core.rli import ReplicaLocationIndex
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection

NAMES = st.text(min_size=0, max_size=12)


def oracle_contains(bitmap: bytes, num_bits: int, num_hashes: int, name: str) -> bool:
    return all(
        bitmap[pos // 8] & (1 << (pos % 8))
        for pos in probe_positions(name, num_bits, num_hashes)
    )


@st.composite
def filter_specs(draw):
    """0-6 filters, each with its own size, hash count and name set; the
    small sizes make false positives (and shared shapes) common."""
    return [
        (
            f"bloom{i}",
            draw(st.sampled_from([64, 128, 136, 1024])),
            draw(st.integers(1, 5)),
            draw(st.lists(NAMES, max_size=8)),
        )
        for i in range(draw(st.integers(0, 6)))
    ]


@settings(max_examples=60, deadline=None)
@given(
    specs=filter_specs(),
    relational=st.lists(st.lists(NAMES, max_size=6), max_size=3),
    extra=st.lists(NAMES, max_size=8),
)
def test_rli_answers_equal_the_oracle_and_never_miss_an_added_name(
    specs, relational, extra
):
    rli = ReplicaLocationIndex(
        Connection(MySQLEngine(flush_on_commit=False, sync_latency=0.0), "oracle")
    )
    rli.init_schema()
    bitmaps = {}
    for lrc, num_bits, num_hashes, names in specs:
        bloom = BloomFilter.from_names(names, BloomParameters(num_bits, num_hashes))
        bitmaps[lrc] = (bloom.to_bytes(), num_bits, num_hashes)
        rli.apply_bloom_update(lrc, *bitmaps[lrc], len(names))
    for i, names in enumerate(relational):
        rli.apply_full_update(f"db{i}", names)

    def expected(name: str) -> tuple[list[str], list[str]]:
        from_db = [f"db{i}" for i, names in enumerate(relational) if name in names]
        from_bloom = [
            lrc for lrc, packed in bitmaps.items() if oracle_contains(*packed, name)
        ]
        return from_db, from_bloom

    def agrees(answer: list[str], name: str) -> bool:
        """Relational sources first (the join's row order is the engine's
        business), then the filters in the order they were received."""
        from_db, from_bloom = expected(name)
        split = len(from_db)
        return sorted(answer[:split]) == from_db and answer[split:] == from_bloom

    asked = sorted(
        {n for *_, names in specs for n in names}
        | {n for names in relational for n in names}
        | set(extra)
    )
    held = [name for name in asked if any(expected(name))]
    for name in asked:
        if name in held:
            assert agrees(rli.query(name), name)
        else:
            try:
                rli.query(name)
            except MappingNotFoundError:
                pass
            else:
                raise AssertionError(f"{name!r} reported but nothing holds it")
    bulk = rli.bulk_query(asked)
    assert list(bulk) == held
    assert all(agrees(answer, name) for name, answer in bulk.items())
    # No false negative: whatever a filter was built from, it reports.
    for lrc, _bits, _k, names in specs:
        for name in names:
            assert lrc in rli.query(name)


@settings(max_examples=60, deadline=None)
@given(
    num_bits=st.sampled_from([64, 136, 1024]),
    num_hashes=st.integers(1, 5),
    single=st.lists(NAMES, max_size=6),
    batch=st.lists(NAMES, max_size=6),
    other=st.lists(NAMES, max_size=6),
    probes=st.lists(NAMES, max_size=10),
)
def test_scalar_batch_and_table_paths_agree(
    num_bits, num_hashes, single, batch, other, probes
):
    params = BloomParameters(num_bits, num_hashes)
    built = BloomFilter(params)
    for name in single:
        built.add(name)
    built.add_batch(batch)
    merged = built.union(BloomFilter.from_names(other, params))
    restored = BloomFilter.from_bytes(merged.to_bytes(), params)
    for bloom, members in (
        (built, single + batch),
        (merged, single + batch + other),
        (restored, single + batch + other),
    ):
        table = FilterTable({"it": bloom})
        packed = bloom.to_bytes()
        for name in members + probes:
            answer = oracle_contains(packed, num_bits, num_hashes, name)
            assert (name in bloom) == answer
            assert bool(bloom.contains_batch([name])[0]) == answer
            assert table.matching(name) == (["it"] if answer else [])
        assert all(name in bloom for name in members)


def test_filter_table_keeps_table_order_across_shapes():
    shapes = [(1024, 3), (2048, 3), (1024, 3), (1024, 5)]
    filters = {
        f"lrc{i}": BloomFilter.from_names(["shared", f"own{i}"], BloomParameters(*shape))
        for i, shape in enumerate(shapes)
    }
    table = FilterTable(filters)
    assert table.matching("shared") == ["lrc0", "lrc1", "lrc2", "lrc3"]
    assert table.matching("own2") == ["lrc2"]
    assert FilterTable({}).matching("shared") == []


# -- golden vectors: the wire format cannot drift ---------------------------

GOLDEN = {
    # name: (BLAKE2b-128 digest, positions at (1024, 3), positions at (200000, 5))
    "lfn-000001": (
        "7dcc1297661a9ab18be155f6d2e93d2b",
        [125, 520, 915],
        [63677, 142344, 21011, 99678, 178345],
    ),
    "/grid/cms/run7/file.root": (
        "9784bdf96aa8afcd256e6d8bd02bacd9",
        [151, 700, 225],
        [138455, 129980, 121505, 113030, 104555],
    ),
    "ligo/H1/frame-815155213.gwf": (
        "6798b9c7cffe4a129963fb608305e30f",
        [103, 0, 921],
        [5927, 186304, 166681, 147058, 127435],
    ),
    "ü-naïve-名前": (
        "f23b27b39f1d361d7fc7d8a765652848",
        [1010, 881, 752],
        [184050, 125873, 67696, 9519, 151342],
    ),
    "": (
        "cae66941d9efbd404e4d88758ea67670",
        [714, 25, 360],
        [102986, 123033, 143080, 163127, 183174],
    ),
}
GOLDEN_128_3 = "01018802000000100004000082010720"
GOLDEN_1024_4_FIRST_THREE = (
    "0100000000000000000000008000002000008000000000000000000002000000"
    "0000004000000000000000000000000000000000000000000000000000000000"
    "0001000000000000000000000000000000000000000000100000000000000000"
    "4000000000000400000000000000000000000802000000000000000000000000"
)


def test_golden_digest_positions_and_packed_bytes():
    names = list(GOLDEN)
    for name, (digest, small, large) in GOLDEN.items():
        assert hashlib.blake2b(name.encode("utf-8"), digest_size=16).hexdigest() == digest
        assert probe_positions(name, 1024, 3) == small
        assert probe_positions(name, 200000, 5) == large
    params = BloomParameters(128, 3)
    batch = BloomFilter.from_names(names, params)
    scalar = BloomFilter(params)
    counting = CountingBloomFilter(params)
    for name in names:
        scalar.add(name)
        counting.add(name)
    assert batch.to_bytes().hex() == GOLDEN_128_3
    assert scalar.to_bytes().hex() == GOLDEN_128_3
    assert counting.snapshot().to_bytes().hex() == GOLDEN_128_3
    wide = BloomFilter.from_names(names[:3], BloomParameters(1024, 4))
    assert wide.to_bytes().hex() == GOLDEN_1024_4_FIRST_THREE
    # A bitmap built by an old LRC answers identically through the new path.
    received = BloomFilter.from_bytes(bytes.fromhex(GOLDEN_128_3), params, len(names))
    assert all(name in received for name in names)
    assert FilterTable({"old-lrc": received}).matching(names[0]) == ["old-lrc"]


def test_counting_filter_saturates_and_keeps_its_books():
    params = BloomParameters(64, 2)
    counting = CountingBloomFilter(params)
    positions = probe_positions("hot", 64, 2)
    counting.counts[positions] = 65534
    counting.add("hot")
    counting.add("hot")  # saturated: stays at the ceiling, no wrap to 0
    assert [int(counting.counts[p]) for p in positions] == [65535, 65535]
    assert counting.entries == 2 and "hot" in counting
    counting.remove("hot")
    assert [int(counting.counts[p]) for p in positions] == [65534, 65534]
    counting.remove("never-added-and-all-zero")
    assert counting.entries == 0
    assert counting.counts.dtype == np.uint16
    assert np.array_equal(
        counting.snapshot().bits, BloomFilter.from_names(["hot"], params).bits
    )

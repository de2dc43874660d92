"""Pre-loaded server builders shared by tests, examples and benchmarks.

Each helper constructs an :class:`~repro.core.server.RLSServer` in a known
state matching one of the paper's experimental setups (§4: "for each set
of trials, a server is loaded with a predefined number of mappings").
"""

from __future__ import annotations

from repro.core.config import Backend, ServerConfig, ServerRole
from repro.core.server import RLSServer
from repro.core.updates import UpdatePolicy
from repro.core.bloom import BloomFilter, BloomParameters
from repro.workload.names import MappingSet, sequential_names


def loaded_lrc_server(
    entries: int,
    name: str = "lrc0",
    backend: Backend | str = Backend.MYSQL,
    flush_on_commit: bool = False,
    sync_latency: float = 0.011,
    replicas: int = 1,
) -> tuple[RLSServer, MappingSet]:
    """LRC server pre-loaded with ``entries`` logical names.

    Loading bypasses the RPC layer (direct catalog bulk inserts) because
    the paper also initializes servers out-of-band before measuring.
    """
    config = ServerConfig(
        name=name,
        role=ServerRole.LRC,
        backend=backend,
        flush_on_commit=False,  # load fast; set the real policy afterwards
        sync_latency=sync_latency,
        updates=UpdatePolicy(bloom_expected_entries=max(entries, 1024)),
    )
    server = RLSServer(config)
    mappings = MappingSet(count=entries, replicas=replicas)
    lrc = server.lrc
    assert lrc is not None
    lrc.bulk_load(mappings.pairs())
    # Now apply the flush policy under test.
    if flush_on_commit and hasattr(server.engine, "set_flush_on_commit"):
        server.engine.set_flush_on_commit(True)
    elif flush_on_commit:
        server.engine.wal.flush_on_commit = True
    return server, mappings


def loaded_rli_server_uncompressed(
    mappings_per_lrc: int,
    num_lrcs: int = 1,
    name: str = "rli0",
) -> tuple[RLSServer, list[str]]:
    """RLI pre-populated via full uncompressed updates from ``num_lrcs`` LRCs.

    Returns the server and the logical-name list (shared namespace: every
    LRC reports the same names, as when replicas exist at every site).
    """
    config = ServerConfig(name=name, role=ServerRole.RLI)
    server = RLSServer(config)
    rli = server.rli
    assert rli is not None
    lfns = sequential_names(mappings_per_lrc)
    for i in range(num_lrcs):
        rli.apply_full_update(f"lrc{i}", lfns)
    return server, lfns


def loaded_rli_server_bloom(
    entries_per_filter: int,
    num_filters: int = 1,
    name: str = "rli0",
    bits_per_entry: int = 10,
    num_hashes: int = 3,
) -> tuple[RLSServer, list[str]]:
    """RLI holding ``num_filters`` in-memory Bloom filters (Figure 10 setup).

    Each filter indexes the same ``entries_per_filter`` logical names, so
    a query must touch every filter — the worst case the paper measures.
    """
    config = ServerConfig(name=name, role=ServerRole.RLI)
    server = RLSServer(config)
    rli = server.rli
    assert rli is not None
    lfns = sequential_names(entries_per_filter)
    params = BloomParameters.for_entries(
        entries_per_filter, bits_per_entry=bits_per_entry, num_hashes=num_hashes
    )
    bloom = BloomFilter.from_names(lfns, params)
    payload = bloom.to_bytes()
    for i in range(num_filters):
        rli.apply_bloom_update(
            f"lrc{i}", payload, params.num_bits, params.num_hashes, len(lfns)
        )
    return server, lfns

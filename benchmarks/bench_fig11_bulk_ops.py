"""Figure 11: bulk operation rates (1000 requests per operation).

Paper setup: LRC with 1 M mappings, MySQL, multiple clients x 10 threads,
each bulk request carrying 1000 operations.  Result: bulk queries beat
non-bulk queries by ~27% for one client, shrinking to ~8% at 10 clients;
combined bulk add/delete lands near (slightly above) non-bulk rates.
"""

from __future__ import annotations

import pytest

from benchmarks.common import (
    measure_rate,
    record_series,
    scaled,
    write_bench_artifact,
)
from repro.core.client import connect
from repro.workload.driver import LoadDriver
from repro.workload.scenarios import loaded_lrc_server

PAPER_ENTRIES = 1_000_000
BATCH = 1000
CLIENT_COUNTS = [1, 4, 10]
PAPER_BULK_QUERY = {1: 2670, 4: 2200, 10: 1840}
PAPER_BULK_ADD_DELETE = {1: 960, 4: 700, 10: 510}


@pytest.fixture(scope="module")
def lrc_server():
    server, mappings = loaded_lrc_server(
        scaled(PAPER_ENTRIES), name="fig11-lrc", sync_latency=0.0
    )
    yield server, mappings
    server.stop()


def _bulk_query_rate(server_name, lfns, clients) -> float:
    """Rate in *logical operations*/s: each request carries BATCH queries."""
    requests = clients * 10  # one bulk request per thread
    driver_rate = measure_rate(
        server_name,
        LoadDriver.bulk_query_op(lfns, batch=BATCH),
        clients,
        10,
        total_operations=requests,
        trials=3,
    )
    return driver_rate * BATCH


def _bulk_add_delete_rate(server_name, clients, start) -> float:
    """Each op: bulk-create 1000 mappings then bulk-delete them (§5.4)."""
    requests = clients * 10

    def op(client, i):
        pairs = [
            (f"fig11-{start + i}-{j}", f"pfn://fig11-{start + i}-{j}")
            for j in range(BATCH)
        ]
        failures = client.bulk_create(pairs)
        assert not failures
        failures = client.bulk_delete(pairs)
        assert not failures

    rate = measure_rate(
        server_name, op, clients, 10, total_operations=requests
    )
    return rate * BATCH  # add+delete pairs per second


def _nonbulk_add_delete_rate(server_name, clients, start) -> float:
    """The same work one name at a time: create a mapping, delete it."""

    def op(client, i):
        lfn = f"fig11-scalar-{start + i}"
        client.create(lfn, f"pfn://{lfn}")
        client.delete(lfn, f"pfn://{lfn}")

    return measure_rate(server_name, op, clients, 10, total_operations=1000)


def bench_fig11_bulk_rates(lrc_server, benchmark):
    server, mappings = lrc_server
    name = server.config.name
    lfns = mappings.random_lfns(4000)

    bulk_query, bulk_ad, nonbulk_query, nonbulk_ad = {}, {}, {}, {}
    start = 0
    for clients in CLIENT_COUNTS:
        bulk_query[clients] = _bulk_query_rate(name, lfns, clients)
        bulk_ad[clients] = _bulk_add_delete_rate(name, clients, start)
        nonbulk_ad[clients] = _nonbulk_add_delete_rate(name, clients, start)
        start += 1000
        nonbulk_query[clients] = measure_rate(
            name, LoadDriver.query_op(lfns), clients, 10, 2000, trials=3
        )

    benchmark.pedantic(
        lambda: connect(name).bulk_query(lfns[:BATCH]),
        rounds=3,
        iterations=1,
    )

    rows = [
        [
            c,
            PAPER_BULK_QUERY[c],
            f"{bulk_query[c]:.0f}",
            f"{nonbulk_query[c]:.0f}",
            PAPER_BULK_ADD_DELETE[c],
            f"{bulk_ad[c]:.0f}",
            f"{nonbulk_ad[c]:.0f}",
        ]
        for c in CLIENT_COUNTS
    ]
    record_series(
        "Figure 11 — bulk operation rates (logical ops/s, 1000 per request)",
        [
            "clients",
            "paper bulk query", "ours bulk query", "ours non-bulk query",
            "paper bulk add/del", "ours bulk add/del", "ours non-bulk add/del",
        ],
        rows,
        notes=[
            "paper shape: bulk query > non-bulk query, advantage shrinking "
            "with total threads",
            "add/del columns count add+delete pairs per second, bulk "
            "(1000 per request) and one name per request",
        ],
    )

    write_bench_artifact(
        "fig11",
        series={
            "lrc.bulk_query_rate": [
                [c, bulk_query[c]] for c in CLIENT_COUNTS
            ],
            "lrc.bulk_add_delete_rate": [
                [c, bulk_ad[c]] for c in CLIENT_COUNTS
            ],
            "lrc.nonbulk_query_rate": [
                [c, nonbulk_query[c]] for c in CLIENT_COUNTS
            ],
            "lrc.nonbulk_add_delete_rate": [
                [c, nonbulk_ad[c]] for c in CLIENT_COUNTS
            ],
        },
        meta={"batch": BATCH, "x_axis": "clients"},
    )

    # Shape: bulk queries outperform non-bulk queries in aggregate
    # (request aggregation amortizes per-request overhead); individual
    # points may tie under scheduler noise.
    assert sum(bulk_query.values()) > sum(nonbulk_query.values())
    for c in CLIENT_COUNTS:
        assert bulk_query[c] > 0.75 * nonbulk_query[c]
    # Bulk add/delete amortises below the RPC as well as above it: a name
    # in a bulk request costs clearly less than a request of its own.
    assert sum(bulk_ad.values()) > sum(nonbulk_ad.values())
    # The paper's second-order effect — the bulk advantage *shrinking* from
    # +27% (1 client) to +8% (10 clients) — is smaller than this suite's
    # run-to-run variance on a shared CPU, so it is reported in the table
    # above rather than asserted.

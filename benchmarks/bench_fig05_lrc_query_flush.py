"""Figure 5: LRC query rates with database flush enabled vs disabled.

Paper result: query throughput is unaffected by the flush setting
("query operations do not change the contents of the database or generate
transactions"), at roughly 2000-2400 queries/s for 1-15 threads.
"""

from __future__ import annotations

import pytest

from benchmarks.common import (
    measure_rate,
    record_series,
    scaled,
    write_bench_artifact,
)
from repro.workload.driver import LoadDriver
from repro.workload.scenarios import loaded_lrc_server

PAPER_ENTRIES = 1_000_000
THREAD_COUNTS = [1, 3, 6, 9, 12, 15]
PAPER_FLUSH_ON = {1: 1000, 3: 2000, 6: 2300, 9: 2300, 12: 2200, 15: 2200}
PAPER_FLUSH_OFF = {1: 1000, 3: 2000, 6: 2300, 9: 2300, 12: 2200, 15: 2200}


@pytest.fixture(scope="module")
def lrc_server():
    server, mappings = loaded_lrc_server(
        scaled(PAPER_ENTRIES), name="fig5-lrc", sync_latency=0.011
    )
    yield server, mappings
    server.stop()


def bench_fig05_query_rates(lrc_server, benchmark):
    server, mappings = lrc_server
    lfns = mappings.random_lfns(2000)
    op = LoadDriver.query_op(lfns)

    def series():
        rates = {}
        for threads in THREAD_COUNTS:
            rates[threads] = measure_rate(
                server.config.name,
                op,
                clients=1,
                threads_per_client=threads,
                total_operations=2500,
                trials=3,
            )
        return rates

    server.engine.set_flush_on_commit(True)
    on_rates = series()
    server.engine.set_flush_on_commit(False)
    off_rates = series()

    benchmark.pedantic(
        lambda: measure_rate(
            server.config.name, op, 1, 10, total_operations=2000
        ),
        rounds=3,
        iterations=1,
    )

    rows = [
        [
            t,
            PAPER_FLUSH_ON[t],
            f"{on_rates[t]:.0f}",
            PAPER_FLUSH_OFF[t],
            f"{off_rates[t]:.0f}",
        ]
        for t in THREAD_COUNTS
    ]
    record_series(
        "Figure 5 — LRC query rate (queries/s), flush enabled vs disabled",
        ["threads", "paper flush-on", "ours flush-on", "paper flush-off", "ours flush-off"],
        rows,
        notes=["paper finding: flush setting does not affect queries"],
    )

    artifact = write_bench_artifact(
        "fig05",
        series={
            f"lrc.query_rate.{label}": [[t, rates[t]] for t in THREAD_COUNTS]
            for label, rates in (("flush_on", on_rates), ("flush_off", off_rates))
        },
        meta={
            "thread_counts": THREAD_COUNTS,
            "flush_on": {str(t): on_rates[t] for t in THREAD_COUNTS},
            "flush_off": {str(t): off_rates[t] for t in THREAD_COUNTS},
        },
    )
    print(f"wrote {artifact}")

    # Shape: flush makes no material difference for queries.  Individual
    # points are noisy under whole-suite CPU contention, so bound each
    # point loosely and the series means tightly.
    for t in THREAD_COUNTS:
        ratio = on_rates[t] / off_rates[t]
        assert 0.4 < ratio < 2.5, f"flush changed query rate at {t} threads"
    mean_on = sum(on_rates.values()) / len(on_rates)
    mean_off = sum(off_rates.values()) / len(off_rates)
    assert 0.65 < mean_on / mean_off < 1.55

"""Figure 8: PostgreSQL add-rate sawtooth from dead tuples and VACUUM.

Paper setup: LRC on PostgreSQL (fsync disabled), database of 110 K
mappings.  Each trial adds 10 000 mappings then deletes them; after 10
trials (100 K operations) a VACUUM runs.  Result: the add rate decays
steadily across trials as dead tuples accumulate, then snaps back to its
maximum after each VACUUM — a sawtooth.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.common import (
    record_series,
    scaled,
    write_bench_artifact,
)
from repro.core.config import Backend
from repro.workload.scenarios import loaded_lrc_server

PAPER_BASE_ENTRIES = 110_000
PAPER_OPS_PER_TRIAL = 10_000
TRIALS_PER_CYCLE = 10
CYCLES = 2


@pytest.fixture(scope="module")
def pg_server():
    server, mappings = loaded_lrc_server(
        scaled(PAPER_BASE_ENTRIES),
        name="fig8-pg",
        backend=Backend.POSTGRESQL,
        sync_latency=0.0,
    )
    yield server
    server.stop()


def _trial_add_rate(lrc, ops: int) -> float:
    """One §5.2 trial: add ``ops`` mappings, then delete them.

    The same name set is reused every trial (as in the paper's protocol of
    adding and subsequently deleting the mappings), so each cycle piles up
    another generation of dead tuples for these keys: the unique-check on
    every re-add must skip all prior dead index entries, which is exactly
    the degradation VACUUM clears.
    """
    pairs = [(f"fig8-{i}", f"pfn://fig8-{i}") for i in range(ops)]
    start = time.perf_counter()
    for lfn, pfn in pairs:
        lrc.create_mapping(lfn, pfn)
    elapsed = time.perf_counter() - start
    for lfn, pfn in pairs:
        lrc.delete_mapping(lfn, pfn)
    return ops / elapsed


def bench_fig08_sawtooth(pg_server, benchmark):
    server = pg_server
    lrc = server.lrc
    ops = scaled(PAPER_OPS_PER_TRIAL, minimum=300)

    rates: list[float] = []
    dead_counts: list[int] = []
    for cycle in range(CYCLES):
        for trial in range(TRIALS_PER_CYCLE):
            rates.append(_trial_add_rate(lrc, ops))
            # Attribution via the public metrics surface: the engine
            # exports dead-tuple counts as db.table.* gauges, so the
            # sawtooth explanation needs no private engine access.
            dead_counts.append(int(
                server.metrics.snapshot().gauges[
                    "db.table.dead_tuples{table=t_lfn}"
                ]
            ))
        server.engine.vacuum()

    benchmark.pedantic(
        lambda: _trial_add_rate(lrc, min(ops, 500)),
        rounds=3,
        iterations=1,
    )

    rows = []
    for i, (rate, dead) in enumerate(zip(rates, dead_counts)):
        cycle, trial = divmod(i, TRIALS_PER_CYCLE)
        marker = " <- VACUUM after this trial" if trial == TRIALS_PER_CYCLE - 1 else ""
        rows.append(
            [f"c{cycle} t{trial}", f"{rate:.0f}", dead, marker]
        )
    record_series(
        "Figure 8 — PostgreSQL add rate sawtooth (adds/s per trial)",
        ["trial", "adds/s", "dead t_lfn tuples", ""],
        rows,
        notes=[
            f"{ops} adds+deletes per trial (paper: {PAPER_OPS_PER_TRIAL}); "
            "paper shape: rate decays within a cycle, VACUUM restores it",
        ],
    )

    artifact = write_bench_artifact(
        "fig08",
        series={
            "lrc.add_rate": [[trial, rate] for trial, rate in enumerate(rates, 1)]
        },
        meta={
            "ops_per_trial": ops,
            "trials_per_cycle": TRIALS_PER_CYCLE,
            "cycles": CYCLES,
            "dead_tuples": dead_counts,
            "dead_tuples_source": "db.table.dead_tuples{table=t_lfn}",
        },
    )
    print(f"wrote {artifact}")

    # Shape assertions: within each cycle the late-trial rate is lower than
    # the early-trial rate, and the first trial after VACUUM recovers.
    first_cycle = rates[:TRIALS_PER_CYCLE]
    early = sum(first_cycle[:3]) / 3
    late = sum(first_cycle[-3:]) / 3
    assert late < early * 0.9, "no decay within cycle"
    post_vacuum = rates[TRIALS_PER_CYCLE]
    assert post_vacuum > late * 1.1, "VACUUM did not restore the add rate"

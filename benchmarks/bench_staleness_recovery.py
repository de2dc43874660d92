"""Staleness / recovery ablations on the whole-deployment simulator, which
runs the real catalog, update manager and index on a virtual clock.

Quantifies two claims the paper makes but never measures:

* §3.3: "the use of immediate mode is almost always advantageous" — we
  measure the staleness (wrong-RLI-answer fraction) vs. wire-traffic
  trade-off for full-only, immediate, and Bloom update modes over four
  simulated hours of catalog churn;
* §2: "If an RLI fails and later resumes operation, its state can be
  reconstructed using soft state updates" — we crash the index and time
  the rebuild as a function of the full-update interval.
"""

from __future__ import annotations

from benchmarks.common import record_series
from repro.sim.rls_sim import recovery_experiment, staleness_experiment

MODES = ("full-only", "immediate", "bloom")


def bench_staleness_vs_update_mode(benchmark):
    results = {
        mode: staleness_experiment(
            mode,
            catalog_size=5_000,
            churn_per_sec=2.0,
            duration=4 * 3600.0,
        )
        for mode in MODES
    }

    benchmark.pedantic(
        lambda: staleness_experiment(
            "immediate", catalog_size=1_000, duration=1800.0
        ),
        rounds=3,
        iterations=1,
    )

    rows = [
        [
            mode,
            f"{r.stale_fraction * 100:.1f}%",
            f"{r.miss_fraction * 100:.1f}%",
            f"{r.ghost_fraction * 100:.1f}%",
            f"{r.bytes_sent / 1e6:.1f} MB",
            r.updates_sent,
        ]
        for mode, r in results.items()
    ]
    record_series(
        "Staleness ablation — 4 simulated hours, 5k-entry catalog, "
        "2 changes/s churn",
        ["mode", "stale answers", "misses", "ghosts", "traffic", "updates"],
        rows,
        notes=[
            "full-only: deletions linger until the next full update "
            "(ghosts dominate); immediate mode propagates them in ~30 s; "
            "bloom matches immediate's freshness at a fraction of the bytes",
        ],
    )

    assert results["immediate"].stale_fraction < 0.5 * results[
        "full-only"
    ].stale_fraction
    assert results["bloom"].bytes_sent < results["immediate"].bytes_sent


def bench_recovery_vs_full_interval(benchmark):
    intervals = (120.0, 300.0, 600.0, 1200.0)
    results = {
        interval: recovery_experiment(
            full_interval=interval, num_lrcs=4, catalog_size=2_000
        )
        for interval in intervals
    }

    benchmark.pedantic(
        lambda: recovery_experiment(full_interval=300.0, catalog_size=500),
        rounds=3,
        iterations=1,
    )

    rows = [
        [f"{interval:.0f}s", f"{results[interval].recovery_time:.0f}s"]
        for interval in intervals
    ]
    record_series(
        "Soft-state recovery — RLI crash to 99% index coverage",
        ["full-update interval", "recovery time"],
        rows,
        notes=[
            "recovery completes when the last (phase-shifted) LRC pushes "
            "its next full update: bounded by one full interval, no "
            "recovery protocol needed — the §2 soft-state design claim",
        ],
    )

    for interval in intervals:
        assert results[interval].recovery_time <= interval + 15.0
    assert results[1200.0].recovery_time > results[120.0].recovery_time

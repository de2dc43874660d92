"""SLO burn-rate bench: fast-burn alerting under injected shard faults.

Not a paper figure — the paper reports operation rates under load
(Figs. 4-6); this bench validates the *operational* layer on top: when
one shard of a 2-shard + mirrors cluster starts failing every query, the
multi-window multi-burn-rate alerting must fire the fast (critical) page
on that shard, and must stay quiet both on the healthy shard and on an
identical fault-free baseline run.

Runs on the deterministic simulation kernel
(:func:`repro.sim.cluster_sim.cluster_experiment`): virtual time, so a
15-minute incident replays in milliseconds and the burn arithmetic is
free of wall-clock noise.  The per-shard alerts come from the same
:class:`~repro.obs.slo.SLITracker` the live
:class:`~repro.obs.slo.SLIRecorder` feeds.

Artifact (``BENCH_slo_overload.json``): each run's query counts and the
alerts that fired at its end.
"""

from __future__ import annotations

from benchmarks.common import record_series, write_bench_artifact
from repro.sim.cluster_sim import cluster_experiment
from repro.testing.faults import FailureSchedule

SHARDS = 2
MIRRORS_PER_SHARD = 1
CLIENTS = 8
#: Modelled per-query service time; only the *ratio* of failing to total
#: traffic matters to the burn arithmetic, so a coarse grain keeps the
#: event count (and CI wall time) small.
SERVICE_TIME = 0.02
DURATION = 600.0
#: The injected outage: every query against FAULT_SHARD fails from here on.
FAULT_AFTER = 200.0
FAULT_SHARD = "shard0"
SEED = 7


def run_pair():
    """(baseline, faulted) cluster_experiment results, same seed/topology."""
    baseline = cluster_experiment(
        SHARDS,
        mirrors_per_shard=MIRRORS_PER_SHARD,
        num_clients=CLIENTS,
        service_time=SERVICE_TIME,
        duration=DURATION,
        seed=SEED,
    )
    faulted = cluster_experiment(
        SHARDS,
        mirrors_per_shard=MIRRORS_PER_SHARD,
        num_clients=CLIENTS,
        service_time=SERVICE_TIME,
        duration=DURATION,
        faults=FailureSchedule.always(),
        fault_shard=FAULT_SHARD,
        fault_after=FAULT_AFTER,
        seed=SEED,
    )
    return baseline, faulted


def bench_slo_overload(benchmark):
    baseline, faulted = run_pair()

    # --- baseline: no faults -> no alerts ---
    assert baseline.queries_failed == 0
    assert baseline.slo_alerts == [], baseline.slo_alerts

    # --- faulted: the fast (critical) page fires on the dying shard ---
    assert faulted.queries_failed > 0
    fast_alerts = [
        a for a in faulted.slo_alerts
        if a["window"] == "fast" and a["shard"] == FAULT_SHARD
    ]
    assert fast_alerts, f"no fast-burn alert: {faulted.slo_alerts}"
    assert all(a["severity"] == "critical" for a in fast_alerts)
    # ...and only there: the healthy shard pages nobody.
    assert all(a["shard"] == FAULT_SHARD for a in faulted.slo_alerts), (
        faulted.slo_alerts
    )

    # pytest-benchmark timing sample: one full paired simulation.
    benchmark.pedantic(run_pair, rounds=1, iterations=1)

    peak_burn = max(a["burn_short"] for a in fast_alerts)
    record_series(
        "SLO burn under a shard outage — fast window burn rate "
        f"({SHARDS} shards x {MIRRORS_PER_SHARD} mirrors, "
        f"{FAULT_SHARD} fails all queries after t={FAULT_AFTER:g}s)",
        ["run", "completed", "failed", "alerts", "peak burn"],
        [
            ["baseline", baseline.queries_completed, 0, 0, "0.00x"],
            [
                "faulted",
                faulted.queries_completed,
                faulted.queries_failed,
                len(faulted.slo_alerts),
                f"{peak_burn:.0f}x",
            ],
        ],
        notes=[
            "alert rule: burn >= 14.4 over 5m AND 1h windows pages "
            "critical; >= 1.0 over 6h AND 3d warns",
            "peak burn: the fast alert's 5m burn at the end of the run",
        ],
    )

    write_bench_artifact(
        "slo_overload",
        series={},
        meta={
            "runs": {
                "baseline": {
                    "queries_completed": baseline.queries_completed,
                    "queries_failed": baseline.queries_failed,
                    "alerts": baseline.slo_alerts,
                },
                "faulted": {
                    "queries_completed": faulted.queries_completed,
                    "queries_failed": faulted.queries_failed,
                    "alerts": faulted.slo_alerts,
                    "fault_shard": FAULT_SHARD,
                    "fault_after": FAULT_AFTER,
                },
            },
            "duration": DURATION,
            "peak_burn_fast": peak_burn,
        },
        seed=SEED,
    )

"""SLO burn-rate bench: fast-burn alerting under an injected shard fault.

Not a paper figure — the paper reports operation rates under load
(Figs. 4-6); this bench validates the *operational* layer on top: when
one shard of a 2-shard cluster starts failing every query, the
multi-window multi-burn-rate alerting must fire the fast (critical) page
on that shard, and must stay quiet both on the healthy shard and on an
identical fault-free baseline run.

Two real in-process LRC shards serve client threads, each querying
through its own combined client (§4: one client per thread).  The
fault is server-side: the faulted run re-registers one shard's
``lrc_get_mappings`` with a handler that consults a
:class:`~repro.testing.faults.FailureSchedule` — the shard serves its
first queries, then raises :class:`~repro.testing.faults.FaultInjected`
on every one.  Each shard's alerts are read from its own ``admin_slo``.

The SLI recorder files all traffic since its previous tick at the time of
the ``admin_slo`` call that ticks it, so a run of seconds lands inside
every window: this checks the burn arithmetic and the alert rules over
the servers' real counters, not the windows' timing.

Artifact (``BENCH_slo_overload.json``): each run's query counts and each
shard's alerts at its end.
"""

from __future__ import annotations

import random
import threading

from benchmarks.common import record_series, scaled, write_bench_artifact
from repro.cluster import CombinedClient, ShardMap
from repro.core.client import connect
from repro.core.config import ServerConfig, ServerRole
from repro.core.server import OP_CLASSES, RLSServer
from repro.net.errors import RemoteError
from repro.testing.faults import FailureSchedule

SHARDS = ("slo-s0", "slo-s1")
#: The shard whose queries start failing partway through the faulted run.
FAULT_SHARD = SHARDS[0]
CLIENTS = 4
NAMES = 200
#: Queries per run, spread evenly over the client threads.
QUERIES = scaled(400_000, minimum=2_000)
#: Share of its queries the faulted shard serves before it fails the rest.
FAULT_AFTER = 0.4
SEED = 7


def fail_queries(server: RLSServer, schedule: FailureSchedule) -> None:
    """Serve ``lrc_get_mappings`` through ``schedule``: each call takes one
    slot, and a scheduled failure raises ``FaultInjected`` instead of
    answering."""
    lrc = server.lrc

    def handler(ctx, args):
        schedule.check("lrc_get_mappings")
        return lrc.get_mappings(*args)

    server.rpc.register(
        "lrc_get_mappings", handler, OP_CLASSES["lrc_get_mappings"]
    )


def query_load(smap: ShardMap, lfns: list[str]) -> tuple[int, int]:
    """(served, failed): ``CLIENTS`` threads each run their share of
    ``QUERIES`` random present-name queries."""
    counts = [[0, 0] for _ in range(CLIENTS)]
    errors: list[Exception] = []

    def client(slot: int) -> None:
        rng = random.Random(SEED + slot)
        try:
            with CombinedClient(smap, rng=rng) as cc:
                for _ in range(QUERIES // CLIENTS):
                    try:
                        cc.get_mappings(rng.choice(lfns))
                        counts[slot][0] += 1
                    except RemoteError:  # the faulted shard's answer
                        counts[slot][1] += 1
        except Exception as exc:  # surfaced by the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(slot,), name=f"slo-client-{slot}")
        for slot in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(t.is_alive() for t in threads), "a client thread hung"
    assert errors == [], errors
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def run(faulted: bool) -> dict:
    """One run on a fresh 2-shard cluster: query counts and each shard's
    ``admin_slo`` alerts at its end."""
    smap = ShardMap(shards=SHARDS)
    servers = [
        RLSServer(
            ServerConfig(
                name=name,
                role=ServerRole.LRC,
                cluster=smap,
                flush_on_commit=False,
                sync_latency=0.0,
            )
        ).start()
        for name in SHARDS
    ]
    try:
        pairs = [(f"slo-lfn{i:04d}", f"pfn://slo/{i}") for i in range(NAMES)]
        with CombinedClient(smap) as loader:
            assert loader.bulk_create(pairs) == []
        lfns = [lfn for lfn, _ in pairs]
        if faulted:
            ring = smap.ring()
            owned = sum(ring.owner(lfn) == FAULT_SHARD for lfn in lfns)
            healthy = int(FAULT_AFTER * QUERIES * owned / NAMES)
            fail_queries(
                servers[SHARDS.index(FAULT_SHARD)],
                FailureSchedule([False] * healthy, default=True),
            )
        served, failed = query_load(smap, lfns)
        alerts = {}
        for name in SHARDS:
            with connect(name) as client:
                alerts[name] = client.slo()["alerts"]
    finally:
        for server in servers:
            server.stop()
    return {"queries_served": served, "queries_failed": failed, "alerts": alerts}


def run_pair() -> tuple[dict, dict]:
    """(baseline, faulted): the same cluster and load, the fault aside."""
    return run(faulted=False), run(faulted=True)


def bench_slo_overload(benchmark):
    # pytest-benchmark timing sample: the paired run itself.
    baseline, faulted = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    # --- baseline: no faults -> no alerts anywhere ---
    assert baseline["queries_failed"] == 0
    assert all(a == [] for a in baseline["alerts"].values()), baseline["alerts"]

    # --- faulted: the fast (critical) page fires on the failing shard ---
    assert faulted["queries_failed"] > 0
    fast_alerts = [
        a for a in faulted["alerts"][FAULT_SHARD]
        if a["window"] == "fast" and a["kind"] == "availability"
    ]
    assert fast_alerts, f"no fast-burn alert: {faulted['alerts']}"
    assert all(a["severity"] == "critical" for a in fast_alerts)
    assert all(a["shard"] == FAULT_SHARD for a in faulted["alerts"][FAULT_SHARD])
    # ...and only there: the healthy shard pages nobody.
    for name in SHARDS:
        if name != FAULT_SHARD:
            assert faulted["alerts"][name] == [], faulted["alerts"]

    peak_burn = max(a["burn_short"] for a in fast_alerts)
    record_series(
        "SLO burn under a shard outage — fast window burn rate "
        f"({len(SHARDS)} real shards, {CLIENTS} client threads, "
        f"{FAULT_SHARD} fails all queries after {FAULT_AFTER:.0%} of its load)",
        ["run", "served", "failed", "alerts", "peak burn"],
        [
            ["baseline", baseline["queries_served"], 0, 0, "0.00x"],
            [
                "faulted",
                faulted["queries_served"],
                faulted["queries_failed"],
                sum(len(a) for a in faulted["alerts"].values()),
                f"{peak_burn:.0f}x",
            ],
        ],
        notes=[
            "alert rule: burn >= 14.4 over 5m AND 1h windows pages "
            "critical; >= 1.0 over 6h AND 3d warns",
            "peak burn: the fast alert's 5m burn at the end of the run, "
            "read from the shard's admin_slo",
        ],
    )

    write_bench_artifact(
        "slo_overload",
        series={},
        meta={
            "runs": {
                "baseline": baseline,
                "faulted": dict(
                    faulted, fault_shard=FAULT_SHARD, fault_after=FAULT_AFTER
                ),
            },
            "shards": list(SHARDS),
            "clients": CLIENTS,
            "queries": QUERIES,
            "peak_burn_fast": peak_burn,
        },
    )

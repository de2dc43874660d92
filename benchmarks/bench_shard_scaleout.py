"""Shard scale-out bench: aggregate throughput vs shards and mirrors.

Not a paper figure — the paper's §6 measures a *single* LRC saturating
(Figure 6); this bench quantifies the escape hatch: partitioning the
namespace across N shard masters on a consistent-hash ring and adding
read-only mirrors per shard, all reached through one
:class:`~repro.cluster.combined.CombinedClient`.

Per-server capacity is modelled with ``ServerConfig.service_latency``
(requests serialize through one stage per server, like the saturated
server of Figure 6), so aggregate throughput genuinely scales with the
number of endpoints rather than measuring the host's Python overhead.

Assertions: aggregate query throughput at 2 shards reaches >= 1.6x the
1-shard rate; reads keep succeeding (served by the master) when every
mirror of a shard is down; writes sent directly to a mirror are rejected
with :class:`~repro.core.errors.ReadOnlyCatalogError`.
"""

from __future__ import annotations

import random

from benchmarks.common import record_series, scaled, write_bench_artifact
from repro.cluster.combined import CombinedClient
from repro.cluster.ring import ShardMap
from repro.core.client import connect
from repro.core.config import ServerConfig, ServerRole
from repro.core.errors import ReadOnlyCatalogError
from repro.core.server import RLSServer
from repro.workload.driver import LoadDriver

PAPER_ENTRIES = 100_000
SHARD_COUNTS = [1, 2, 4]
MIRROR_COUNTS = [0, 1, 2]
#: Modelled per-request service time: each endpoint saturates at ~1/this
#: ops/s, so endpoint count — not host Python throughput — sets the ceiling.
SERVICE_LATENCY = 0.005
CLIENTS = 2
THREADS = 8
QUERY_OPS = 1200
ADD_OPS = 600
SEED = 7

#: Aggregate query throughput must reach this multiple going 1 -> 2 shards.
MIN_SPEEDUP_2_SHARDS = 1.6


def make_cluster(
    num_shards: int, mirrors_per_shard: int, entries: int
) -> tuple[dict[str, RLSServer], ShardMap, list[str]]:
    """Start masters + mirrors, preload ``entries`` mappings, sync mirrors."""
    shards = tuple(f"sc{num_shards}x{mirrors_per_shard}-s{i}" for i in range(num_shards))
    mirrors = {
        shard: tuple(f"{shard}-m{j}" for j in range(mirrors_per_shard))
        for shard in shards
    }
    smap = ShardMap(shards=shards, mirrors=mirrors)
    servers: dict[str, RLSServer] = {}
    for shard in shards:
        for mirror in smap.mirrors_of(shard):
            servers[mirror] = RLSServer(
                ServerConfig(
                    name=mirror,
                    role=ServerRole.LRC,
                    mirror_of=shard,
                    cluster=smap,
                    sync_latency=0.0,
                    service_latency=SERVICE_LATENCY,
                )
            ).start()
        servers[shard] = RLSServer(
            ServerConfig(
                name=shard,
                role=ServerRole.LRC,
                mirrors=smap.mirrors_of(shard),
                cluster=smap,
                sync_latency=0.0,
                service_latency=SERVICE_LATENCY,
            )
        ).start()
    # Preload through the back door (direct bulk_load per owning shard):
    # the modelled service time would make RPC preloading dominate runtime.
    ring = smap.ring()
    lfns = [f"scale-{i:06d}" for i in range(entries)]
    for shard, owned in ring.partition(lfns).items():
        server = servers[shard]
        assert server.lrc is not None
        server.lrc.bulk_load((lfn, f"pfn://{lfn}") for lfn in owned)
        if smap.mirrors_of(shard):
            connect(shard).mirror_sync()
    return servers, smap, lfns


def stop_cluster(servers: dict[str, RLSServer]) -> None:
    for server in servers.values():
        server.stop()


def combined_rate(
    smap: ShardMap, operation, total_operations: int, trials: int = 1
) -> float:
    """Mean ops/s of ``operation`` through per-thread combined clients."""
    rng = random.Random(SEED)
    driver = LoadDriver(
        server_name=smap.shards[0],  # unused: connect_fn ignores the name
        clients=CLIENTS,
        threads_per_client=THREADS,
        total_operations=total_operations,
        connect_fn=lambda name, cred: CombinedClient(
            smap, rng=random.Random(rng.random())
        ),
    )
    rates = []
    for _ in range(trials):
        result = driver.run(operation)
        assert result.errors == 0, f"{result.errors} operations failed"
        rates.append(result.rate)
    return sum(rates) / len(rates)


def bench_shard_scaleout(benchmark):
    entries = scaled(PAPER_ENTRIES, minimum=2_000)
    rng = random.Random(SEED)

    # --- aggregate rate vs shard count (no mirrors: pure sharding) ---
    query_rates: dict[int, float] = {}
    add_rates: dict[int, float] = {}
    for num_shards in SHARD_COUNTS:
        servers, smap, lfns = make_cluster(num_shards, 0, entries)
        try:
            probe = [lfns[rng.randrange(len(lfns))] for _ in range(2000)]
            query_rates[num_shards] = combined_rate(
                smap, LoadDriver.query_op(probe), QUERY_OPS, trials=2
            )
            add_lfns = [f"sc-add{num_shards}-{i}" for i in range(ADD_OPS)]
            add_rates[num_shards] = combined_rate(
                smap,
                LoadDriver.add_op(add_lfns, lambda lfn: f"pfn://{lfn}"),
                ADD_OPS,
            )
        finally:
            stop_cluster(servers)

    # --- aggregate query rate vs mirrors per shard (2 shards fixed) ---
    mirror_rates: dict[int, float] = {}
    for num_mirrors in MIRROR_COUNTS:
        servers, smap, lfns = make_cluster(2, num_mirrors, entries)
        try:
            probe = [lfns[rng.randrange(len(lfns))] for _ in range(2000)]
            mirror_rates[num_mirrors] = combined_rate(
                smap, LoadDriver.query_op(probe), QUERY_OPS, trials=2
            )
        finally:
            stop_cluster(servers)

    # --- failover: kill every mirror of every shard, reads must continue ---
    servers, smap, lfns = make_cluster(2, 1, entries)
    try:
        for shard in smap.shards:
            for mirror in smap.mirrors_of(shard):
                servers[mirror].stop()
        cc = CombinedClient(smap, rng=random.Random(SEED))
        failover_reads = 0
        for lfn in lfns[:200]:
            assert cc.get_mappings(lfn) == [f"pfn://{lfn}"]
            failover_reads += 1
        health = cc.health()
        failovers = sum(
            h["failures"]
            for name, h in health.items()
            if name not in smap.shards
        )
        assert failovers > 0, "expected recorded mirror failovers"
        for name in smap.shards:
            assert health[name]["healthy"], f"master {name} marked unhealthy"
        cc.close()

        # Writes sent directly to a mirror are rejected with a typed error
        # (mirror of shard 0 is stopped; build a fresh one to probe).
        mirror_name = smap.mirrors_of(smap.shards[0])[0]
        servers[mirror_name] = RLSServer(
            ServerConfig(
                name=mirror_name,
                role=ServerRole.LRC,
                mirror_of=smap.shards[0],
                cluster=smap,
            )
        ).start()
        try:
            connect(mirror_name).create("sc-ro-probe", "pfn://x")
            raise AssertionError("mirror accepted a write")
        except ReadOnlyCatalogError:
            pass
    finally:
        stop_cluster(servers)

    # pytest-benchmark timing sample: one small combined-client query run.
    servers, smap, lfns = make_cluster(2, 0, 2_000)
    try:
        benchmark.pedantic(
            lambda: combined_rate(smap, LoadDriver.query_op(lfns[:500]), 300),
            rounds=2,
            iterations=1,
        )
    finally:
        stop_cluster(servers)

    speedup2 = query_rates[2] / query_rates[1]
    rows = [
        [
            n,
            f"{query_rates[n]:.0f}",
            f"{query_rates[n] / query_rates[1]:.2f}x",
            f"{add_rates[n]:.0f}",
            f"{add_rates[n] / add_rates[1]:.2f}x",
        ]
        for n in SHARD_COUNTS
    ]
    record_series(
        "Shard scale-out — aggregate ops/s through the combined client "
        f"({CLIENTS}x{THREADS} threads, {SERVICE_LATENCY * 1e3:.0f}ms "
        "modelled service time)",
        ["shards", "query/s", "speedup", "add/s", "speedup"],
        rows,
        notes=[
            f"{entries} entries ring-partitioned; mirrors at 2 shards: "
            + ", ".join(
                f"{m} mirrors -> {mirror_rates[m]:.0f}/s"
                for m in MIRROR_COUNTS
            ),
            f"failover: {failover_reads} reads served by masters with every "
            "mirror down, 0 errors",
        ],
    )

    write_bench_artifact(
        "shard_scaleout",
        series={
            "cluster.query_rate_vs_shards": [
                [n, query_rates[n]] for n in SHARD_COUNTS
            ],
            "cluster.add_rate_vs_shards": [
                [n, add_rates[n]] for n in SHARD_COUNTS
            ],
            "cluster.query_rate_vs_mirrors": [
                [m, mirror_rates[m]] for m in MIRROR_COUNTS
            ],
            "cluster.query_speedup_vs_shards": [
                [n, query_rates[n] / query_rates[1]] for n in SHARD_COUNTS
            ],
        },
        meta={
            "entries": entries,
            "service_latency": SERVICE_LATENCY,
            "clients": CLIENTS,
            "threads_per_client": THREADS,
            "x_axis": "shards (mirrors series: mirrors per shard at 2 shards)",
            "failover_reads": failover_reads,
        },
    )

    assert speedup2 >= MIN_SPEEDUP_2_SHARDS, (
        f"2-shard query speedup {speedup2:.2f}x below "
        f"{MIN_SPEEDUP_2_SHARDS}x"
    )
    # Sharding must also scale writes, and mirrors must add read capacity.
    assert add_rates[2] > add_rates[1]
    assert mirror_rates[2] > mirror_rates[0]

"""Heavy-hitter attribution bench: Zipf-skewed multi-principal workload.

Not a paper figure — the paper measures aggregate rates; this bench
validates the *accounting* layer on top (the prerequisite for per-class
admission control, ROADMAP item 4): when several principals hit one
server with Zipf-skewed traffic, the per-principal accountant and both
space-saving sketches must rank the injected heavy hitter — and its LFN
namespace — first, within the sketch's documented N/capacity error.

The workload runs against a real in-process server: each principal opens
its own connection (the ``principal`` Hello attribute carries the
declared identity), issues its share of adds into its own
``/<principal>/data/`` namespace, and the final ``admin_usage`` payload
is checked end to end — negotiation, request context, accountant,
sketches, RPC read-out.

Artifact (``BENCH_usage_attribution.json``): per-principal request
totals, both sketch rankings, and the add rate under accounting.
"""

from __future__ import annotations

import time

from benchmarks.common import record_series, scaled, write_bench_artifact
from repro.core.client import connect
from repro.core.config import ServerConfig
from repro.core.server import RLSServer

#: Principals, heaviest first; the workload is Zipf over this list.
PRINCIPALS = tuple(
    f"{name}" for name in (
        "cms-prod", "atlas-merge", "lhcb-user", "alice-scan",
        "dune-cal", "ligo-rerun", "ops-probe", "test-harness",
    )
)
HOT_PRINCIPAL = PRINCIPALS[0]
HOT_PREFIX = f"/{HOT_PRINCIPAL}/data"
#: Zipf exponent: weight of principal at rank r is 1/(r+1)**ZIPF_S.
ZIPF_S = 1.2


def principal_shares(total_ops: int) -> dict[str, int]:
    """Zipf-proportional op counts (largest remainder, deterministic)."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(PRINCIPALS))]
    scale = total_ops / sum(weights)
    quotas = [w * scale for w in weights]
    counts = [int(q) for q in quotas]
    while sum(counts) < total_ops:
        i = max(range(len(counts)), key=lambda j: quotas[j] - counts[j])
        counts[i] += 1
    return dict(zip(PRINCIPALS, counts))


def run_workload():
    """(admin_usage payload, per-principal op counts, adds/s)."""
    total_ops = scaled(20_000, minimum=800)
    shares = principal_shares(total_ops)
    server = RLSServer(
        ServerConfig(name="usage-bench", flush_on_commit=False)
    ).start()
    try:
        start = time.perf_counter()
        for principal, count in shares.items():
            client = connect("usage-bench", principal=principal)
            try:
                for i in range(count):
                    client.create(
                        f"/{principal}/data/f{i:06d}",
                        f"pfn://{principal}.example/f{i:06d}",
                    )
            finally:
                client.close()
        elapsed = time.perf_counter() - start
        reader = connect("usage-bench")
        try:
            payload = reader.usage()
        finally:
            reader.close()
    finally:
        server.stop()
    return payload, shares, total_ops / elapsed


def bench_usage_attribution(benchmark):
    payload, shares, rate = run_workload()

    # --- the injected heavy hitter ranks first in both sketches ---
    top_principals = payload["top_principals"]
    assert top_principals, "principal sketch is empty"
    assert top_principals[0]["principal"] == HOT_PRINCIPAL, top_principals[:3]
    top_prefixes = payload["top_prefixes"]
    assert top_prefixes, "prefix sketch is empty"
    assert top_prefixes[0]["prefix"] == HOT_PREFIX, top_prefixes[:3]

    # --- exact per-principal totals match what each client issued ---
    # (every add is one accounted request; the reader's admin traffic
    # lands under its own principal, not these).
    for principal, count in shares.items():
        classes = payload["principals"].get(principal, {})
        accounted = sum(
            row.get("requests", 0.0) for row in classes.values()
        )
        assert accounted == count, (principal, accounted, count)

    # --- sketch error bound: count overestimates by at most N/capacity ---
    sketch = payload["sketch"]
    bound = sketch["offered"] / sketch["capacity"]
    assert all(row["error"] <= bound for row in top_principals)

    # pytest-benchmark timing sample: one full skewed workload.
    benchmark.pedantic(run_workload, rounds=1, iterations=1)

    record_series(
        "Per-principal attribution under Zipf skew "
        f"({len(PRINCIPALS)} principals, s={ZIPF_S})",
        ["principal", "ops issued", "sketch count", "sketch error"],
        [
            [
                row["principal"],
                shares.get(row["principal"], 0),
                row["count"],
                row["error"],
            ]
            for row in top_principals[:5]
        ],
        notes=[
            f"hot prefix {HOT_PREFIX} ranked first of "
            f"{len(top_prefixes)} tracked prefixes",
            f"{rate:.0f} adds/s with accounting enabled",
        ],
    )
    write_bench_artifact(
        "usage_attribution",
        series={
            "usage.requests_by_rank": [
                [float(rank), float(row["count"])]
                for rank, row in enumerate(top_principals)
            ],
            "usage.prefix_heat_by_rank": [
                [float(rank), float(row["count"])]
                for rank, row in enumerate(top_prefixes)
            ],
            "usage.add_rate": [[0.0, rate]],
        },
        meta={
            "principals": dict(shares),
            "hot_principal": HOT_PRINCIPAL,
            "hot_prefix": HOT_PREFIX,
            "zipf_s": ZIPF_S,
            "top_principals": top_principals[:5],
            "top_prefixes": top_prefixes[:5],
            "sketch": payload["sketch"],
            "x_axis": "sketch rank",
        },
    )

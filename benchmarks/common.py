"""Shared helpers for the benchmark suite.

``SCALE`` shrinks the paper's database sizes so the full suite runs in
minutes; set ``RLS_BENCH_SCALE=1.0`` for paper-scale runs.  Rate
measurements reuse the §4 methodology via
:class:`repro.workload.driver.LoadDriver`.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time
from typing import Any, Sequence

from repro.core.client import RLSClient, connect
from repro.db.odbc import Connection
from repro.net.transport import LocalTransport
from repro.obs.metrics import MetricsSnapshot
from repro.workload.driver import LoadDriver

#: Fraction of the paper's database sizes to use (1.0 = paper scale).
SCALE = float(os.environ.get("RLS_BENCH_SCALE", "0.02"))

#: Where ``BENCH_<name>.json`` trajectory artifacts land (CI uploads it).
ARTIFACT_DIR_ENV = "RLS_BENCH_ARTIFACT_DIR"

#: Collected comparison tables: (title, headers, rows, notes).
REPORT: list[tuple[str, list[str], list[list[object]], list[str]]] = []


def record_series(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
    metrics: MetricsSnapshot | None = None,
) -> None:
    """Record one paper-vs-measured table for the terminal summary.

    ``metrics`` (usually a snapshot *delta* covering the measured run)
    appends an internal-breakdown section to the table's notes: populated
    latency histograms with p50/p95/p99 and the busiest counters.
    """
    all_notes = list(notes)
    if metrics is not None:
        all_notes.extend(metrics_notes(metrics))
    REPORT.append((title, list(headers), [list(r) for r in rows], all_notes))


def server_metrics_snapshot(server_name: str) -> MetricsSnapshot:
    """Snapshot the internal metrics registry of an in-process server."""
    return LocalTransport.lookup(server_name).server.metrics.snapshot()


def metrics_notes(snapshot: MetricsSnapshot, max_lines: int = 12) -> list[str]:
    """Render a snapshot's interesting contents as report-note lines."""
    lines: list[str] = []
    populated = [
        (key, hist)
        for key, hist in sorted(snapshot.histograms.items())
        if hist.count
    ]
    for key, hist in populated[:max_lines]:
        lines.append(
            f"[internal] {key}: n={hist.count} "
            f"p50={hist.percentile(50) * 1e3:.2f}ms "
            f"p95={hist.percentile(95) * 1e3:.2f}ms "
            f"p99={hist.percentile(99) * 1e3:.2f}ms"
        )
    busiest = sorted(
        ((k, v) for k, v in snapshot.counters.items() if v),
        key=lambda kv: -kv[1],
    )
    if busiest:
        shown = ", ".join(f"{k}={v}" for k, v in busiest[:6])
        lines.append(f"[internal] counters: {shown}")
    return lines


def scaled(paper_size: int, minimum: int = 500) -> int:
    """Scale a paper database size down by ``SCALE``."""
    return max(minimum, int(paper_size * SCALE))


# ---------------------------------------------------------------------------
# Trajectory artifacts: BENCH_<name>.json
# ---------------------------------------------------------------------------


def artifact_dir() -> pathlib.Path:
    """Artifact output directory (``RLS_BENCH_ARTIFACT_DIR``, default
    ``bench_artifacts/`` under the working directory)."""
    return pathlib.Path(os.environ.get(ARTIFACT_DIR_ENV, "bench_artifacts"))


def snapshot_p95s(snapshot: MetricsSnapshot) -> dict[str, float]:
    """p95 (seconds) of every populated histogram in a snapshot/delta."""
    return {
        key: hist.percentile(95)
        for key, hist in sorted(snapshot.histograms.items())
        if hist.count
    }


#: Run records kept per artifact; older runs roll off the front.
MAX_ARTIFACT_RUNS = 100

_git_sha_cache: str | None = None


def git_sha() -> str:
    """Short commit sha for run provenance (``"unknown"`` outside git)."""
    global _git_sha_cache
    if _git_sha_cache is None:
        try:
            _git_sha_cache = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except Exception:
            _git_sha_cache = "unknown"
    return _git_sha_cache


def write_bench_artifact(
    name: str,
    series: dict[str, Any],
    meta: dict[str, Any] | None = None,
    seed: int | None = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` (schema in docs/OBSERVABILITY.md).

    ``series`` maps series name to ``[[x, y], ...]`` point lists.

    The top-level keys always describe the **latest** run (so existing
    readers keep working), and a ``runs`` list accumulates one record per
    invocation — seed, git sha, timestamp, scale, and the run's series —
    so ``bench_artifacts/`` holds a performance trajectory rather than
    only the last data point.
    """
    directory = artifact_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    clean_series = {
        key: [[float(x), float(y)] for x, y in points]
        for key, points in series.items()
    }
    runs: list[dict[str, Any]] = []
    if path.exists():
        try:
            runs = json.loads(path.read_text()).get("runs", [])
        except (json.JSONDecodeError, OSError):
            runs = []  # corrupt artifact: start the trajectory over
    run_record: dict[str, Any] = {
        "created": time.time(),
        "scale": SCALE,
        "git_sha": git_sha(),
        "seed": seed,
        "series": clean_series,
        "meta": meta or {},
    }
    runs.append(run_record)
    runs = runs[-MAX_ARTIFACT_RUNS:]
    payload: dict[str, Any] = {
        "name": name,
        "created": run_record["created"],
        "scale": SCALE,
        "series": clean_series,
        "meta": meta or {},
        "runs": runs,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def measure_rate(
    server_name: str,
    operation,
    clients: int = 1,
    threads_per_client: int = 10,
    total_operations: int = 2000,
    trials: int = 1,
) -> float:
    """§4-style measurement; returns the mean ops/second over ``trials``.

    The paper performs "several trials (typically 5)" and reports the mean
    rate; read-only workloads here use 2-3 trials to damp scheduler noise
    (mutating workloads keep 1 so database size stays controlled).
    """
    driver = LoadDriver(
        server_name=server_name,
        clients=clients,
        threads_per_client=threads_per_client,
        total_operations=total_operations,
    )
    rates = []
    for _ in range(trials):
        result = driver.run(operation)
        if result.errors:
            raise AssertionError(
                f"{result.errors}/{result.operations} operations failed"
            )
        rates.append(result.rate)
    return sum(rates) / len(rates)


# ---------------------------------------------------------------------------
# Native-SQL operation bodies for the Figure 7 baseline: the same SQL the
# LRC issues, submitted straight to the engine through the ODBC layer.
# "The same" up to the LRC's checks: a create is native_add's four
# statements after one existence SELECT on t_lfn, a delete is
# native_delete's five plus one t_attribute read when a name is pruned
# (tests/core/test_lrc_statement_budget.py holds the LRC to that).
# ---------------------------------------------------------------------------


def native_query(conn: Connection, lfn: str) -> list[str]:
    rows = conn.execute(
        "SELECT p.name FROM t_lfn l "
        "JOIN t_map m ON l.id = m.lfn_id "
        "JOIN t_pfn p ON m.pfn_id = p.id "
        "WHERE l.name = ?",
        [lfn],
    ).rows
    return [r[0] for r in rows]


def native_add(conn: Connection, lfn: str, pfn: str) -> None:
    lfn_result = conn.execute(
        "INSERT INTO t_lfn (name, ref) VALUES (?, ?)", [lfn, 1]
    )
    existing = conn.execute(
        "SELECT id, ref FROM t_pfn WHERE name = ?", [pfn]
    ).rows
    if existing:
        pfn_id, ref = existing[0]
        conn.execute(
            "UPDATE t_pfn SET ref = ? WHERE id = ?", [ref + 1, pfn_id]
        )
    else:
        pfn_id = conn.execute(
            "INSERT INTO t_pfn (name, ref) VALUES (?, ?)", [pfn, 1]
        ).lastrowid
    conn.execute(
        "INSERT INTO t_map (lfn_id, pfn_id) VALUES (?, ?)",
        [lfn_result.lastrowid, pfn_id],
    )


def native_delete(conn: Connection, lfn: str, pfn: str) -> None:
    lfn_row = conn.execute("SELECT id FROM t_lfn WHERE name = ?", [lfn]).rows
    pfn_row = conn.execute(
        "SELECT id, ref FROM t_pfn WHERE name = ?", [pfn]
    ).rows
    if not lfn_row or not pfn_row:
        raise LookupError(f"missing mapping {lfn} -> {pfn}")
    lfn_id = lfn_row[0][0]
    pfn_id, pfn_ref = pfn_row[0]
    conn.execute(
        "DELETE FROM t_map WHERE lfn_id = ? AND pfn_id = ?", [lfn_id, pfn_id]
    )
    conn.execute("DELETE FROM t_lfn WHERE id = ?", [lfn_id])
    if pfn_ref <= 1:
        conn.execute("DELETE FROM t_pfn WHERE id = ?", [pfn_id])
    else:
        conn.execute(
            "UPDATE t_pfn SET ref = ? WHERE id = ?", [pfn_ref - 1, pfn_id]
        )


def delete_all(server_name: str, pairs) -> None:
    """Remove the mappings a trial added, restoring pre-trial size (§4)."""
    client: RLSClient = connect(server_name)
    try:
        for chunk_start in range(0, len(pairs), 1000):
            client.bulk_delete(pairs[chunk_start : chunk_start + 1000])
    finally:
        client.close()

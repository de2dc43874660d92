#!/usr/bin/env python3
"""Compare two sets of rlsbench results: ``compare.py A B``.

``A`` is the parent (or the first of two runs of one commit), ``B`` the
change.  Each is a JSON file written by ``run.py --out``, or a directory
of such files — the ten or more alternating runs a claim needs.  For
every (workload, metric) pair that is gated it prints one row:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the spread of either side is wider than the bound, so
                neither "unchanged" nor "regressed" can be said — unless
                every value of B is better than every value of A

With several files per side the spread is taken over the runs.  With one
it is taken over the rounds inside the run that the value stands on: a
value is the median over the quiet fifth of the rounds
(``quantiles.quiet``), so over that fifth.  Exit status is 1 if any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

import _env
from quantiles import median, quiet_fifth, spread

#: The per-kind latencies are ``latency_p50_us`` split by kind of call and
#: are gated with its bound.  They cannot stand under ``end_to_end`` in
#: BENCHMARK.json themselves: the harness that reads it wants every
#: end-to-end metric on every workload, and none of these exists on all.
SPLIT_OF = {
    name: "latency_p50_us"
    for name in (
        "query_p50_us", "add_p50_us", "delete_p50_us",
        "full_update_p50_us", "bloom_update_p50_us",
    )
}


def gates() -> dict[str, dict[str, Any]]:
    """Every gated metric's ``better`` and ``bound``, all from BENCHMARK.json."""
    found = {m["name"]: m for m in _env.definition()["end_to_end"]}
    found.update({name: found[whole] for name, whole in SPLIT_OF.items()})
    return found


#: No increase allowed, and none at all, respectively.
MUST_NOT_RISE = ("error_rate",)
MUST_BE_ZERO = ("wrong_results",)


def load(path: str) -> list[dict[str, dict[str, Any]]]:
    """The ``workloads`` section of one result file, or of every file in
    a directory."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"compare: no result files in {path}")
    runs = []
    for file in files:
        with open(file) as fh:
            runs.append(json.load(fh)["workloads"])
    return runs


def samples(
    runs: Sequence[dict], workload: str, metric: str, better: str = "lower"
) -> tuple[float, list[float]] | None:
    """(median, the values its spread is taken over) for one side."""
    found = [run[workload][metric] for run in runs if metric in run.get(workload, {})]
    if not found:
        return None
    if len(found) == 1:
        return found[0]["value"], quiet_fifth(found[0].get("rounds", ()), better)
    values = [m["value"] for m in found]
    return median(values), values


def verdict(gate: dict[str, Any], a: tuple[float, list[float]], b: tuple[float, list[float]]) -> tuple[str, float, float]:
    """(status, B's change for the worse as a share of A, widest spread)."""
    lower = gate["better"] == "lower"
    (a_mid, a_values), (b_mid, b_values) = a, b
    worse = ((b_mid - a_mid) if lower else (a_mid - b_mid)) / abs(a_mid)
    widest = max(spread(a_values), spread(b_values))
    if widest > gate["bound"]:
        clear_win = a_values and b_values and (
            max(b_values) < min(a_values) if lower else min(b_values) > max(a_values)
        )
        return ("ok" if clear_win else "unresolved"), worse, widest
    return ("regressed" if worse > gate["bound"] else "ok"), worse, widest


def compare(a_runs: Sequence[dict], b_runs: Sequence[dict], gates: dict[str, dict]) -> list[tuple]:
    rows = []
    workloads = [w for w in a_runs[0] if any(w in run for run in b_runs)]
    for workload in workloads:
        for name, gate in gates.items():
            a = samples(a_runs, workload, name, gate["better"])
            b = samples(b_runs, workload, name, gate["better"])
            if a is None or b is None:
                continue
            rows.append((workload, name, *verdict(gate, a, b), a[0], b[0]))
        for name in MUST_NOT_RISE + MUST_BE_ZERO:
            a, b = samples(a_runs, workload, name), samples(b_runs, workload, name)
            if a is None or b is None:
                continue
            limit = 0.0 if name in MUST_BE_ZERO else a[0]
            status = "regressed" if b[0] > limit else "ok"
            rows.append((workload, name, status, b[0] - a[0], 0.0, a[0], b[0]))
    return rows


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="result file or directory of the parent")
    parser.add_argument("b", help="result file or directory of the change")
    args = parser.parse_args(argv)
    rows = compare(load(args.a), load(args.b), gates())
    print(f"{'workload':<22}{'metric':<24}{'status':<12}{'A':>14}{'B':>14}{'worse by':>10}{'spread':>9}")
    for workload, name, status, worse, widest, a_mid, b_mid in rows:
        print(
            f"{workload:<22}{name:<24}{status:<12}{a_mid:>14.4g}{b_mid:>14.4g}"
            f"{worse:>+10.1%}{widest:>9.1%}"
        )
    counts = {s: sum(row[2] == s for row in rows) for s in ("ok", "regressed", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['regressed']} regressed, {counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())

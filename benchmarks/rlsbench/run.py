#!/usr/bin/env python3
"""rlsbench: the repository's benchmark.

Two ways to run it, both from the root of a checkout:

``python3 benchmarks/rlsbench/run.py --seed N [--out FILE] [--smoke | --traced]``
    The whole benchmark: start the servers, run every workload in
    interleaved rounds, check every answer, print every end-to-end metric
    by name with its unit and sample count.  ``--traced`` runs the
    per-layer ladder and the program's counters instead and writes
    ``trace.json``; ``--smoke`` is one round at a tenth of the size.
    Exits non-zero when any answer was wrong or any call failed.

``... run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload for the harness that gates later changes: the last line
    of output is one JSON object ``{"correct", "attempted", "failed",
    "metrics"}`` holding every end-to-end metric (``--trace 0``) or every
    per-layer metric (``--trace 1``) of ``BENCHMARK.json``.

See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from typing import Sequence

import _env

_env.use_repo_sources()

import host  # noqa: E402
import inputs as gen  # noqa: E402
import ladder  # noqa: E402
import summary  # noqa: E402
from serve import ServerProcess  # noqa: E402
from summary import Metric  # noqa: E402
from workloads import BY_NAME, WORKLOADS, Segment, Workload  # noqa: E402

#: Rounds of the whole benchmark: in each, every workload runs one segment.
ROUNDS = 16
#: ``--smoke``: one round, a tenth of the calls, one set-up, every check on.
SMOKE_SCALE = 0.1
#: Every workload is set up this many times; ``setup_s`` is taken over them.
SETUP_REPEATS = 3

#: Calls per rung of the ladder, (scalar, bulk, soft-state repeats).
LADDER_CALLS = (2000, 6, 3)
HARNESS_LADDER_CALLS = (600, 4, 2)
SMOKE_LADDER_CALLS = (200, 3, 1)


class Run:
    """One workload against one freshly loaded child."""

    def __init__(
        self, cls: type[Workload], seed: int, stack: contextlib.ExitStack,
        scale: float, earlier_setups: Sequence[float],
    ) -> None:
        self.proc = stack.enter_context(ServerProcess(cls.topology, seed))
        self.setups = [*earlier_setups, self.proc.setup_s]
        self.workload = cls(seed)
        stack.callback(self.workload.close)
        self.workload.open(self.proc.ports)
        self.scale = scale
        self.segments: list[Segment] = []
        # A first segment that is not counted: connections, statement cache
        # and allocator arenas take some load to settle (without it the
        # first segment reads 5-10% slow).
        self.warm = self._timed(0)

    def _timed(self, index: int) -> Segment:
        cpu, stolen = self.proc.cpu_seconds(), host.steal_seconds()
        seg = self.workload.segment(index, self.scale)
        seg.server_cpu_s = self.proc.cpu_seconds() - cpu
        seg.host_steal_s = host.steal_seconds() - stolen
        return seg

    def measure(self) -> None:
        self.segments.append(self._timed(len(self.segments) + 1))
        # Memory is read after a fixed amount of work, the rounds of the
        # whole benchmark: a run that is given longer (or is faster) does
        # more segments, and the heap grows with every one of them.
        if len(self.segments) <= ROUNDS:
            self.rss_mb = self.proc.rss_mb()

    def finish(self, calib_us: Sequence[float]) -> dict[str, Metric]:
        """Post-run checks, then every metric the timed segments give."""
        final_wrong = self.workload.final_wrong() + self.warm.wrong + self.warm.failed
        metrics = summary.end_to_end(self.segments, self.setups, self.rss_mb)
        metrics.update(summary.client_side(self.segments, final_wrong, calib_us))
        return metrics


def measure(
    classes: Sequence[type[Workload]], seed: int, *, rounds: int | None = None,
    seconds: float = 0.0, scale: float = 1.0, setups: int = SETUP_REPEATS,
    counters: bool = False,
) -> dict[str, dict[str, Metric]]:
    """The one measurement loop.  Every workload gets its own freshly
    loaded servers; in each round every workload runs one segment, so slow
    machine drift lands on all of them alike.  It stops after ``rounds``
    rounds or, without that, once ``seconds`` have been measured.

    With ``counters`` the program's counters are read before and after
    and the per-op counts are added to each workload's metrics.
    """
    # Set-ups that are only timed, workload by workload, so that the
    # set-ups of one workload lie apart in time like its segments do.
    timed: dict[str, list[float]] = {cls.name: [] for cls in classes}
    for _ in range(setups - 1):
        for cls in classes:
            with ServerProcess(cls.topology, seed) as proc:
                timed[cls.name].append(proc.setup_s)
    with contextlib.ExitStack() as stack:
        runs = [Run(cls, seed, stack, scale, timed[cls.name]) for cls in classes]
        before = [run.workload.counters() for run in runs] if counters else []
        calib: list[float] = []  # one per round
        deadline = time.perf_counter() + seconds

        def more() -> bool:
            if rounds:
                return len(calib) < rounds
            return not calib or time.perf_counter() < deadline

        while more():
            calib.append(host.calibrate())
            for run in runs:
                run.measure()
        # Read before the post-run checks, which are calls of their own.
        after = [run.workload.counters() for run in runs] if counters else []
        report = {run.workload.name: run.finish(calib) for run in runs}
        for run, then, now in zip(runs, before, after):
            ops = sum(seg.calls for seg in run.segments)
            report[run.workload.name].update(summary.layer_counts(then, now, ops))
        return report


# ----------------------------------------------------------------------
# The per-layer side
# ----------------------------------------------------------------------


def time_ladder(
    seed: int, ops: set[str], calls: tuple[int, int, int], spans: ladder.Spans,
    untraced: dict[str, Metric] | None,
) -> tuple[dict[str, float], int]:
    """Run the rungs that ``ops`` need; returns the layer metrics and the
    number of wrong or failed results.  ``untraced`` is what ``lrc_query``
    measured without spans in this same run, for ``trace.overhead_ratio``.
    """
    n, n_bulk, n_soft = calls
    layers: dict[str, float] = {}
    bad = 0
    lrc_ops = ops & set(ladder.LRC_OPS)
    if lrc_ops:
        with ServerProcess("lrc", seed) as proc:
            rungs, wrong = ladder.lrc_rungs(
                seed, lrc_ops, n, n_bulk, spans, proc.ports["lrc"]
            )
        bad += wrong
        rung_us = ladder.medians_us(rungs)
        layers.update(ladder.resolve(rung_us))
        if untraced and "query" in rung_us["R6"]:
            layers["trace.overhead_ratio"] = ladder.overhead_ratio(
                rung_us, untraced["latency_p50_us"]["rounds"]
            )
    if "rli_query" in ops:
        with ServerProcess("rli_bloom", seed) as proc:
            rungs, wrong = ladder.rli_rungs(seed, n, spans, proc.ports["rli"])
        bad += wrong
        layers.update(ladder.resolve(ladder.medians_us(rungs)))
    if "cluster" in ops:
        items = ladder.cluster_items(gen.Inputs(seed), n, n_bulk)
        with ServerProcess("lrc", seed) as one, ServerProcess("cluster", seed) as two:
            rungs, failed = ladder.cluster_rungs(spans, one.ports["lrc"], two.ports, items)
        bad += failed
        layers.update(ladder.resolve(ladder.medians_us(rungs)))
    if "softstate" in ops:
        layers.update(ladder.softstate_layers(seed, n_soft, spans))
    return layers, bad


# ----------------------------------------------------------------------
# Harness mode: one workload, one JSON line
# ----------------------------------------------------------------------


def ladder_metrics(layers: dict[str, float], bad: int, calls: tuple[int, int, int]) -> dict[str, Metric]:
    """Ladder results as metrics, with the calls behind each number."""
    units = {m["name"]: m["unit"] for m in _env.definition()["per_layer"]}
    n, n_bulk, n_soft = calls

    def samples(name: str) -> int:
        return n_bulk if ".bulk_" in name else n_soft if name.endswith("_s") else n

    # Names the ladder can compute but BENCHMARK.json does not list (the
    # combined client's delete, say) are not reported.
    found: dict[str, Metric] = {
        name: {"value": value, "unit": units[name], "n": samples(name)}
        for name, value in sorted(layers.items()) if name in units
    }
    found["wrong_results"] = {"value": bad, "unit": "count", "n": n}
    return found


def harness_traced(cls: type[Workload], args: argparse.Namespace) -> dict[str, Metric]:
    """Counters and client-side numbers of a few untraced segments, then
    the rungs of this workload's own operations."""
    found = measure([cls], args.seed, rounds=4, setups=1, counters=True)[cls.name]
    spans = ladder.Spans()
    layers, bad = time_ladder(
        args.seed, set(cls.ladder_ops), HARNESS_LADDER_CALLS, spans,
        found if cls.name == "lrc_query" else None,
    )
    spans.write(args.trace_out, {"workload": cls.name, "seed": args.seed})
    rungs = ladder_metrics(layers, bad, HARNESS_LADDER_CALLS)
    rungs["wrong_results"]["value"] += found["wrong_results"]["value"]
    rungs["wrong_results"]["n"] = found["wrong_results"]["n"]
    found.update(rungs)
    return found


def harness(args: argparse.Namespace) -> int:
    cls = BY_NAME[args.workload]
    spec = _env.definition()
    if args.trace:
        found = harness_traced(cls, args)
        # Every per-layer metric is printed: 0 where this workload does
        # not exercise the layer.
        metrics = {
            m["name"]: {"value": found[m["name"]]["value"] if m["name"] in found else 0.0,
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        found = measure([cls], args.seed, seconds=args.seconds)[cls.name]
        metrics = {
            m["name"]: {"value": found[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    if args.out:  # with the per-segment values, for compare.py and noise studies
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "workloads": {cls.name: found}}, fh)
    attempted = found["error_rate"]["n"]
    print(json.dumps({
        "correct": found["wrong_results"]["value"] == 0,
        "attempted": attempted,
        "failed": round(found["error_rate"]["value"] * attempted),
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------


def run_traced(seed: int, smoke: bool, trace_out: str) -> dict[str, dict[str, Metric]]:
    """The counters of every workload, then the ladder for every op."""
    calls = SMOKE_LADDER_CALLS if smoke else LADDER_CALLS
    report = measure(
        WORKLOADS, seed, rounds=1 if smoke else 2, setups=1, counters=True,
        scale=SMOKE_SCALE if smoke else 1.0,
    )
    spans = ladder.Spans()
    ops = {op for cls in WORKLOADS for op in cls.ladder_ops}
    layers, bad = time_ladder(seed, ops, calls, spans, report["lrc_query"])
    spans.write(trace_out, {"seed": seed, "calls": list(calls)})
    report["ladder"] = ladder_metrics(layers, bad, calls)
    return report


def _format(name: str, metric: Metric) -> str:
    value = metric["value"]
    if ladder.unresolved(name, value):
        shown = f"unresolved ({value:.3f})"
    elif isinstance(value, int) or abs(value) >= 100:
        shown = f"{value:,.0f}" if isinstance(value, int) else f"{value:,.1f}"
    else:
        shown = f"{value:.4g}"
    return f"  {name:<42}{shown:>18} {metric['unit']:<9}n={metric['n']}"


def print_report(report: dict[str, dict[str, Metric]]) -> None:
    for section, metrics in report.items():
        print(f"\n{section}")
        for name, metric in metrics.items():
            print(_format(name, metric))


def whole(args: argparse.Namespace) -> int:
    if args.traced:
        report = run_traced(args.seed, args.smoke, args.trace_out)
    elif args.smoke:
        report = measure(WORKLOADS, args.seed, rounds=1, scale=SMOKE_SCALE, setups=1)
    else:
        report = measure(WORKLOADS, args.seed, rounds=ROUNDS)
    print_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"seed": args.seed, "mode": "traced" if args.traced else "timed",
                 "smoke": args.smoke, "workloads": report},
                fh, indent=1,
            )
    wrong = sum(m["wrong_results"]["value"] for m in report.values())
    failing = sum(m["error_rate"]["value"] > 0 for m in report.values() if "error_rate" in m)
    if wrong or failing:
        print(f"\nFAILED: {wrong} wrong results, {failing} workloads with failed calls")
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the report as JSON (for compare.py)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--trace-out", default=os.fspath(_env.BENCH_DIR / "out" / "trace.json"),
        help="where a traced run writes its spans (default: out/ beside this file)",
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so every child
    # is reaped by the context managers above.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with host.KeepAwake():
        return harness(args) if args.workload else whole(args)


if __name__ == "__main__":
    sys.exit(main())

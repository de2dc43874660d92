"""The seven workloads: what each sends, and how a segment is timed.

Load shape, the same for every workload: a closed loop (RLS callers wait
for their reply), one generator thread and one TCP connection in this
process, the servers in a child process, so on two cores the generator
and the server each have one.  A *segment* is a fixed number of calls
(the constants below, times a ``scale``); every call is timed on its
own, its answer is kept, and the answers are judged against the oracle
after the clock has stopped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import inputs as gen
from serve import HOST, SHARDS

from repro import RLSClient, connect_tcp_server
from repro.cluster.combined import CombinedClient
from repro.cluster.ring import ShardMap
from repro.obs.metrics import MetricsRegistry

#: Calls per segment (about half a second each on the commit that added
#: the benchmark; the two workloads of few, long calls take 1.2 s so that a
#: segment holds the server's own periodic work, see README "Workloads").
#: They are part of the benchmark's definition: the same on both sides of
#: any comparison.
QUERIES = 2_000
PIPELINED_QUERIES = 3_200
PIPELINE_DEPTH = 16
WRITE_PAIRS = 400
BULK_CYCLES = 5
RLI_QUERIES = 1_600
FULL_UPDATES = 1
BLOOM_UPDATES = 9
MIXED_OPS = 1_400


def scaled(n: int, scale: float, multiple: int = 1) -> int:
    """``n * scale`` rounded to a positive multiple of ``multiple``."""
    return max(1, round(n * scale / multiple)) * multiple


@dataclass
class Segment:
    """What one timed segment produced."""

    wall_s: float = 0.0
    calls: int = 0
    names: int = 0
    #: Seconds per call, in call order, and the same split by kind.
    latencies: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    failed: int = 0
    wrong: int = 0
    false_positives: int = 0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    host_steal_s: float = 0.0

    def judge(self, ops: Sequence[gen.Op], outcomes: Sequence[Any]) -> None:
        for op, outcome in zip(ops, outcomes):
            verdict = gen.judge(op, outcome)
            if verdict == gen.FAILED:
                self.failed += 1
            elif verdict == gen.WRONG:
                self.wrong += 1
            elif verdict == gen.FALSE_POSITIVE:
                self.false_positives += 1


def call(fn: Callable[..., Any], *args: Any) -> Any:
    """Run one client call; an exception becomes a recorded outcome."""
    try:
        return fn(*args)
    except Exception as exc:  # the benchmark counts failures, it does not stop
        return gen.Failure(type(exc).__name__, str(exc))


def run_serial(
    ops: Sequence[gen.Op], methods: dict[str, Callable[..., Any]],
    names_per_call: int = 1,
) -> Segment:
    """Issue ``ops`` one after another, timing each call."""
    seg = Segment()
    latencies = seg.latencies
    outcomes: list[Any] = []
    now = time.perf_counter
    cpu = time.process_time()
    start = now()
    for op in ops:
        fn = methods[op.kind]
        t0 = now()
        outcome = call(fn, *op.args)
        latencies.append(now() - t0)
        outcomes.append(outcome)
    seg.wall_s = now() - start
    seg.client_cpu_s = time.process_time() - cpu
    seg.calls = len(ops)
    seg.names = len(ops) * names_per_call
    for op, latency in zip(ops, latencies):
        seg.by_kind.setdefault(op.kind, []).append(latency)
    seg.judge(ops, outcomes)
    return seg


class Workload:
    """One workload bound to one seed and (after :meth:`open`) to the
    servers of one child process."""

    name = ""
    #: Which servers :mod:`serve` builds for it.
    topology = "lrc"
    #: What the traced run measures rung by rung for this workload.
    ladder_ops: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.inputs = gen.Inputs(seed)
        self.clients: dict[str, RLSClient] = {}
        #: The connections the load runs on, closed by :meth:`close`.
        self.loads: list[Any] = []

    def open(self, ports: dict[str, int]) -> None:
        """One admin connection per server (counters, final checks); the
        subclass adds the single connection the load runs on."""
        for name, port in ports.items():
            self.clients[name] = connect_tcp_server(HOST, port)

    def connect(self, port: int) -> RLSClient:
        """A connection the load runs on."""
        client = connect_tcp_server(HOST, port)
        self.loads.append(client)
        return client

    def close(self) -> None:
        for client in (*self.loads, *self.clients.values()):
            client.close()
        self.loads, self.clients = [], {}

    def segment(self, index: int, scale: float) -> Segment:
        raise NotImplementedError

    def final_wrong(self) -> int:
        """Post-run checks on the servers' state; returns wrong results."""
        return 0

    def counters(self) -> dict[str, float]:
        """Server counters and gauges summed over this workload's servers."""
        total: dict[str, float] = {}
        for client in self.clients.values():
            snap = client.metrics()
            for section in ("counters", "gauges"):
                for key, value in snap[section].items():
                    total[key] = total.get(key, 0.0) + value
        return total


class _CatalogWorkload(Workload):
    """Shared by the workloads that talk to one 20,000-name LRC."""

    def open(self, ports: dict[str, int]) -> None:
        super().open(ports)
        self.load = self.connect(ports["lrc"])
        self.model = gen.CatalogModel(self.inputs.pairs("main", gen.LRC_SIZE))
        self.methods = {
            "query": self.load.get_mappings,
            "add": self.load.create,
            "delete": self.load.delete,
            "bulk_add": self.load.bulk_create,
            "bulk_query": self.load.bulk_query,
            "bulk_delete": self.load.bulk_delete,
        }

    def final_wrong(self) -> int:
        admin = self.clients["lrc"]
        wrong = 0 if admin.lfn_count() == len(self.model) else 1
        return wrong + len(admin.verify())


class LrcQuery(_CatalogWorkload):
    name = "lrc_query"
    ladder_ops = ("query",)

    def segment(self, index: int, scale: float) -> Segment:
        ops = gen.plan_queries(
            self.inputs, self.model, "main", gen.LRC_SIZE, index,
            scaled(QUERIES, scale),
        )
        return run_serial(ops, self.methods)


class LrcQueryPipelined(_CatalogWorkload):
    name = "lrc_query_pipelined"
    ladder_ops = ("query",)

    def segment(self, index: int, scale: float) -> Segment:
        ops = gen.plan_queries(
            self.inputs, self.model, "main", gen.LRC_SIZE, index,
            scaled(PIPELINED_QUERIES, scale, PIPELINE_DEPTH),
        )
        rpc = self.load.rpc
        seg = Segment()
        outcomes: list[Any] = []
        now = time.perf_counter
        cpu = time.process_time()
        start = now()
        for at in range(0, len(ops), PIPELINE_DEPTH):
            window = ops[at : at + PIPELINE_DEPTH]
            t0 = now()
            pending = [rpc.call_async("lrc_get_mappings", *op.args) for op in window]
            drained = call(rpc.drain)
            # A latency here is one window: what a caller waits for its
            # sixteen replies.
            seg.latencies.append(now() - t0)
            for handle in pending:
                outcomes.append(
                    drained if isinstance(drained, gen.Failure) else call(handle.result)
                )
        seg.wall_s = now() - start
        seg.client_cpu_s = time.process_time() - cpu
        seg.calls = seg.names = len(ops)
        seg.judge(ops, outcomes)
        return seg


class LrcWrite(_CatalogWorkload):
    name = "lrc_write"
    ladder_ops = ("add", "delete")

    def segment(self, index: int, scale: float) -> Segment:
        ops = gen.plan_writes(
            self.inputs, self.model, index, scaled(WRITE_PAIRS, scale)
        )
        return run_serial(ops, self.methods)


class LrcBulk(_CatalogWorkload):
    name = "lrc_bulk"
    ladder_ops = ("bulk_add", "bulk_query", "bulk_delete")

    def segment(self, index: int, scale: float) -> Segment:
        ops = gen.plan_bulk(
            self.inputs, self.model, index, scaled(BULK_CYCLES, scale)
        )
        return run_serial(ops, self.methods, names_per_call=gen.BULK_SIZE)


class RliBloomQuery(Workload):
    name = "rli_bloom_query"
    topology = "rli_bloom"
    ladder_ops = ("rli_query",)

    def open(self, ports: dict[str, int]) -> None:
        super().open(ports)
        self.load = self.connect(ports["rli"])

    def segment(self, index: int, scale: float) -> Segment:
        ops = gen.plan_rli_queries(self.inputs, index, scaled(RLI_QUERIES, scale))
        return run_serial(ops, {"rli_query": self.load.rli_query})


class SoftstateUpdate(Workload):
    name = "softstate_update"
    topology = "softstate"
    ladder_ops = ("softstate",)

    def open(self, ports: dict[str, int]) -> None:
        super().open(ports)
        # The load is the two trigger calls; each goes to its own LRC, so
        # this workload holds one load connection per pair.
        self.lrc_a = self.connect(ports["lrcA"])
        self.lrc_b = self.connect(ports["lrcB"])

    def _bloom_update(self) -> float:
        self.lrc_b.rebuild_bloom()
        return self.lrc_b.trigger_full_update()

    def segment(self, index: int, scale: float) -> Segment:
        kinds = ["full_update"] * scaled(FULL_UPDATES, scale)
        kinds += ["bloom_update"] * scaled(BLOOM_UPDATES, scale)
        rng = self.inputs.rng(f"soft/{index}")
        size = gen.SOFTSTATE_LRC_SIZE
        seg = Segment()
        now = time.perf_counter
        cpu = time.process_time()
        start = now()
        for kind in kinds:
            pair, send = (
                ("A", self.lrc_a.trigger_full_update)
                if kind == "full_update" else ("B", self._bloom_update)
            )
            t0 = now()
            sent = call(send)
            latency = now() - t0
            seg.latencies.append(latency)
            seg.by_kind.setdefault(kind, []).append(latency)
            # After each update, ask the RLI for a sampled name.
            name = self.inputs.lfn(f"soft{pair}", rng.randrange(size))
            expect = [f"lrc{pair}"] if pair == "A" else gen.Includes(f"lrc{pair}")
            probe = gen.Op("rli_query", (name,), expect)
            seg.judge(
                [gen.Op(kind, (), None), probe],
                [sent if isinstance(sent, gen.Failure) else None,
                 call(self.clients[f"rli{pair}"].rli_query, name)],
            )
        seg.wall_s = now() - start
        seg.client_cpu_s = time.process_time() - cpu
        seg.calls = len(kinds)
        seg.names = len(kinds) * size
        return seg

    def final_wrong(self) -> int:
        wrong = 0
        for pair in "AB":
            admin = self.clients[f"lrc{pair}"]
            wrong += admin.lfn_count() != gen.SOFTSTATE_LRC_SIZE
            wrong += len(admin.verify())
        return wrong


class ClusterMixed(Workload):
    name = "cluster_mixed"
    topology = "cluster"
    ladder_ops = ("cluster",)

    def open(self, ports: dict[str, int]) -> None:
        super().open(ports)
        self.routing = MetricsRegistry()
        self.load = CombinedClient(
            ShardMap(shards=SHARDS),
            connect_fn=lambda shard: connect_tcp_server(HOST, ports[shard]),
            metrics=self.routing,
        )
        self.loads.append(self.load)
        self.model = gen.CatalogModel(self.inputs.pairs("main", gen.LRC_SIZE))
        self.methods = {
            "query": self.load.get_mappings,
            "add": self.load.create,
            "delete": self.load.delete,
            "bulk_query": self.load.bulk_query,
        }

    def segment(self, index: int, scale: float) -> Segment:
        ops = gen.plan_mixed(
            self.inputs, self.model, "main", gen.LRC_SIZE, index,
            scaled(MIXED_OPS, scale, gen.MIX_BLOCK),
        )
        return run_serial(ops, self.methods)

    def final_wrong(self) -> int:
        wrong = 0 if self.load.lfn_count() == len(self.model) else 1
        return wrong + sum(len(c.verify()) for c in self.clients.values())

    def counters(self) -> dict[str, float]:
        total = super().counters()
        total.update(self.routing.snapshot().to_dict()["counters"])
        return total


WORKLOADS: tuple[type[Workload], ...] = (
    LrcQuery,
    LrcQueryPipelined,
    LrcWrite,
    LrcBulk,
    RliBloomQuery,
    SoftstateUpdate,
    ClusterMixed,
)
BY_NAME = {w.name: w for w in WORKLOADS}

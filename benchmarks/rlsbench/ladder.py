"""The per-layer time ladder (the paper's Fig. 7 method, one rung per layer).

The same generated operations are timed at each boundary of the program,
from a hand-written sequence of table calls up to a combined client over
two TCP shards.  A span is recorded by this file around every call into
a layer's public function; nothing inside the program is instrumented.
A layer's self time is the difference between the medians of two
adjacent rungs:

====  =======================================================  ==============
rung  what is called                                           layer it adds
====  =======================================================  ==============
R0    ``Table.lookup_equal`` / ``insert`` / ``delete_rid``     ``db.table``
R1    ``Database.execute`` with the SQL the LRC issued         ``db.sql``
R2    ``Connection.execute`` with the same SQL                 ``db.odbc``
R3    ``LocalReplicaCatalog.<method>`` / ``RLI.query``         ``core.lrc``/``core.rli``
R4    ``RPCServer.handle(ctx, Request)``                       ``net.rpc``
C     encode + decode of the actual request and response       ``net.codec``
R6    ``RLSClient`` over TCP to a child-process server         ``net.transport`` (R6-R4-C)
R7    ``CombinedClient`` over two TCP shards in one child      ``cluster.combined``
====  =======================================================  ==============

The machine's speed wanders by tens of percent over minutes, and a
difference of two medians taken minutes apart measures the wandering.
So the rungs are *interleaved*: the operations are cut into chunks of
about a hundred calls and every rung runs chunk 1, then every rung runs
chunk 2, and so on — each rung samples the same stretches of time.

The SQL for R1/R2 is not copied from the program: it is *captured* from
the LRC method through a recording connection and replayed, so the rungs
stay true when a later change alters the statements an operation issues.
Writes are replayed on a second, identically loaded catalog, in the same
order, so the row ids inside the captured parameters are the ids the
replay allocates.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import inputs as gen
import serve
from quantiles import median
from workloads import PIPELINE_DEPTH, call

from repro import BloomFilter, BloomParameters, RLSServer, ServerConfig, ServerRole
from repro.cluster.combined import CombinedClient
from repro.cluster.ring import ShardMap
from repro.core import DirectSink, RLITarget, RPCSink, connect_tcp_server
from repro.net.messages import (
    PROTOCOL_VERSION,
    Batch,
    Hello,
    Request,
    Response,
    encode_message_into,
    message_from_bytes,
)
from repro.net.rpc import RPCClient
from repro.net.transport import connect_tcp
from repro.testing.faults import NullSink

Item = tuple[str, int, tuple]  # (op, op_id, arguments)
Timings = dict[str, list[float]]  # op -> seconds per call

SCALAR_OPS = ("query", "add", "delete")
BULK_OPS = ("bulk_query", "bulk_add", "bulk_delete")
LRC_OPS = SCALAR_OPS + BULK_OPS
WIRE_OPS = LRC_OPS + ("rli_query",)

#: Scalar calls per chunk: even (an add stays with its delete) and a
#: multiple of the pipeline depth (whole batches).
CHUNK = 96

#: RPC method and argument shape the client library sends for each op.
WIRE = {
    "query": ("lrc_get_mappings", lambda lfn: (lfn,)),
    "add": ("lrc_create_mapping", lambda lfn, pfn: (lfn, pfn)),
    "delete": ("lrc_delete_mapping", lambda lfn, pfn: (lfn, pfn)),
    "bulk_add": ("lrc_bulk_create", lambda pairs: ([list(p) for p in pairs],)),
    "bulk_query": ("lrc_bulk_query", lambda lfns: (list(lfns),)),
    "bulk_delete": ("lrc_bulk_delete", lambda pairs: ([list(p) for p in pairs],)),
    "rli_query": ("rli_query", lambda lfn: (lfn,)),
}


class Spans:
    """Spans kept in memory; written out once, when the run ends."""

    COLUMNS = ("id", "name", "start_s", "end_s", "parent", "op_id")

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def open(self, name: str) -> int:
        """Start an enclosing span (one chunk of a rung); returns its id."""
        self.rows.append((name, time.perf_counter(), None, None, None))
        return len(self.rows) - 1

    def close(self, span_id: int) -> None:
        name, start, _end, parent, op_id = self.rows[span_id]
        self.rows[span_id] = (name, start, time.perf_counter(), parent, op_id)

    def write(self, path: str, meta: dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "format": 1,
                    "meta": meta,
                    "columns": list(self.COLUMNS),
                    "spans": [[i, *row] for i, row in enumerate(self.rows)],
                },
                fh,
            )


@dataclass
class Rung:
    """One boundary of the program and the function that calls into it."""

    key: str
    layer: str
    fn: Callable[[str, Any], Any]
    #: The ops this rung can run (``None``: all of them).
    ops: frozenset[str] | None = None
    #: ``group > 1``: ``fn`` takes that many calls' arguments at once and
    #: the time is divided among them (the batch rung).
    group: int = 1
    timings: Timings = field(default_factory=dict)
    results: list[Any] = field(default_factory=list)

    def run(self, spans: Spans, items: Sequence[Item]) -> None:
        """Time ``fn`` on every item of one chunk, one span per call under
        one span for the chunk."""
        if self.ops is not None:
            items = [item for item in items if item[0] in self.ops]
        if not items:
            return
        name = f"{self.key}.{self.layer}"
        now = time.perf_counter
        timings, results, group = self.timings, self.results, self.group
        parent = spans.open(name)
        rows = spans.rows
        for at in range(0, len(items) - group + 1, group):
            op, op_id, args = items[at]
            if group > 1:
                args = [a for _, _, a in items[at : at + group]]
            t0 = now()
            result = self.fn(op, args)
            t1 = now()
            rows.append((f"{name}.{op}", t0, t1, parent, op_id))
            results.append(result)
            timings.setdefault(op, []).append((t1 - t0) / group)
        spans.close(parent)


def chunked(items: Sequence[Item]) -> list[list[Item]]:
    """Cut the items into the stretches the rungs take turns on: scalar
    calls :data:`CHUNK` at a time per op family, each bulk trio alone."""
    chunks: list[list[Item]] = []
    run: list[Item] = []
    family = None
    for item in items:
        op = item[0]
        this = "bulk" if op in BULK_OPS else "write" if op in ("add", "delete") else op
        full = len(run) >= (3 if this == "bulk" else CHUNK)
        if run and (this != family or full):
            chunks.append(run)
            run = []
        family = this
        run.append(item)
    if run:
        chunks.append(run)
    return chunks


def interleave(spans: Spans, rungs: Sequence[Rung], items: Sequence[Item]) -> dict[str, Timings]:
    """Every rung runs chunk 1, then every rung runs chunk 2, ..."""
    for chunk in chunked(items):
        for rung in rungs:
            rung.run(spans, chunk)
    return {rung.key: rung.timings for rung in rungs}


# ----------------------------------------------------------------------
# Inputs of the ladder
# ----------------------------------------------------------------------


def lrc_items(inp: gen.Inputs, ops: Iterable[str], calls: int, bulk_calls: int) -> list[Item]:
    """The operations every LRC rung runs, in an order that keeps the
    catalog valid: each add before its delete, each bulk trio together."""
    ops = set(ops)
    items: list[Item] = []
    if "query" in ops:
        for k, i in enumerate(inp.draws("ladder/query", gen.LRC_SIZE, calls)):
            items.append(("query", k, (inp.lfn("main", i),)))
    if ops & {"add", "delete"}:
        for k, pair in enumerate(inp.pairs("ladderw", calls)):
            items.append(("add", k, pair))
            items.append(("delete", k, pair))
    if ops & set(BULK_OPS):
        for k in range(bulk_calls):
            pairs = inp.pairs("ladderb", gen.BULK_SIZE, start=k * gen.BULK_SIZE)
            items.append(("bulk_add", k, (pairs,)))
            items.append(("bulk_query", k, ([lfn for lfn, _ in pairs],)))
            items.append(("bulk_delete", k, (pairs,)))
    return items


def cluster_items(inp: gen.Inputs, calls: int, bulk_calls: int) -> list[Item]:
    """R6/R7 inputs for ``cluster.combined.self_us``: query, add (with
    its delete), and bulk queries of *present* names."""
    items = lrc_items(inp, ("query", "add"), calls, 0)
    for k in range(bulk_calls):
        picks = inp.draws(f"ladder/bulk_query/{k}", gen.LRC_SIZE, gen.BULK_SIZE)
        items.append(("bulk_query", k, ([inp.lfn("main", i) for i in picks],)))
    return items


def rli_items(inp: gen.Inputs, calls: int) -> tuple[list[gen.Op], list[Item]]:
    plan = gen.plan_rli_queries(inp, 0, calls)
    return plan, [("rli_query", k, op.args) for k, op in enumerate(plan)]


def requests_for(items: Sequence[Item]) -> list[Request]:
    """The requests the client library would put on the wire (v2, with a
    correlation id)."""
    out = []
    for n, (op, _op_id, args) in enumerate(items):
        method, shape = WIRE[op]
        out.append(Request(method, shape(*args), id=n + 1))
    return out


# ----------------------------------------------------------------------
# Rungs below the wire (in this process)
# ----------------------------------------------------------------------


class _RecordingConnection:
    """Stands in for the LRC's connection while one method runs, noting
    each statement and whether the method opened a transaction."""

    def __init__(self, connection: Any) -> None:
        self._connection = connection
        self.statements: list[tuple[str, list]] = []
        self.transactional = False

    @property
    def database(self) -> Any:
        return self._connection.database

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        self.statements.append((sql, list(params)))
        return self._connection.execute(sql, params)

    def transaction(self) -> Any:
        self.transactional = True
        return self._connection.transaction()


def _lrc_method(lrc: Any, op: str) -> Callable[..., Any]:
    return {
        "query": lrc.get_mappings,
        "add": lrc.create_mapping,
        "delete": lrc.delete_mapping,
        "bulk_add": lrc.bulk_create,
        "bulk_query": lrc.bulk_query,
        "bulk_delete": lrc.bulk_delete,
    }[op]


def capture_sql(lrc: Any, items: Sequence[Item]) -> list[_RecordingConnection]:
    """Run every item through the LRC once, recording the SQL it issues."""
    real = lrc.conn
    recordings = []
    try:
        for op, _op_id, args in items:
            recorder = _RecordingConnection(real)
            lrc.conn = recorder
            _lrc_method(lrc, op)(*args)
            recordings.append(recorder)
    finally:
        lrc.conn = real
    return recordings


def _replayer(
    recordings: Iterable[_RecordingConnection],
    execute: Callable[..., Any], transaction: Callable[[], Any],
) -> Callable[[str, tuple], Any]:
    """Replays one recording per call, in the order they were captured."""
    position = iter(recordings)

    def replay(op: str, args: tuple) -> None:
        recording = next(position)
        if recording.transactional:
            with transaction():
                for sql, params in recording.statements:
                    execute(sql, params)
        else:
            for sql, params in recording.statements:
                execute(sql, params)

    return replay


def _table_rung(engine: Any) -> Callable[[str, tuple], Any]:
    """R0: the table calls a point query, an add and a delete come down
    to, written by hand against ``Table``'s public methods."""
    t_lfn, t_pfn, t_map = (engine.table(t) for t in ("t_lfn", "t_pfn", "t_map"))
    by_name, by_id = ("name",), ("id",)

    def query(lfn: str) -> list[str]:
        ((_rid, lfn_row),) = t_lfn.lookup_equal(by_name, (lfn,))
        return [
            t_pfn.lookup_equal(by_id, (m[1],))[0][1][1]
            for _rid, m in t_map.lookup_equal(("lfn_id",), (lfn_row[0],))
        ]

    def add(lfn: str, pfn: str) -> None:
        if t_lfn.lookup_equal(by_name, (lfn,)) or t_pfn.lookup_equal(by_name, (pfn,)):
            raise AssertionError("ladder writes use fresh names")
        _rid, lfn_row = t_lfn.insert({"name": lfn, "ref": 1})
        _rid, pfn_row = t_pfn.insert({"name": pfn, "ref": 0})
        t_map.insert({"lfn_id": lfn_row[0], "pfn_id": pfn_row[0]})
        ((rid, row),) = t_pfn.lookup_equal(by_id, (pfn_row[0],))
        t_pfn.update_rid(rid, {"ref": row[2] + 1})

    def delete(lfn: str, pfn: str) -> None:
        ((lfn_rid, lfn_row),) = t_lfn.lookup_equal(by_name, (lfn,))
        ((pfn_rid, pfn_row),) = t_pfn.lookup_equal(by_name, (pfn,))
        ((map_rid, _row),) = t_map.lookup_equal(
            ("lfn_id", "pfn_id"), (lfn_row[0], pfn_row[0])
        )
        t_map.delete_rid(map_rid)
        t_lfn.delete_rid(lfn_rid)
        t_pfn.delete_rid(pfn_rid)

    calls = {"query": query, "add": add, "delete": delete}
    return lambda op, args: calls[op](*args)


def _handler(
    server: RLSServer, requests: Iterable[Request], exchanged: deque | None = None
) -> Callable[[str, tuple], Response]:
    """R4: ``RPCServer.handle`` on prebuilt requests, in order.  With
    ``exchanged`` each (request, response) is queued for the codec rung."""
    ctx = server.rpc.handshake(Hello(version=PROTOCOL_VERSION), peer="rlsbench")
    position = iter(requests)

    def handle(op: str, args: tuple) -> Response:
        request = next(position)
        response = server.rpc.handle(ctx, request)
        if exchanged is not None:
            exchanged.append((request, response))
        return response

    return handle


def _codec(exchanged: deque) -> Callable[[str, tuple], None]:
    """C: what the wire costs in encoding — the request encoded by the
    client and decoded by the server, the response the other way."""
    out = bytearray()

    def codec(op: str, args: tuple) -> None:
        for message in exchanged.popleft():
            del out[:]
            encode_message_into(out, message)
            # The transport decodes from a view of its receive buffer.
            with memoryview(out) as frame:
                message_from_bytes(frame)

    return codec


def _batch_handler(server: RLSServer) -> Callable[[str, list], Batch]:
    """``handle_batch`` of sixteen queries at a time."""
    ctx = server.rpc.handshake(Hello(version=PROTOCOL_VERSION), peer="rlsbench")
    method, shape = WIRE["query"]

    def handle(op: str, many: list) -> Batch:
        requests = tuple(
            Request(method, shape(*args), id=n + 1) for n, args in enumerate(many)
        )
        return server.rpc.handle_batch(ctx, Batch(requests))

    return handle


def _client_rung(key: str, layer: str, methods: dict[str, Callable[..., Any]]) -> Rung:
    """Client-library calls, issued exactly as the timed run issues them."""
    return Rung(
        key, layer, lambda op, args: call(methods[op], *args), ops=frozenset(methods)
    )


def _lrc_client_methods(client: Any) -> dict[str, Callable[..., Any]]:
    return {
        "query": client.get_mappings, "add": client.create,
        "delete": client.delete, "bulk_add": client.bulk_create,
        "bulk_query": client.bulk_query, "bulk_delete": client.bulk_delete,
    }


def _bad_responses(rung: Rung) -> int:
    """Responses that are not the success the ladder's inputs call for."""
    return sum(
        1 for r in rung.results
        if not r.ok and r.error_type != "MappingNotFoundError"
    )


def _failed_calls(rung: Rung) -> int:
    return sum(
        isinstance(r, gen.Failure) and r.error != "MappingNotFoundError"
        for r in rung.results
    )


def lrc_rungs(
    seed: int, ops: Iterable[str], calls: int, bulk_calls: int, spans: Spans,
    port: int,
) -> tuple[dict[str, Timings], int]:
    """Every rung for the LRC operations in ``ops``; R6 goes to the child
    server listening on ``port``.

    Returns ``{rung: {op: [seconds]}}`` and the number of wrong results
    (failed calls or responses, or a catalog whose size was not restored).
    """
    inp = gen.Inputs(seed)
    items = lrc_items(inp, ops, calls, bulk_calls)
    writes = any(op not in ("query", "bulk_query") for op, _, _ in items)
    taxed = frozenset(SCALAR_OPS)
    servers = [serve.build("lrc", seed, tcp=False)]
    client = None
    try:
        x = servers[0]["lrc"]
        # Each chunk is captured twice (for R1 and for R2) before the twin
        # replays it twice, so a replay allocates the row ids its captured
        # parameters carry.
        first: list[_RecordingConnection] = []
        second: list[_RecordingConnection] = []
        for chunk in chunked(items):
            first += capture_sql(x.lrc, chunk)
            second += capture_sql(x.lrc, chunk)
        if writes:
            servers.append(serve.build("lrc", seed, tcp=False))
        y = servers[-1]["lrc"]
        servers.append(serve.build("lrc", seed, tcp=False, obs=False))
        bare = servers[-1]["lrc"]
        client = connect_tcp_server(serve.HOST, port)
        exchanged: deque = deque()
        handled = Rung("R4", "net.rpc", _handler(x, requests_for(items), exchanged))
        untaxed = Rung(
            "R4off", "net.rpc",
            _handler(bare, requests_for([i for i in items if i[0] in taxed])),
            ops=taxed,
        )
        wire = _client_rung("R6", "net.transport", _lrc_client_methods(client))
        rungs = interleave(spans, [
            Rung("R0", "db.table", _table_rung(x.engine), ops=frozenset(SCALAR_OPS)),
            Rung("R1", "db.sql", _replayer(first, y.engine.execute, y.engine.wal.transaction)),
            Rung("R2", "db.odbc", _replayer(second, y.connection.execute, y.connection.transaction)),
            Rung("R3", "core.lrc", lambda op, args: _lrc_method(x.lrc, op)(*args)),
            handled,
            Rung("C", "net.codec", _codec(exchanged)),
            Rung("Rbatch", "net.rpc", _batch_handler(x), ops=frozenset({"query"}),
                 group=PIPELINE_DEPTH),
            untaxed,
            wire,
        ], items)
        wrong = _bad_responses(handled) + _bad_responses(untaxed) + _failed_calls(wire)
        wrong += sum(s["lrc"].lrc.lfn_count() != gen.LRC_SIZE for s in servers)
    finally:
        if client is not None:
            client.close()
        for built in servers:
            serve.stop(built)
    return rungs, wrong


def rli_rungs(seed: int, calls: int, spans: Spans, port: int) -> tuple[dict[str, Timings], int]:
    """Every rung for a Bloom-mode RLI query; R6 goes to ``port``."""
    inp = gen.Inputs(seed)
    plan, items = rli_items(inp, calls)
    params = BloomParameters.for_entries(gen.BLOOM_LRC_SIZE)
    filters = [
        BloomFilter.from_names(inp.lfns(gen.bloom_site(j), gen.BLOOM_LRC_SIZE), params)
        for j in range(gen.BLOOM_LRCS)
    ]
    servers = [serve.build("rli_bloom", seed, tcp=False, obs=obs) for obs in (True, False)]
    client = connect_tcp_server(serve.HOST, port)
    try:
        taxed, bare = (s["rli"] for s in servers)
        exchanged: deque = deque()
        answered = Rung("R3", "core.rli", lambda op, args: call(taxed.rli.query, *args))
        handled = Rung("R4", "net.rpc", _handler(taxed, requests_for(items), exchanged))
        untaxed = Rung("R4off", "net.rpc", _handler(bare, requests_for(items)))
        wire = _client_rung("R6", "net.transport", {"rli_query": client.rli_query})
        rungs = interleave(spans, [
            Rung("Rb", "core.bloom", lambda op, args: [args[0] in b for b in filters]),
            answered, handled, Rung("C", "net.codec", _codec(exchanged)),
            untaxed, wire,
        ], items)
        wrong = sum(
            gen.judge(op, answer) == gen.WRONG
            for op, answer in zip(plan, answered.results)
        )
        wrong += _bad_responses(handled) + _bad_responses(untaxed) + _failed_calls(wire)
    finally:
        client.close()
        for built in servers:
            serve.stop(built)
    return rungs, wrong


def cluster_rungs(
    spans: Spans, lrc_port: int, shard_ports: dict[str, int], items: Sequence[Item]
) -> tuple[dict[str, Timings], int]:
    """R6 against one LRC and R7 against the two shards, same items."""
    client = connect_tcp_server(serve.HOST, lrc_port)
    combined = CombinedClient(
        ShardMap(shards=serve.SHARDS),
        connect_fn=lambda shard: connect_tcp_server(serve.HOST, shard_ports[shard]),
    )
    try:
        methods = _lrc_client_methods(client)
        single = _client_rung("R6", "net.transport", {
            op: methods[op] for op in ("query", "add", "delete", "bulk_query")
        })
        routed = _client_rung("R7", "cluster.combined", {
            "query": combined.get_mappings, "add": combined.create,
            "delete": combined.delete, "bulk_query": combined.bulk_query,
        })
        rungs = interleave(spans, [single, routed], items)
        return rungs, _failed_calls(single) + _failed_calls(routed)
    finally:
        client.close()
        combined.close()


# ----------------------------------------------------------------------
# Soft-state update, split by where the time goes
# ----------------------------------------------------------------------


def softstate_layers(seed: int, repeats: int, spans: Spans) -> dict[str, float]:
    """One LRC's full update into a sink that discards it, a sink that
    applies it in-process, and a sink behind TCP; and one Bloom build.

    ``scan`` is the first; ``apply`` and ``wire`` are the differences.
    """
    inp = gen.Inputs(seed)
    config = dict(sync_latency=0.0, tcp_host=serve.HOST)
    direct = RLSServer(ServerConfig(name="ladder-rli-direct", role=ServerRole.RLI, **config)).start()
    remote = RLSServer(ServerConfig(name="ladder-rli-tcp", role=ServerRole.RLI, tcp=True, **config)).start()
    wire = RPCClient(connect_tcp(*remote.tcp_address))
    sinks = {"null": NullSink(), "direct": DirectSink(direct.rli), "tcp": RPCSink(wire)}
    lrc = RLSServer(
        ServerConfig(name="ladder-lrc", role=ServerRole.LRC, **config),
        sink_resolver=sinks.__getitem__,
    ).start()
    try:
        lrc.lrc.bulk_load(inp.pairs("softA", gen.SOFTSTATE_LRC_SIZE))
        manager = lrc.update_manager
        for sink in sinks:  # first contact fills the RLI; measure refreshes
            manager.send_full_update(RLITarget(name=sink))

        def step(op: str, args: tuple) -> Any:
            if op == "bloom_build":
                return manager.rebuild_bloom()
            return manager.send_full_update(RLITarget(name=op))

        rung = Rung("softstate", "core.updates", step)
        for k in range(repeats):  # the sinks take turns, like the rungs
            rung.run(spans, [(op, k, ()) for op in (*sinks, "bloom_build")])
    finally:
        wire.close()
        for server in (lrc, direct, remote):
            server.stop()
    med = {op: median(values) for op, values in rung.timings.items()}
    return {
        "core.updates.scan_s": med["null"],
        "core.rli.apply_s": med["direct"] - med["null"],
        "net.update_wire_s": med["tcp"] - med["direct"],
        "core.bloom.build_s": med["bloom_build"],
    }


# ----------------------------------------------------------------------
# Ladder arithmetic
# ----------------------------------------------------------------------

#: Rungs in order; each layer's self time is its rung minus the rung
#: before it that was measured for the op.
_CHAIN = (
    ("db.table", "R0"),
    ("db.sql", "R1"),
    ("db.odbc", "R2"),
    ("core.bloom", "Rb"),
    ("core.lrc", "R3"),
    ("net.rpc", "R4"),
)


def medians_us(rungs: dict[str, Timings]) -> dict[str, dict[str, float]]:
    return {
        rung: {op: median(values) * 1e6 for op, values in timings.items() if values}
        for rung, timings in rungs.items()
    }


def resolve(rung_us: dict[str, dict[str, float]]) -> dict[str, float]:
    """Layer metrics from rung medians (microseconds).

    Differences are returned as measured: a negative one means the two
    rungs are closer than the noise between them, and the report prints it
    as ``unresolved`` (see :func:`unresolved`); it is never clamped to 0.
    """
    ops = sorted({op for timings in rung_us.values() for op in timings})
    out: dict[str, float] = {}
    for op in ops:
        below = 0.0
        for layer, rung in _CHAIN:
            if op not in rung_us.get(rung, {}):
                continue
            if op == "rli_query" and layer == "core.lrc":
                layer = "core.rli"
            out[f"{layer}.self_us.{op}"] = rung_us[rung][op] - below
            below = rung_us[rung][op]
        r4 = rung_us.get("R4", {}).get(op)
        codec = rung_us.get("C", {}).get(op)
        r6 = rung_us.get("R6", {}).get(op)
        if codec is not None:
            out[f"net.codec.self_us.{op}"] = codec
        if None not in (r4, codec, r6):
            out[f"net.transport.self_us.{op}"] = r6 - r4 - codec
        if r6 is not None and op in rung_us.get("R7", {}):
            out[f"cluster.combined.self_us.{op}"] = rung_us["R7"][op] - r6
        if r4 is not None and op in rung_us.get("R4off", {}) and op != "delete":
            out[f"obs.tax_us.{op}"] = r4 - rung_us["R4off"][op]
    batch = rung_us.get("Rbatch", {}).get("query")
    if batch is not None and "query" in rung_us.get("R3", {}):
        out["net.rpc.batch_self_us.query"] = batch - rung_us["R3"]["query"]
    return out


def overhead_ratio(rung_us: dict[str, dict[str, float]], untraced_p50_us: Sequence[float]) -> float:
    """``trace.overhead_ratio``: the R6 ``query`` median — spans on, in the
    process that also hosts the in-process rungs — over what ``lrc_query``
    measured without either.  Like against like: the median over all
    traced calls against the median over the untraced segments' medians."""
    return rung_us["R6"]["query"] / median(untraced_p50_us)


def unresolved(name: str, value: float) -> bool:
    """True for a difference of rungs that came out negative."""
    return value < 0.0 and (
        ".self_us." in name or ".batch_self_us." in name
        or name.startswith("obs.tax_us.") or name.endswith("_s")
    )

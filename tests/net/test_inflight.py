"""Requests that have not finished: the dispatcher's in-flight map.

A request is published to observers once, when it has finished; until then
its record sits in ``RPCServer``'s in-flight map, which is what
``rpc.inflight``, the stuck-thread gate and the flight recorder's ``rpc.in``
without ``rpc.out`` are read from.
"""

import threading

from repro.core.client import connect
from repro.core.config import ServerRole
from repro.net.messages import Hello, Request
from repro.net.rpc import RPCServer
from repro.obs import reqctx
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry

WAIT = 10.0


def rpc_events(recorder, method):
    return [e.kind for e in recorder.events() if e.detail == method]


def test_a_parked_handler_reads_as_rpc_in_and_counts_one_everywhere(make_server):
    server = make_server(ServerRole.LRC)
    parked, release = threading.Event(), threading.Event()

    def park(ctx, args):
        parked.set()
        assert release.wait(WAIT)
        return "done"

    server.rpc.register("park", park)
    answers = []
    caller = threading.Thread(
        target=lambda: answers.append(connect(server.config.name).rpc.call("park"))
    )
    caller.start()
    try:
        assert parked.wait(WAIT)
        assert rpc_events(server.flight, "park") == ["rpc.in"]
        assert server.rpc.inflight == 1
        assert server._rpc_inflight() == 1.0
        assert server.metrics.snapshot().gauges["rpc.inflight"] == 1.0
        (record,) = server.rpc.in_flight()
        assert (record.method, record.end_seq) == ("park", 0)
        # The admin call that reads the ring is itself in flight while it does.
        payload = connect(server.config.name).flight(limit=1000)
        kinds = [(e["kind"], e["detail"]) for e in payload["events"]]
        assert kinds[-2:] == [("rpc.in", "park"), ("rpc.in", "admin_flight")]
        assert ("rpc.out", "park") not in kinds
        recorded = payload["stats"]["recorded"]
    finally:
        release.set()
        caller.join(WAIT)
    assert not caller.is_alive() and answers == ["done"]
    assert rpc_events(server.flight, "park") == ["rpc.in", "rpc.out"]
    assert server.rpc.inflight == 0 and server.rpc.in_flight() == []
    assert server.metrics.snapshot().gauges["rpc.inflight"] == 0.0
    # park's rpc.out and admin_flight's: two more events, none counted twice.
    assert server.flight.stats()["recorded"] == recorded + 2


def test_a_dump_frozen_while_a_request_is_parked_keeps_it_as_rpc_in_only():
    recorder = FlightRecorder(capacity=16)
    rpc = RPCServer(metrics=MetricsRegistry(), observers=[recorder])
    parked, release = threading.Event(), threading.Event()

    def park(ctx, args):
        parked.set()
        assert release.wait(WAIT)

    def boom(ctx, args):
        raise KeyError("nope")

    rpc.register("park", park)
    rpc.register("boom", boom)
    ctx = rpc.handshake(Hello(), peer="test")
    caller = threading.Thread(target=rpc.handle, args=(ctx, Request("park", ())))
    caller.start()
    try:
        assert parked.wait(WAIT)
        assert not rpc.handle(ctx, Request("boom", ())).ok  # freezes the ring
    finally:
        release.set()
        caller.join(WAIT)
    assert not caller.is_alive()
    dump = recorder.last_dump  # rendered after park returned
    assert [(e["kind"], e["detail"]) for e in dump["events"]] == [
        ("rpc.in", "park"), ("rpc.in", "boom"), ("error", "boom: KeyError"),
    ]
    assert dump["stats"]["recorded"] == 3 and dump["stats"]["recent"] == 3
    assert rpc_events(recorder, "park") == ["rpc.in", "rpc.out"]


def test_a_handler_that_reenters_the_rpc_layer_gets_its_own_record_back(make_server):
    server = make_server(ServerRole.LRC)
    seen = {}

    def inner(ctx, args):
        seen["inner"] = reqctx.current()
        seen["during"] = [r.method for r in server.rpc.in_flight()]
        return "inner"

    def outer(ctx, args):
        mine = reqctx.current()
        answer = connect(server.config.name).rpc.call("inner")
        seen["outer"], seen["restored"] = mine, reqctx.current()
        seen["after"] = [r.method for r in server.rpc.in_flight()]
        server.engine.execute("SELECT id FROM t_lfn WHERE name = ?", ["lfn://x/f1"])
        return answer

    server.rpc.register("inner", inner)
    server.rpc.register("outer", outer)
    connect(server.config.name).create("lfn://x/f1", "pfn://x/f1")
    assert connect(server.config.name).rpc.call("outer") == "inner"
    assert seen["restored"] is seen["outer"] is not seen["inner"]
    assert seen["inner"].enclosing is seen["outer"]
    assert (seen["during"], seen["after"]) == (["outer", "inner"], ["outer"])
    assert reqctx.current() is None and server.rpc.inflight == 0
    events = [
        (e.kind, e.detail) for e in server.flight.events()
        if e.detail in ("outer", "inner")
    ]
    assert events == [
        ("rpc.in", "outer"), ("rpc.in", "inner"),
        ("rpc.out", "inner"), ("rpc.out", "outer"),
    ]
    # The statement after the nested call was charged to the outer request.
    assert (seen["outer"].rows_examined, seen["inner"].rows_examined) == (1, 0)

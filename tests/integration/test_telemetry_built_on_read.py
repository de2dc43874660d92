"""The request thread stores telemetry; readers build it.

A successful request may not construct what only a reader needs — a
``FlightEvent``, an ``OpStats``, a ``QueryLogEntry`` — and what it leaves
in the rings may not keep the request's arguments or a statement's
parameter list alive.
"""

import gc
import weakref

import pytest

from repro.core.config import ServerRole
from repro.db.profiler import OpStats, QueryLogEntry
from repro.net.messages import Hello, Request
from repro.obs.flight import FlightEvent

NAMES = 1000


@pytest.fixture
def loaded(make_server):
    server = make_server(ServerRole.LRC)
    server.lrc.bulk_load(
        [(f"lfn://exp/run7/f{i:04d}", f"pfn://site/f{i:04d}") for i in range(NAMES)]
    )
    return server, server.rpc.handshake(Hello(), peer="test")


def count_constructions(monkeypatch, *classes):
    made = dict.fromkeys(classes, 0)
    for cls in classes:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            made[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


def test_a_successful_request_constructs_no_reader_side_object(loaded, monkeypatch):
    server, ctx = loaded
    made = count_constructions(monkeypatch, FlightEvent, OpStats, QueryLogEntry)
    for i in range(100):
        reply = server.rpc.handle(
            ctx, Request("lrc_get_mappings", (f"lfn://exp/run7/f{i:04d}",), id=i)
        )
        assert reply.value == [f"pfn://site/f{i:04d}"]
    assert made == {FlightEvent: 0, OpStats: 0, QueryLogEntry: 0}
    # Two moments, both after the fact: nothing is published on the way in.
    assert sorted(server.rpc._hooks) == ["finished", "record_bytes"]

    # ... and every one of them is there for whoever reads.
    assert server.flight.stats()["recorded"] >= 200
    events = server.flight.events()
    assert [e.kind for e in events[-2:]] == ["rpc.in", "rpc.out"]
    # bulk_load ends with a WAL checkpoint, whose sync was recorded (and
    # its event built) as it happened, before the count started.
    assert [e.kind for e in events].count("wal.flush") == 1
    assert made[FlightEvent] == len(events) - 1 > 0
    recent = server.engine.profiler.log.recent()
    assert made[QueryLogEntry] == len(recent) > 0
    assert recent[-1].rows_examined == 3 and recent[-1].principal == "anonymous"
    plan = recent[-1].to_dict()["plan"]
    assert [op["name"] for op in plan] == ["drive", "join", "join"]
    assert made[OpStats] == len(plan)


class Names(list):
    """A list that can be weakly referenced."""


def test_the_rings_keep_no_argument_or_parameter_list_alive(loaded):
    server, ctx = loaded
    engine = server.engine
    parameters = []
    execute = engine.execute

    def watching(sql, params=()):
        params = Names(params)
        parameters.append(weakref.ref(params))
        return execute(sql, params)

    engine.execute = watching  # the ODBC layer calls it by attribute
    names = Names(f"lfn://exp/run7/f{i:04d}" for i in range(NAMES))
    argument = weakref.ref(names)
    request = Request("lrc_bulk_query", (names,), id=1)
    reply = server.rpc.handle(ctx, request)
    assert reply.ok and len(reply.value) == NAMES
    server.rpc.handle(ctx, Request("lrc_query_wildcard", ("lfn://exp/run7/f000*",), id=2))
    del names, request, reply, engine.execute
    gc.collect()

    assert len(parameters) >= 2
    assert argument() is None
    assert [ref() for ref in parameters] == [None] * len(parameters)
    # Nothing was lost by letting go: the parameter-dependent plan detail
    # was resolved to text while the statement ran.
    details = [
        entry.to_dict()["plan"][0]["detail"]
        for entry in server.engine.profiler.log.recent()
        if entry.plan
    ]
    assert "hash index IN probe t_lfn(name) [256 keys]" in details  # per chunk
    assert any("prefix='lfn://exp/run7/f000'" in detail for detail in details)
    assert [e.detail for e in server.flight.events()][-4:] == [
        "lrc_bulk_query", "lrc_bulk_query", "lrc_query_wildcard", "lrc_query_wildcard",
    ]

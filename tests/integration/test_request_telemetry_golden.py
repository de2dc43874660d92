"""What the request path's telemetry *reads as* is pinned to golden files.

The request thread stores telemetry and readers build it (DESIGN.md §5
item 11), so nothing a reader sees may depend on when it was built.  One
scripted sequence on the in-process transport — a success, a handler
error, an unknown method, a ``Batch`` of the three, an ``update.sent``
event in between, a slow statement inside a request, statements that fail
at plan and at run time, all under fake clocks — must render the
``admin_flight`` payload, the ``admin_slow_queries`` payload and
``EXPLAIN ANALYZE`` lines exactly as the commit before that change did.

The golden file was captured from that parent commit, by running this
module as a script with the parent's sources on the path::

    PYTHONPATH=<parent>/src python tests/integration/test_request_telemetry_golden.py

Two things are normalised on both sides: flight ``seq`` numbers come from
a process-wide counter, so each is replaced by its rank within the
payload (the *order* of ``rpc.*``, ``update.*`` and ``error`` events is
what is pinned), and the ``t`` of a request's own events (``rpc.in``,
``rpc.out``, its ``error``) is masked — events recorded as they happen
read the recorder's clock, a request's are derived from its
``perf_counter`` stamps when rendered.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import ServerConfig, ServerRole
from repro.core.server import RLSServer
from repro.db.errors import DBError
from repro.net.messages import Batch, Request
from repro.net.transport import connect_local

GOLDEN = Path(__file__).parent / "golden" / "request_telemetry.json"

F1, GHOST = "lfn://exp/run7/f1", "lfn://exp/run7/ghost"


class StepClock:
    """Advances ``step`` per reading; the script changes ``step`` to make
    one request's statements slow."""

    def __init__(self, step: float) -> None:
        self.now, self.step = 0.0, step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def run_script() -> dict:
    """The scripted sequence; returns the three normalised renderings."""
    server = RLSServer(
        ServerConfig(name="golden-telemetry", role=ServerRole.LRC, sync_latency=0.0)
    )  # never started: no background thread records or executes anything
    try:
        clock = StepClock(0.001)
        server.engine.profiler.clock = clock
        server.engine.wal.flush_interval = float("inf")  # no timed wal.flush
        server.flight.clock = lambda: 1000.0
        channel = connect_local("golden-telemetry")
        get, ghost = ("lrc_get_mappings", (F1,)), ("lrc_get_mappings", (GHOST,))

        replies = [
            channel.request(Request("lrc_create_mapping", (F1, "pfn://site/f1"), id=1)),
            channel.request(Request(*get, id=2)),
            channel.request(Request(*ghost, id=3)),
            channel.request(Request("no_such_method", (1,), id=4)),
        ]
        server.flight.record("update.sent", detail="rli0", target="rli0", names=3)
        batch = channel.request(
            Batch((Request(*get, id=5), Request(*ghost, id=6), Request("nope", (), id=7)))
        )
        replies.extend(batch.items)
        clock.step = 0.02  # every statement of this request is slow
        replies.append(channel.request(Request(*get, id=8)))
        clock.step = 0.001
        replies.append(channel.request(Request("lrc_bulk_query", ([F1, GHOST, F1],), id=9)))
        replies.append(channel.request(Request("lrc_query_wildcard", ("lfn://exp/run7/*",), id=10)))
        assert [(r.ok, r.id) for r in replies] == [
            (True, 1), (True, 2), (False, 3), (False, 4), (True, 5), (False, 6),
            (False, 7), (True, 8), (True, 9), (True, 10),
        ]

        engine = server.engine
        for sql, params in (
            ("SELECT id FROM t_missing", ()),  # fails at plan time
            ("INSERT INTO t_lfn (name, ref) VALUES (?, ?)", [F1, 1]),  # at run time
        ):
            try:
                engine.execute(sql, params)
            except DBError:
                continue
            raise AssertionError(f"{sql!r} should have failed")
        explain = {
            sql: [row[0] for row in engine.execute("EXPLAIN ANALYZE " + sql, params).rows]
            for sql, params in (
                ("SELECT id FROM t_lfn WHERE name = ?", [F1]),
                ("SELECT name FROM t_lfn WHERE name IN (?, ?, ?) ORDER BY name DESC LIMIT 1",
                 [F1, GHOST, F1]),
                ("SELECT name FROM t_lfn WHERE name LIKE ? AND ref > 0", ["lfn://exp/%"]),
                ("SELECT name FROM t_lfn WHERE ref = 1", []),
                ("UPDATE t_lfn SET ref = 2 WHERE name = ?", [F1]),
                ("DELETE FROM t_pfn WHERE name = ?", ["pfn://nowhere"]),
            )
        }
        slow = channel.request(Request("admin_slow_queries", (100,), id=11))
        flight = channel.request(Request("admin_flight", (1000,), id=12))
        assert slow.ok and flight.ok
        return {
            "flight": normalise_flight(flight.value),
            "slow_queries": slow.value,
            "explain_analyze": explain,
        }
    finally:
        server.stop()


def normalise_flight(payload: dict) -> dict:
    dump = payload["last_dump"] or {"events": []}
    events = payload["events"] + dump["events"]
    rank = {seq: n for n, seq in enumerate(sorted({e["seq"] for e in events}), 1)}
    for event in events:
        event["seq"] = rank[event["seq"]]
        if event["kind"] in ("rpc.in", "rpc.out") or "message" in event["data"]:
            assert isinstance(event["t"], float)
            event["t"] = "<t>"
    return payload


def test_flight_slow_query_and_explain_renderings_match_the_parent():
    golden = json.loads(GOLDEN.read_text())
    rendered = json.loads(json.dumps(run_script()))  # tuples -> lists, as on disk
    assert rendered["explain_analyze"] == golden["explain_analyze"]
    assert rendered["slow_queries"] == golden["slow_queries"]
    assert rendered["flight"] == golden["flight"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_script(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

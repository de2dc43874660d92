"""RPC pipelining: serial round trips vs correlation-id pipelining.

Not a paper figure — a regression gate for the RPC hot path.  One TCP
connection issues ``DEPTH``-deep bursts of a tiny echo method three ways:

* **serial** — one ``call`` per request, each waiting out its own round
  trip;
* **pipelined** — ``call_async`` x DEPTH then ``drain``: every request is
  in flight at once, coalesced into batch frames, and the responses are
  dispatched by correlation id.

The pipelined rate must beat serial by ``MIN_SPEEDUP`` at the deepest
burst: the whole point of correlation ids is that a burst costs ~one
round trip instead of DEPTH of them.
"""

from __future__ import annotations

import pytest

from benchmarks.common import record_series, write_bench_artifact
from repro.net.rpc import RPCClient, RPCServer
from repro.net.transport import TCPChannel, TCPServerTransport, connect_tcp

DEPTHS = [1, 4, 16]
#: Requests per measured trial at each depth.
REQUESTS = 2_000
#: Required pipelined/serial advantage at the deepest burst.
MIN_SPEEDUP = 3.0
TRIALS = 3


@pytest.fixture(scope="module")
def tcp_endpoint():
    server = RPCServer()
    server.register("echo", lambda ctx, args: args[0])
    transport = TCPServerTransport(server, host="127.0.0.1", port=0)
    yield transport.host, transport.port
    transport.close()


def _rate(client: RPCClient, depth: int, pipelined: bool) -> float:
    """Echo requests per second over ``REQUESTS`` calls in depth-bursts."""
    import time

    bursts = REQUESTS // depth
    start = time.perf_counter()
    for burst in range(bursts):
        if pipelined:
            calls = [
                client.call_async("echo", burst * depth + i)
                for i in range(depth)
            ]
            client.drain()
            for i, call in enumerate(calls):
                assert call.result() == burst * depth + i
        else:
            for i in range(depth):
                assert client.call("echo", burst * depth + i) == (
                    burst * depth + i
                )
    elapsed = time.perf_counter() - start
    return bursts * depth / elapsed


def bench_rpc_pipeline(tcp_endpoint, benchmark):
    host, port = tcp_endpoint
    client = RPCClient(connect_tcp(host, port))
    assert isinstance(client.channel, TCPChannel), "TCP channels pipeline"
    try:
        # Warm the connection and the codec paths.
        _rate(client, 4, pipelined=True)

        serial, piped = {}, {}
        for depth in DEPTHS:
            serial[depth] = max(
                _rate(client, depth, pipelined=False) for _ in range(TRIALS)
            )
            piped[depth] = max(
                _rate(client, depth, pipelined=True) for _ in range(TRIALS)
            )

        benchmark.pedantic(
            lambda: _rate(client, DEPTHS[-1], pipelined=True),
            rounds=1,
            iterations=1,
        )
    finally:
        client.close()

    rows = [
        [
            depth,
            f"{serial[depth]:.0f}",
            f"{piped[depth]:.0f}",
            f"{piped[depth] / serial[depth]:.2f}x",
        ]
        for depth in DEPTHS
    ]
    record_series(
        "RPC pipelining — echo round trips/s on one TCP connection",
        ["burst depth", "serial", "pipelined", "speedup"],
        rows,
        notes=[
            f"gate: pipelined >= {MIN_SPEEDUP:.0f}x serial at depth "
            f"{DEPTHS[-1]} (a batch carries a burst in ~one round trip)",
        ],
    )
    write_bench_artifact(
        "rpc_pipeline",
        series={
            "rpc.serial_rate": [[d, serial[d]] for d in DEPTHS],
            "rpc.pipelined_rate": [[d, piped[d]] for d in DEPTHS],
            "rpc.speedup": [[d, piped[d] / serial[d]] for d in DEPTHS],
        },
        meta={"requests": REQUESTS, "x_axis": "burst_depth"},
    )

    # Depth 1 is a pure-overhead case (one request per flush); it must
    # not regress below serial by more than scheduler noise.
    assert piped[1] > 0.5 * serial[1]
    assert piped[DEPTHS[-1]] >= MIN_SPEEDUP * serial[DEPTHS[-1]], (
        f"pipelined depth-{DEPTHS[-1]} only "
        f"{piped[DEPTHS[-1]] / serial[DEPTHS[-1]]:.2f}x serial"
    )

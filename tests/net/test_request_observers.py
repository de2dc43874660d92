"""Request observers: telemetry that cannot change an answer.

``RPCServer`` publishes one record per request to its observers, once
(``finished``), and each answered frame's byte count (``record_bytes``),
both through one fenced step.  These tests hold the
fence — an observer that raises, wherever it raises, changes no reply
byte, closes no connection and hides nothing from the other observers —
and replay, step by step, the interleaving that made the parent's usage
accountant answer a *successful* request with ``KeyError``.
"""

import socket
import threading

import pytest

from repro.net.messages import Batch, Hello, Request, Response, message_from_bytes
from repro.net.rpc import RPCServer, UNKNOWN_METHOD_LABEL
from repro.net.transport import LocalTransport, TCPServerTransport, _FrameIO, _serve
from repro.obs.metrics import MetricsRegistry
from repro.obs.usage import UsageAccountant
from tests.net._wire import IO_TIMEOUT, raw_connect, recv_message, send_frame

MOMENTS = ("finished", "record_bytes")

#: One of each outcome, scalar and batched; ids as a pipelining client sets.
FRAMES = [
    Request("echo", ("/grid/data/f1", 7), id=1),
    Request("boom", ("bad",), id=2),
    Request("no_such_method", (), id=3),
    Batch(
        (
            Request("echo", ("a",), id=4),
            Request("boom", ("worse",), id=5),
            Request("nope", (1, 2), id=6),
            Request("echo", ("b",), id=7),
        )
    ),
]
REQUESTS = 7  # in FRAMES, batch items counted one each


class Raiser:
    """Raises at the named moments, every time."""

    def __init__(self, *moments):
        self.moments = moments
        self.raises = 0

    def __getattr__(self, name):
        if name not in self.moments:
            raise AttributeError(name)

        def hook(*what):
            self.raises += 1
            raise RuntimeError(f"observer failed at {name}")

        return hook


class Witness:
    """Remembers everything it is told."""

    def __init__(self):
        self.seen = []

    def finished(self, record):
        self.seen.append(("finished", record.method, record.error))

    def record_bytes(self, principal, bytes_in, bytes_out):
        both = bytes_in > 0 and bytes_out > 0
        self.seen.append(("record_bytes", principal, both))


def boom(ctx, args):
    raise ValueError(args[0])


def make_server(*observers):
    registry = MetricsRegistry()
    server = RPCServer(metrics=registry, observers=observers)
    server.register("echo", lambda ctx, args: list(args))
    server.register("boom", boom)
    return server, registry


def exchange_local(server, frames):
    """Reply bytes per frame through the in-process transport's ``_serve``."""
    transport = LocalTransport(server)
    ctx = server.handshake(Hello(), peer="local")
    replies = []

    def send(reply):
        replies.append(reply.to_bytes())
        return len(replies[-1])

    for frame in frames:
        wire = frame.to_bytes()
        _serve(transport, ctx, wire, len(wire), send)
    return replies


def exchange_tcp(server, frames):
    """Reply bytes per frame over one real connection, then one more
    request on the same connection to show it is still being served."""
    transport = TCPServerTransport(server, "127.0.0.1", 0)
    try:
        with raw_connect(transport) as sock:
            assert recv_message(sock).ok  # welcome
            replies = []
            for frame in frames:
                send_frame(sock, frame.to_bytes())
                replies.append(bytes(_FrameIO().recv_frame(sock)))
            send_frame(sock, Request("echo", ("still here",), id=99).to_bytes())
            last = recv_message(sock)
            assert last == Response(True, ["still here"], "", "", 99)
    finally:
        transport.close()
    return replies


EXCHANGES = {"local": (exchange_local, 0), "tcp": (exchange_tcp, 1)}


def expected_sightings(extra_requests):
    """What an observer that sees everything sees of FRAMES."""
    unknown = UNKNOWN_METHOD_LABEL
    labels = ["echo", "boom", unknown, "echo", "boom", unknown, "echo"]
    labels += ["echo"] * extra_requests
    errors = {"echo": None, "boom": "ValueError", unknown: "NoSuchMethodError"}
    finished = [("finished", label, errors[label]) for label in labels]
    frames = [("record_bytes", "anonymous", True)] * (len(FRAMES) + extra_requests)
    return finished, frames


@pytest.mark.parametrize("transport", sorted(EXCHANGES))
@pytest.mark.parametrize("raising", [*[(m,) for m in MOMENTS], MOMENTS])
def test_a_raising_observer_changes_no_reply(transport, raising):
    exchange, extra = EXCHANGES[transport]
    bare, _ = make_server()
    reference = exchange(bare, FRAMES)
    # The replies are what they should be, not merely equal to each other.
    decoded = [message_from_bytes(r) for r in reference]
    assert decoded[0] == Response(True, ["/grid/data/f1", 7], "", "", 1)
    assert decoded[1] == Response(False, None, "ValueError", "bad", 2)
    assert (decoded[2].error_type, decoded[2].id) == ("NoSuchMethodError", 3)
    assert [(r.ok, r.id) for r in decoded[3].items] == [
        (True, 4), (False, 5), (False, 6), (True, 7),
    ]

    first, witness, last = Raiser(*raising), Witness(), Raiser(*raising)
    server, registry = make_server(first, witness, last)
    assert exchange(server, FRAMES) == reference

    # Every raise was counted, under the observer's name, and nowhere else.
    requests, frames = REQUESTS + extra, len(FRAMES) + extra
    per_observer = sum(
        {"finished": requests, "record_bytes": frames}[m]
        for m in raising
    )
    assert first.raises == last.raises == per_observer
    counted = registry.counter("obs.selfcheck.observer_errors", observer="Raiser")
    assert counted.value == 2 * per_observer
    assert registry.counter("net.protocol_errors", transport="tcp").value == 0

    # The observer between the two raisers, and the server's own rpc.*
    # metrics before them, were told everything.
    finished, charged = expected_sightings(extra)
    assert [s for s in witness.seen if s[0] == "finished"] == finished
    assert [s for s in witness.seen if s[0] == "record_bytes"] == charged
    assert server.requests_served == bare.requests_served == 3 + extra
    assert server.errors_returned == bare.errors_returned == 4
    assert server.inflight == 0


def test_no_observer_error_is_counted_when_none_raises():
    witness = Witness()
    server, registry = make_server(witness)
    exchange_local(server, FRAMES)
    assert not any(
        key.startswith("obs.selfcheck.observer_errors")
        for key in registry.snapshot().counters
    )
    assert len(witness.seen) == REQUESTS + len(FRAMES)


def test_tcp_every_request_gets_its_own_reply_when_every_observer_call_raises():
    """The parent charged bytes after ``send`` and unfenced: an error there
    wrote a second, id-less failure frame onto an answered connection and
    closed it."""
    server, registry = make_server(Raiser(*MOMENTS))
    transport = TCPServerTransport(server, "127.0.0.1", 0)
    n = 25
    try:
        with raw_connect(transport) as sock:
            assert recv_message(sock).ok
            for i in range(1, n + 1):
                send_frame(sock, Request("echo", (i,), id=i).to_bytes())
            replies = [recv_message(sock) for _ in range(n)]
            assert replies == [Response(True, [i], "", "", i) for i in range(1, n + 1)]
            # Nothing else is on the wire, and request N+1 is served.
            sock.settimeout(0.2)
            with pytest.raises(socket.timeout):
                sock.recv(1)
            sock.settimeout(IO_TIMEOUT)
            send_frame(sock, Request("echo", ("n+1",), id=n + 1).to_bytes())
            assert recv_message(sock) == Response(True, ["n+1"], "", "", n + 1)
    finally:
        transport.close()
    raises = registry.counter("obs.selfcheck.observer_errors", observer="Raiser")
    assert raises.value == 2 * (n + 1)


class ParkingRegistry(MetricsRegistry):
    """Parks the first ``counter()`` call until released — the window
    between the parent accountant's two publications (``_cells[key]``,
    then ``_instruments[key]``), held open."""

    def __init__(self):
        super().__init__()
        self.parked = threading.Event()
        self.release = threading.Event()

    def counter(self, name, **labels):
        if not self.parked.is_set():
            self.parked.set()
            assert self.release.wait(IO_TIMEOUT)
        return super().counter(name, **labels)


def test_first_use_of_a_cell_cannot_fail_a_concurrent_request():
    """ROADMAP item 1's flake, made deterministic: while one thread is
    creating the ``(anonymous, query)`` cell, a second thread accounts to
    the same cell.  The parent's second thread found the cost vector
    published but not yet its instruments and raised
    ``KeyError(('anonymous', 'query'))`` — which ``RPCServer.handle``
    returned to a client whose request had succeeded.

    Moot by construction here: a cell belongs to one thread's shard and
    has no instruments (the ``usage.*`` series are read out of the cells),
    so there is no second publication to be caught between — the
    registry's ``counter()`` is never even called.  Kept because it fails
    at the parent.
    """
    registry = ParkingRegistry()
    accountant = UsageAccountant(metrics=registry)
    failures = []

    def account():
        try:
            accountant.account("anonymous", "query", wall_time=0.001)
        except BaseException as exc:
            failures.append(exc)

    first = threading.Thread(target=account)
    first.start()
    # Either the first thread is parked mid-publication (parent) or it
    # has nothing to park on and finishes (here).
    while first.is_alive() and not registry.parked.wait(0.01):
        pass
    second = threading.Thread(target=account)
    second.start()
    second.join(IO_TIMEOUT)
    registry.release.set()
    first.join(IO_TIMEOUT)
    assert not first.is_alive() and not second.is_alive()
    assert failures == []
    cell = accountant.to_dict()["principals"]["anonymous"]["query"]
    assert cell["requests"] == 2
    series = registry.snapshot().counters
    assert series["usage.requests{class=query,principal=anonymous}"] == 2

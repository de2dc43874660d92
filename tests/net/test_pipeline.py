"""Pipelined RPC tests: correlation ids, batching, handshake, races.

Covers the hot path end to end over real sockets — many requests in
flight on one connection, whole bursts as single Batch frames — plus the
handshake's refusal rule (one protocol version, nothing negotiated), a
deterministic interleaving stress of the leader-reads dispatcher, and the
client-side races an earlier rewrite fixed (channel swap during retry,
lifetime retry accounting).
"""

import threading

import pytest

from repro.net.errors import (
    ProtocolError,
    RemoteError,
    TransportClosedError,
)
from repro.net.messages import (
    PROTOCOL_VERSION,
    Batch,
    Hello,
    Request,
    Response,
    message_from_bytes,
)
from repro.net.retry import RetryPolicy, is_retryable
from repro.net.rpc import RPCClient, RPCServer, UNKNOWN_METHOD_LABEL
from repro.net.transport import TCPServerTransport, connect_tcp
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, install_tracer
from tests.net._wire import StubServer, raw_connect, recv_message, send_frame

#: Bound on every blocking wait a test makes on another thread.
WAIT = 30.0
_EAGER = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def make_server(metrics=None):
    server = RPCServer(metrics=metrics)
    server.register("echo", lambda ctx, args: args[0])
    server.register("add", lambda ctx, args: args[0] + args[1])
    server.register("boom", lambda ctx, args: 1 / 0)
    return server


@pytest.fixture
def tcp_server():
    registry = MetricsRegistry()
    server = make_server(metrics=registry)
    transport = TCPServerTransport(server, "127.0.0.1", 0)
    yield server, transport, registry
    transport.close()


class TestHandshake:
    """One protocol version: both ends announce it, anything else is
    refused with a typed, non-retryable ProtocolError."""

    def test_current_version_connects_pipelined(self, tcp_server):
        _, transport, _ = tcp_server
        channel = connect_tcp(transport.host, transport.port)
        try:
            assert RPCClient(channel).call("add", 1, 2) == 3
        finally:
            channel.close()

    def test_old_version_hello_is_refused(self, tcp_server):
        _, transport, registry = tcp_server
        errors = registry.counter("net.protocol_errors", transport="tcp")
        with RPCClient(connect_tcp(transport.host, transport.port)) as sibling:
            for version in (1, PROTOCOL_VERSION + 1):
                before = errors.value
                with raw_connect(transport, Hello(version=version)) as sock:
                    reply = recv_message(sock)
                    assert isinstance(reply, Response) and not reply.ok
                    assert reply.error_type == "ProtocolError"
                    assert str(version) in reply.error_message
                    assert reply.id is None
                    # Refused means closed: nothing else is served.
                    assert sock.recv(1) == b""
                assert errors.value == before + 1
            # The listener and the sibling connection stay healthy.
            assert sibling.call("echo", "still here") == "still here"
            with RPCClient(connect_tcp(transport.host, transport.port)) as fresh:
                assert fresh.call("echo", "alive") == "alive"

    def test_refused_client_does_not_retry(self):
        refusal = Response.failure(ProtocolError("unsupported protocol version 2"))
        stub = StubServer(refusal)
        try:
            with pytest.raises(RemoteError) as err:
                connect_tcp(
                    stub.host, stub.port, retry=_EAGER, sleep=lambda _s: None
                )
            assert err.value.error_type == "ProtocolError"
            assert not is_retryable(err.value)
            # One dial, one Hello of the current version, no second try.
            assert [h.version for h in stub.hellos] == [PROTOCOL_VERSION]
        finally:
            stub.close()

    @pytest.mark.parametrize(
        "welcome",
        ["welcome", {"message": "welcome"}, {"message": "welcome", "proto": 1}],
        ids=["bare", "no-proto", "old-proto"],
    )
    def test_welcome_without_current_version_is_refused(self, welcome):
        stub = StubServer(Response.success(welcome))
        try:
            with pytest.raises(ProtocolError):
                connect_tcp(
                    stub.host, stub.port, retry=_EAGER, sleep=lambda _s: None
                )
            assert len(stub.hellos) == 1
        finally:
            stub.close()


class TestPipelining:
    def test_async_burst_roundtrip(self, tcp_server):
        _, transport, _ = tcp_server
        with RPCClient(connect_tcp(transport.host, transport.port)) as client:
            calls = [client.call_async("echo", i) for i in range(50)]
            client.drain()
            assert all(c.done for c in calls)
            assert [c.result() for c in calls] == list(range(50))

    def test_burst_travels_as_one_batch_frame(self, tcp_server):
        _, transport, registry = tcp_server
        batches = registry.counter("net.batch_frames", transport="tcp")
        before = batches.value
        with RPCClient(connect_tcp(transport.host, transport.port)) as client:
            for i in range(16):
                client.call_async("echo", i)
            client.drain()
        assert batches.value == before + 1

    def test_result_drains_implicitly(self, tcp_server):
        _, transport, _ = tcp_server
        with RPCClient(connect_tcp(transport.host, transport.port)) as client:
            pending = client.call_async("add", 2, 3)
            assert pending.result() == 5

    def test_async_calls_join_the_callers_trace(self, tcp_server):
        _, transport, _ = tcp_server
        tracer = Tracer()
        install_tracer(tracer)
        try:
            with RPCClient(connect_tcp(transport.host, transport.port)) as client:
                with tracer.span("client.op") as root:
                    client.call("echo", "sync")
                    calls = [client.call_async("echo", i) for i in range(3)]
                    client.drain()
                assert [c.result() for c in calls] == [0, 1, 2]
        finally:
            install_tracer(None)
        handled = tracer.find_spans("rpc.handle")
        assert len(handled) == 4
        assert {s.trace_id for s in handled} == {root.trace_id}

    def test_error_mid_burst_does_not_poison_neighbors(self, tcp_server):
        _, transport, _ = tcp_server
        with RPCClient(connect_tcp(transport.host, transport.port)) as client:
            before = client.call_async("echo", "a")
            bad = client.call_async("boom")
            after = client.call_async("echo", "z")
            client.drain()
            assert before.result() == "a"
            with pytest.raises(RemoteError) as err:
                bad.result()
            assert err.value.error_type == "ZeroDivisionError"
            assert after.result() == "z"

    def test_sync_calls_still_work_on_pipelined_channel(self, tcp_server):
        _, transport, _ = tcp_server
        with RPCClient(connect_tcp(transport.host, transport.port)) as client:
            assert client.call("add", 1, 2) == 3
            assert client.call("echo", "x") == "x"

    def test_concurrent_threads_share_one_connection(self, tcp_server):
        _, transport, _ = tcp_server
        with RPCClient(connect_tcp(transport.host, transport.port)) as client:
            results: dict[int, list] = {}
            errors: list = []

            def worker(tid: int) -> None:
                try:
                    calls = [
                        client.call_async("echo", (tid, i)) for i in range(40)
                    ]
                    client.drain()
                    results[tid] = [c.result() for c in calls]
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for tid in range(6):
                # The codec decodes tuples as lists.
                assert results[tid] == [[tid, i] for i in range(40)]

    def test_async_surface_is_synchronous_on_local_channels(self):
        # In-process channels do not pipeline; the same call_async/drain
        # code still works over them, each call completing as it is made.
        from repro.net.transport import LocalTransport

        transport = LocalTransport(make_server())
        try:
            with RPCClient(transport.open_channel()) as client:
                calls = [client.call_async("echo", i) for i in range(5)]
                bad = client.call_async("boom")
                assert all(c.done for c in calls) and bad.done
                client.drain()
                assert [c.result() for c in calls] == list(range(5))
                with pytest.raises(RemoteError):
                    bad.result()
        finally:
            transport.close()

    def test_submit_after_close_fails_fast(self, tcp_server):
        _, transport, _ = tcp_server
        channel = connect_tcp(transport.host, transport.port)
        channel.close()
        pending = channel.submit(Request("echo", (1,)))
        assert pending.done
        with pytest.raises(TransportClosedError):
            pending.get()


class TestInterleavingStress:
    """Leader-reads dispatch and batch dispatch under forced interleaving.

    Threads share one TCPChannel and mix blocking calls, async bursts
    (sent as Batch frames) and calls that raise.  Whichever thread holds
    the reader role completes everyone's responses, so a bug in the
    hand-off loses, duplicates or cross-delivers an answer; the handler
    echoes ``(thread, seq)`` so each of those shows up as a wrong value.
    """

    THREADS = 8
    ROUNDS = 40

    def test_no_response_lost_duplicated_or_cross_delivered(self):
        import random
        import sys
        from collections import Counter

        served: Counter = Counter()
        served_lock = threading.Lock()

        def note(kind, args):
            with served_lock:
                served[(kind, *args)] += 1

        def echo(ctx, args):
            note("echo", args)
            return list(args)

        def boom(ctx, args):
            note("boom", args)
            raise ValueError(f"boom {args[0]}/{args[1]}")

        server = RPCServer()
        server.register("echo", echo)
        server.register("boom", boom)
        transport = TCPServerTransport(server, "127.0.0.1", 0)
        client = RPCClient(connect_tcp(transport.host, transport.port))
        sent: Counter = Counter()
        failures: list = []

        def expect_boom(thunk, tid, seq):
            try:
                thunk()
            except RemoteError as exc:
                assert exc.error_type == "ValueError"
                assert exc.remote_message == f"boom {tid}/{seq}"
            else:
                raise AssertionError(f"boom {tid}/{seq} did not raise")

        def worker(tid: int) -> None:
            rng = random.Random(0xD15 + tid)
            mine: Counter = Counter()
            seq = 0
            try:
                for _ in range(self.ROUNDS):
                    mode = rng.randrange(3)
                    if mode == 0:
                        seq += 1
                        mine[("echo", tid, seq)] += 1
                        assert client.call("echo", tid, seq) == [tid, seq]
                    elif mode == 1:
                        seq += 1
                        mine[("boom", tid, seq)] += 1
                        expect_boom(
                            lambda: client.call("boom", tid, seq), tid, seq
                        )
                    else:
                        burst = []
                        for _ in range(rng.randrange(2, 12)):
                            seq += 1
                            method = "boom" if rng.random() < 0.2 else "echo"
                            mine[(method, tid, seq)] += 1
                            burst.append(
                                (method, seq, client.call_async(method, tid, seq))
                            )
                        client.drain()
                        for method, n, pending in burst:
                            assert pending.done
                            if method == "echo":
                                # A failing neighbour poisons nothing.
                                assert pending.result() == [tid, n]
                            else:
                                expect_boom(pending.result, tid, n)
            except BaseException as exc:
                failures.append((tid, exc))
            finally:
                with served_lock:
                    sent.update(mine)

        threads = [
            threading.Thread(target=worker, args=(t,), name=f"stress-{t}")
            for t in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=WAIT)
            stuck = [t.name for t in threads if t.is_alive()]
        finally:
            sys.setswitchinterval(interval)
            client.close()
            transport.close()
        assert not stuck, f"threads still waiting after {WAIT}s: {stuck}"
        assert not failures, failures
        # Every request reached its handler exactly once.
        assert served == sent
        assert sum(sent.values()) >= self.THREADS * self.ROUNDS


class TestProtocolErrorResponses:
    def test_malformed_frame_gets_typed_error_then_close(self, tcp_server):
        _, transport, registry = tcp_server
        with raw_connect(transport) as sock:
            assert recv_message(sock).ok
            send_frame(sock, b"\xffgarbage")
            reply = recv_message(sock)
            assert isinstance(reply, Response) and not reply.ok
            assert reply.error_type == "ProtocolError"
            # The server closes the conversation after answering.
            assert sock.recv(1) == b""
        assert (
            registry.counter("net.protocol_errors", transport="tcp").value
            >= 1
        )

    def test_client_raises_typed_error_not_retryable(self, tcp_server):
        # The server's id-less ProtocolError response cannot be matched to
        # a pending request, so the reader surfaces it as a RemoteError
        # carrying the remote type — which the retry layer treats as
        # fatal, so a possibly-completed mutation is never blindly
        # re-sent over a conversation the server gave up on.
        _, transport, _ = tcp_server
        channel = connect_tcp(transport.host, transport.port)
        try:
            with pytest.raises(RemoteError) as err:
                # Batch items must be requests; a response inside the
                # batch is a protocol violation the server rejects.
                channel._io.send_message(
                    channel._sock,
                    Batch((Response.success(1, id=9),)),
                )
                message = message_from_bytes(
                    channel._io.recv_frame(channel._sock)
                )
                channel._dispatch(message)
            assert err.value.error_type == "ProtocolError"
            assert not is_retryable(err.value)
            assert not is_retryable(ProtocolError("local decode failure"))
        finally:
            channel.close()

    def test_connection_failure_reaches_only_calls_in_flight(
        self, tcp_server
    ):
        # A reply the server cannot encode escapes its handler: it answers
        # without a correlation id and hangs up.  The call in flight gets
        # that answer; later calls never leave, so they fail with a
        # retryable TransportClosedError and a retrying client re-dials.
        server, transport, _ = tcp_server
        server.register("unencodable", lambda ctx, args: object())

        def dial():
            return connect_tcp(transport.host, transport.port)

        client = RPCClient(dial(), retry=_EAGER, reconnect=dial)
        channel = client.channel
        try:
            with pytest.raises(RemoteError) as err:
                client.call("unencodable")
            assert err.value.error_type == "TypeError"
            assert channel.broken
            with pytest.raises(TransportClosedError) as closed:
                channel.request(Request("echo", (1,)))
            assert closed.value.__cause__ is err.value
            assert client.call("echo", "again") == "again"
            assert client.channel is not channel and client.retries == 1
        finally:
            client.close()

    def test_server_survives_malformed_frames(self, tcp_server):
        _, transport, _ = tcp_server
        for _ in range(5):
            with raw_connect(transport) as sock:
                recv_message(sock)
                send_frame(sock, b"\x00" * 7)
                recv_message(sock)
        # Fresh connections still serve.
        with RPCClient(connect_tcp(transport.host, transport.port)) as client:
            assert client.call("echo", "alive") == "alive"


class TestUnknownMethodLabel:
    def test_unknown_method_uses_bounded_label(self):
        registry = MetricsRegistry()
        server = make_server(metrics=registry)
        ctx = server.handshake(Hello(), "test")
        hostile = "method-" + "x" * 200
        resp = server.handle(ctx, Request(hostile, ()))
        assert not resp.ok and resp.error_type == "NoSuchMethodError"
        assert hostile in resp.error_message
        assert (
            registry.counter(
                "rpc.errors", method=UNKNOWN_METHOD_LABEL
            ).value
            == 1
        )
        # The hostile name must not have minted a metric label.
        assert all(
            hostile not in key
            for key in registry.snapshot().counters
            if key.startswith("rpc.errors")
        )

    def test_label_cardinality_stays_bounded(self):
        registry = MetricsRegistry()
        server = make_server(metrics=registry)
        ctx = server.handshake(Hello(), "test")
        for i in range(100):
            server.handle(ctx, Request(f"no-such-{i}", ()))
        error_series = [
            key
            for key in registry.snapshot().counters
            if key.startswith("rpc.errors")
        ]
        assert len(error_series) == 1
        assert (
            registry.counter(
                "rpc.errors", method=UNKNOWN_METHOD_LABEL
            ).value
            == 100
        )


class _FlakyChannel:
    """Channel whose first ``fail_first`` requests raise a retryable
    transport error; thereafter it answers."""

    def __init__(self, fail_first: int) -> None:
        self._lock = threading.Lock()
        self.failures_left = fail_first
        self.requests_seen = 0
        self.closed = False

    def request(self, request: Request) -> Response:
        with self._lock:
            self.requests_seen += 1
            if self.failures_left > 0:
                self.failures_left -= 1
                raise TransportClosedError("injected failure")
        return Response.success(list(request.args))

    def flush(self) -> None:
        pass

    def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


class TestRetryAccounting:
    def test_reconnect_swaps_channel_under_lock(self):
        good = _FlakyChannel(fail_first=0)
        bad = _FlakyChannel(fail_first=10_000)
        client = RPCClient(
            bad,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
            reconnect=lambda: good,
            sleep=lambda _s: None,
        )
        assert client.call("echo", 1) == [1]
        assert client.channel is good
        assert bad.closed  # the dead channel was closed, not leaked
        assert client.retries == 1

    def test_concurrent_retries_account_exactly(self):
        # Two threads each hit one transport failure; lifetime retries
        # must equal the number of failed attempts, not lose increments
        # to a read-modify-write race.
        flaky = _FlakyChannel(fail_first=2)
        client = RPCClient(
            flaky,
            retry=RetryPolicy(max_attempts=5, backoff_base=0.0, jitter=0.0),
            sleep=lambda _s: None,
        )
        barrier = threading.Barrier(2)
        outcomes: list = []

        def worker() -> None:
            barrier.wait()
            outcomes.append(client.call("echo", "ok"))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes == [["ok"], ["ok"]]
        assert client.retries == 2

    def test_failed_reconnect_leaves_channel_for_next_attempt(self):
        flaky = _FlakyChannel(fail_first=1)
        attempts: list[int] = []

        def dial():
            attempts.append(1)
            raise OSError("dial failed")

        client = RPCClient(
            flaky,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
            reconnect=dial,
            sleep=lambda _s: None,
        )
        # Reconnect fails, but the original (now healthy) channel answers
        # on the next attempt instead of the client deadlocking or
        # dropping the call.
        assert client.call("echo", 7) == [7]
        assert attempts == [1]
        assert client.retries == 1

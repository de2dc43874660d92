"""RPC server/client tests: messages, dispatch, error mapping, transports."""

import dataclasses
import pickle
import threading
from typing import Any

import pytest

from repro.net.errors import (
    AuthenticationError,
    RemoteError,
    TransportClosedError,
)
from repro.net.messages import Hello, Request, Response, message_from_bytes
from repro.net.rpc import RPCClient, RPCServer, register_error_type
from repro.net.transport import (
    LocalTransport,
    TCPServerTransport,
    connect_local,
    connect_tcp,
)
from repro.obs.metrics import MetricsRegistry


class TestMessages:
    def test_request_roundtrip(self):
        req = Request("lrc_add", ("lfn", "pfn"))
        assert message_from_bytes(req.to_bytes()) == req

    def test_response_success_roundtrip(self):
        resp = Response.success([1, 2])
        assert message_from_bytes(resp.to_bytes()) == resp

    def test_response_failure_carries_type(self):
        resp = Response.failure(ValueError("bad"))
        decoded = message_from_bytes(resp.to_bytes())
        assert not decoded.ok
        assert decoded.error_type == "ValueError"
        assert decoded.error_message == "bad"

    def test_hello_roundtrip(self):
        hello = Hello(credential=b"cert", attributes={"v": 1})
        decoded = message_from_bytes(hello.to_bytes())
        assert decoded.credential == b"cert" and decoded.attributes == {"v": 1}

    def test_request_and_response_keep_the_frozen_dataclass_contract(self):
        """They were ``@dataclass(frozen=True)``; they are named tuples for
        speed and must read, compare, hash and refuse assignment alike."""

        @dataclasses.dataclass(frozen=True)
        class Request_:
            method: str
            args: tuple = ()
            trace: Any = None
            id: Any = None

        @dataclasses.dataclass(frozen=True)
        class Response_:
            ok: bool
            value: Any = None
            error_type: str = ""
            error_message: str = ""
            id: Any = None

        for cls, twin, fields in (
            (Request, Request_, ("q", ("lfn", 7), ("t1", "s1"), 9)),
            (Request, Request_, ("q",)),
            (Response, Response_, (True, (1, 2), "", "", 3)),
            (Response, Response_, (False, None, "ValueError", "bad")),
        ):
            message, reference = cls(*fields), twin(*fields)
            assert repr(message) == repr(reference).replace(twin.__qualname__, cls.__name__)
            assert hash(message) == hash(reference)
            assert message == cls(*fields) and not message != cls(*fields)
            assert message != cls(*fields[:-1], "other") and message != fields
            assert message != reference and {message: 1}[cls(*fields)] == 1
            assert pickle.loads(pickle.dumps(message)) == message
            name = dataclasses.fields(reference)[0].name
            for change in (
                lambda: setattr(message, name, "x"),
                lambda: delattr(message, name),
                lambda: setattr(message, "brand_new", 1),
            ):
                with pytest.raises(AttributeError):  # FrozenInstanceError is one
                    change()
            assert getattr(message, name) == fields[0]
        assert Request("q", id=4) == Request(method="q", args=(), trace=None, id=4)
        assert Response.success(1, id=2) == Response(True, 1, "", "", 2)


def make_server(metrics=None):
    server = RPCServer(metrics=metrics)
    server.register("echo", lambda ctx, args: list(args))
    server.register("boom", lambda ctx, args: 1 / 0)
    server.register("peer", lambda ctx, args: ctx.peer)
    return server


class TestDispatch:
    def test_success(self):
        server = make_server()
        ctx = server.handshake(Hello(), "test")
        resp = server.handle(ctx, Request("echo", (1, "a")))
        assert resp.ok and resp.value == [1, "a"]

    def test_unknown_method(self):
        server = make_server()
        ctx = server.handshake(Hello(), "test")
        resp = server.handle(ctx, Request("nope", ()))
        assert not resp.ok and resp.error_type == "NoSuchMethodError"

    def test_handler_exception_propagated(self):
        server = make_server()
        ctx = server.handshake(Hello(), "test")
        resp = server.handle(ctx, Request("boom", ()))
        assert not resp.ok and resp.error_type == "ZeroDivisionError"

    def test_counters(self):
        # The totals are the rpc.requests / rpc.errors counters summed
        # (unknown methods included), not a second set of tallies.
        server = make_server(metrics=MetricsRegistry())
        ctx = server.handshake(Hello(), "test")
        server.handle(ctx, Request("echo", ()))
        server.handle(ctx, Request("boom", ()))
        server.handle(ctx, Request("nope", ()))
        assert server.requests_served == 1 and server.errors_returned == 2

    def test_methods_listed(self):
        assert "echo" in make_server().methods()


class TestLocalTransport:
    def test_call_roundtrip(self):
        server = make_server()
        transport = LocalTransport(server, name="rpc-test-local")
        try:
            client = RPCClient(connect_local("rpc-test-local"))
            assert client.call("echo", 42) == [42]
        finally:
            transport.close()

    def test_unknown_endpoint(self):
        with pytest.raises(TransportClosedError):
            connect_local("does-not-exist")

    def test_closed_endpoint_rejects_new_channels(self):
        transport = LocalTransport(make_server(), name="rpc-closing")
        transport.close()
        with pytest.raises(TransportClosedError):
            connect_local("rpc-closing")

    def test_remote_error_raised(self):
        transport = LocalTransport(make_server(), name="rpc-err")
        try:
            client = RPCClient(connect_local("rpc-err"))
            with pytest.raises(RemoteError) as err:
                client.call("boom")
            assert err.value.error_type == "ZeroDivisionError"
        finally:
            transport.close()

    def test_registered_error_type_reraised(self):
        @register_error_type
        class CustomTestError(Exception):
            pass

        server = RPCServer()
        server.register(
            "fail", lambda ctx, args: (_ for _ in ()).throw(CustomTestError("x"))
        )
        transport = LocalTransport(server, name="rpc-custom-err")
        try:
            client = RPCClient(connect_local("rpc-custom-err"))
            with pytest.raises(CustomTestError):
                client.call("fail")
        finally:
            transport.close()

    def test_latency_injection(self):
        slept = []
        server = make_server()
        transport = LocalTransport(server, name="rpc-latency")
        try:
            channel = transport.open_channel(latency=0.05, sleep=slept.append)
            RPCClient(channel).call("echo")
            assert slept == [0.05]
        finally:
            transport.close()


class TestTCPTransport:
    def test_call_over_real_socket(self):
        server = make_server()
        tcp = TCPServerTransport(server)
        try:
            client = RPCClient(connect_tcp(tcp.host, tcp.port))
            assert client.call("echo", "x") == ["x"]
            assert client.call("peer").startswith("127.0.0.1:")
            client.close()
        finally:
            tcp.close()

    def test_concurrent_clients(self):
        server = make_server()
        tcp = TCPServerTransport(server)
        results = []

        def worker(i):
            client = RPCClient(connect_tcp(tcp.host, tcp.port))
            for j in range(20):
                results.append(client.call("echo", i, j))
            client.close()

        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 80
        finally:
            tcp.close()

    def test_auth_failure_closes_connection(self):
        def reject(hello, peer):
            raise AuthenticationError("nope")

        server = RPCServer(authenticator=reject)
        tcp = TCPServerTransport(server)
        try:
            with pytest.raises(RemoteError):
                connect_tcp(tcp.host, tcp.port)
        finally:
            tcp.close()

    def test_large_payload(self):
        """A 1.25 MB Bloom-filter-sized payload crosses the socket intact."""
        server = make_server()
        tcp = TCPServerTransport(server)
        try:
            client = RPCClient(connect_tcp(tcp.host, tcp.port))
            blob = bytes(range(256)) * 5000  # 1.28 MB
            assert client.call("echo", blob) == [blob]
            client.close()
        finally:
            tcp.close()


class TestTCPLifecycle:
    def test_close_joins_handler_threads(self):
        server = make_server()
        tcp = TCPServerTransport(server)
        clients = [RPCClient(connect_tcp(tcp.host, tcp.port)) for _ in range(4)]
        for i, client in enumerate(clients):
            assert client.call("echo", i) == [i]
        handler_threads = list(tcp._threads)
        assert len(handler_threads) == 4
        tcp.close()
        # close() must reap every handler thread, even for connections
        # whose clients never said goodbye.
        assert all(not t.is_alive() for t in handler_threads)
        assert not tcp._accept_thread.is_alive()
        assert tcp._threads == []
        assert tcp._conns == set()
        for client in clients:
            client.close()

    def test_thread_list_reaped_under_connection_churn(self):
        server = make_server()
        tcp = TCPServerTransport(server)
        try:
            for i in range(30):
                client = RPCClient(connect_tcp(tcp.host, tcp.port))
                client.call("echo", i)
                client.close()
            # Give the handler threads a moment to notice the closes.
            deadline = 5.0
            import time

            start = time.monotonic()
            while (
                sum(t.is_alive() for t in tcp._threads) > 1
                and time.monotonic() - start < deadline
            ):
                time.sleep(0.01)
            # One more accept reaps the dead entries from the list.
            probe = RPCClient(connect_tcp(tcp.host, tcp.port))
            probe.call("echo", "probe")
            assert len(tcp._threads) < 30
            probe.close()
        finally:
            tcp.close()

    def test_close_while_clients_are_connecting_leaks_no_thread(self):
        # close() snapshots the handler-thread list under the connection
        # lock; a handler registered or started outside that lock can be
        # missed by the snapshot and outlive close().  Lingering after
        # each release of the lock holds that window open.
        import sys
        import time

        class LingeringLock:
            def __init__(self, lock):
                self._lock = lock

            def __enter__(self):
                return self._lock.__enter__()

            def __exit__(self, *exc):
                self._lock.__exit__(*exc)
                time.sleep(0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(25):
                tcp = TCPServerTransport(make_server())
                tcp._conns_lock = LingeringLock(tcp._conns_lock)
                stop = threading.Event()

                def dial() -> None:
                    while not stop.is_set():
                        try:
                            connect_tcp(tcp.host, tcp.port, timeout=2.0).close()
                        except Exception:
                            pass  # refused or cut off mid-handshake: expected

                dialers = [threading.Thread(target=dial) for _ in range(4)]
                for t in dialers:
                    t.start()
                try:
                    tcp.close()
                    leaked = [
                        t.name
                        for t in threading.enumerate()
                        if t.name.startswith(("rls-conn-", "rls-accept-"))
                    ]
                finally:
                    stop.set()
                    for t in dialers:
                        t.join(timeout=10.0)
                assert not any(t.is_alive() for t in dialers)
                assert leaked == []
        finally:
            sys.setswitchinterval(interval)

    def test_calls_after_close_fail_cleanly(self):
        server = make_server()
        tcp = TCPServerTransport(server)
        client = RPCClient(connect_tcp(tcp.host, tcp.port))
        assert client.call("echo", 1) == [1]
        tcp.close()
        with pytest.raises((TransportClosedError, ConnectionError, OSError)):
            client.call("echo", 2)


class TestPrincipalAccounting:
    """Declared principal negotiation + per-request cost attribution."""

    def test_hello_principal_attribute(self):
        hello = Hello(attributes={"principal": "cms-prod"})
        decoded = message_from_bytes(hello.to_bytes())
        assert decoded.principal == "cms-prod"
        assert Hello().principal is None

    def test_non_string_principal_is_protocol_error(self):
        from repro.net.errors import ProtocolError

        hello = Hello(attributes={"principal": 42})
        with pytest.raises(ProtocolError):
            message_from_bytes(hello.to_bytes())

    def test_handshake_binds_declared_principal(self):
        server = make_server()
        ctx = server.handshake(
            Hello(attributes={"principal": "cms-prod"}), "test"
        )
        assert ctx.usage_principal == "cms-prod"
        assert ctx.principal is None  # declared label is not an identity

    def test_handshake_without_principal_is_anonymous(self):
        server = make_server()
        ctx = server.handshake(Hello(), "test")
        assert ctx.usage_principal == "anonymous"

    def test_handle_charges_the_connection_principal(self):
        from repro.obs.usage import UsageAccountant

        usage = UsageAccountant()
        server = RPCServer(observers=[usage])
        server.register("lrc_get_mappings", lambda ctx, args: [], op_class="query")
        server.register("boom", lambda ctx, args: 1 / 0)
        ctx = server.handshake(
            Hello(attributes={"principal": "cms-prod"}), "test"
        )
        server.handle(ctx, Request("lrc_get_mappings", ("/cms/data/f1",)))
        server.handle(ctx, Request("boom", ()))
        payload = usage.to_dict()
        query = payload["principals"]["cms-prod"]["query"]
        assert query["requests"] == 1
        assert query["wall_time"] > 0
        # The failing unclassified call lands in class "other" with an error.
        other = payload["principals"]["cms-prod"]["other"]
        assert other["requests"] == 1 and other["errors"] == 1
        assert payload["top_principals"][0]["principal"] == "cms-prod"
        assert payload["top_prefixes"][0]["prefix"] == "/cms/data"

    def test_principal_mapper_overrides_declared_label(self):
        from repro.obs.usage import UsageAccountant

        server = RPCServer(
            observers=[UsageAccountant()],
            principal_mapper=lambda dn, declared: "mapped",
        )
        ctx = server.handshake(
            Hello(attributes={"principal": "spoofed"}), "test"
        )
        assert ctx.usage_principal == "mapped"

    def test_metric_label_cardinality_is_bounded(self):
        # Mirrors the bounded `<unknown>` rpc.errors label: a flood of
        # distinct client-declared principals must not mint unbounded
        # metric label sets.
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.usage import UsageAccountant

        registry = MetricsRegistry()
        usage = UsageAccountant(metrics=registry, max_principals=2)
        server = RPCServer(metrics=registry, observers=[usage])
        server.register("echo", lambda ctx, args: list(args))
        for i in range(10):
            ctx = server.handshake(
                Hello(attributes={"principal": f"tenant-{i}"}), "test"
            )
            server.handle(ctx, Request("echo", ()))
        keys = [
            key
            for key in registry.snapshot().counters
            if key.startswith("usage.requests")
        ]
        assert len(keys) == 3  # 2 exact labels + <other>
        assert any("<other>" in key for key in keys)

"""Failure-injection tests: dead servers, torn frames, oversized payloads,
hierarchy daemons surviving flaky parents."""

import socket
import struct
import threading
import time

import pytest

from repro.core.client import connect, connect_tcp_server
from repro.core.config import ServerConfig, ServerRole
from repro.core.hierarchy import HierarchicalUpdater
from repro.core.membership import resolve_sink
from repro.core.server import RLSServer
from repro.net.errors import ProtocolError, TransportClosedError
from repro.net.messages import Hello, Request
from repro.net.rpc import RPCServer
from repro.net.transport import TCPServerTransport, connect_tcp


class TestDeadServer:
    def test_call_after_server_stop_raises(self, make_server):
        server = make_server(ServerRole.BOTH)
        client = connect(server.config.name)
        client.create("x", "p")
        server.stop()
        with pytest.raises(TransportClosedError):
            client.get_mappings("x")

    def test_tcp_peer_disappears(self):
        server = RLSServer(
            ServerConfig(name="dying-tcp", role=ServerRole.BOTH, tcp=True,
                         sync_latency=0.0)
        ).start()
        host, port = server.tcp_address
        client = connect_tcp_server(host, port)
        client.create("x", "p")
        server.stop()
        with pytest.raises((TransportClosedError, OSError)):
            for _ in range(5):  # the close may race the next read
                client.get_mappings("x")
                time.sleep(0.05)

    def test_update_to_dead_rli_fails_but_lrc_survives(self, make_server):
        rli = make_server(ServerRole.RLI)
        lrc = make_server(ServerRole.LRC)
        client = connect(lrc.config.name)
        client.create("x", "p")
        client.add_rli(rli.config.name)
        rli.stop()
        with pytest.raises(Exception):
            client.trigger_full_update()
        # The LRC itself still answers.
        assert client.get_mappings("x") == ["p"]
        client.close()


class TestMalformedWire:
    def test_garbage_frame_closes_connection_not_server(self):
        rpc = RPCServer()
        rpc.register("echo", lambda ctx, args: list(args))
        tcp = TCPServerTransport(rpc)
        try:
            # Send a garbage frame by hand.
            sock = socket.create_connection((tcp.host, tcp.port), timeout=5)
            sock.sendall(struct.pack("<I", 5) + b"junk!")
            sock.close()
            # Server still serves well-formed clients.
            channel = connect_tcp(tcp.host, tcp.port)
            response = channel.request(Request("echo", (1,)))
            assert response.ok and response.value == [1]
            channel.close()
        finally:
            tcp.close()

    def test_oversized_frame_rejected(self):
        rpc = RPCServer()
        rpc.register("echo", lambda ctx, args: list(args))
        tcp = TCPServerTransport(rpc)
        try:
            sock = socket.create_connection((tcp.host, tcp.port), timeout=5)
            # Claim a frame bigger than the 256 MiB limit as the handshake.
            sock.sendall(struct.pack("<I", 1 << 31))
            time.sleep(0.1)  # let the server reject and drop us
            sock.close()
            # The listener and other connections stay healthy.
            channel = connect_tcp(tcp.host, tcp.port)
            assert channel.request(Request("echo", (7,))).value == [7]
            channel.close()
        finally:
            tcp.close()

    def test_truncated_handshake(self):
        rpc = RPCServer()
        tcp = TCPServerTransport(rpc)
        try:
            sock = socket.create_connection((tcp.host, tcp.port), timeout=5)
            sock.sendall(struct.pack("<I", 100))  # promise 100 bytes
            sock.sendall(b"short")  # deliver 5, then hang up
            sock.close()
            # Server must remain healthy.
            channel = connect_tcp(tcp.host, tcp.port)
            channel.close()
        finally:
            tcp.close()


class TestHierarchyResilience:
    def test_hierarchy_thread_forwards_and_survives_parent_flaps(self, make_server):
        parent = make_server(ServerRole.RLI)
        child = make_server(ServerRole.RLI)
        child.rli.apply_full_update("leaf-lrc", ["flap-lfn"])

        calls = {"fail": True}

        def flaky_resolver(name):
            if calls["fail"]:
                calls["fail"] = False
                raise ConnectionError("parent briefly unreachable")
            return resolve_sink(name)

        updater = HierarchicalUpdater(
            child.rli, flaky_resolver, parents=[parent.config.name]
        )
        thread = updater.task(interval=0.03)
        thread.start()
        try:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                try:
                    if parent.rli.query("flap-lfn") == ["leaf-lrc"]:
                        break
                except Exception:
                    time.sleep(0.02)
            else:
                pytest.fail("hierarchy thread never recovered")
        finally:
            thread.stop()

    def test_forwarded_state_expires_without_refresh(self, make_server):
        """Parent treats forwarded entries as soft state too."""
        parent = make_server(ServerRole.RLI, rli_timeout=0.1)
        child = make_server(ServerRole.RLI)
        child.rli.apply_full_update("leaf", ["ttl-lfn"])
        HierarchicalUpdater(
            child.rli, resolve_sink, parents=[parent.config.name]
        ).forward_once()
        assert parent.rli.query("ttl-lfn") == ["leaf"]
        time.sleep(0.15)
        assert parent.rli.expire_once() >= 1


class TestConcurrentChannelUse:
    def test_tcp_channel_is_thread_safe(self):
        """One TCP channel shared by many threads must serialize correctly."""
        rpc = RPCServer()
        rpc.register("echo", lambda ctx, args: list(args))
        tcp = TCPServerTransport(rpc)
        try:
            channel = connect_tcp(tcp.host, tcp.port)
            errors = []

            def worker(tid):
                for i in range(50):
                    response = channel.request(Request("echo", (tid, i)))
                    if response.value != [tid, i]:
                        errors.append((tid, i, response.value))

            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            channel.close()
        finally:
            tcp.close()

"""End-to-end profiler and flight-recorder surfaces: RPC, HTTP, CLI.

Covers the acceptance criteria for the observability PR: the
profile/threads/flight admin RPCs and their graceful-degradation
payloads, flight-event capture at the instrumentation sites (RPC
dispatch, update delivery, WAL flush), the automatic error dump with
span correlation, the HTTP gateway routes, and ``rls profile`` run
against a live TCP server under load.
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.core.client import connect, connect_tcp_server
from repro.core.config import ServerConfig, ServerRole
from repro.core.lrc import LocalReplicaCatalog
from repro.core.server import RLSServer
from repro.core.updates import UpdateManager, UpdatePolicy
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.net.http_gateway import HTTPGateway
from repro.core.errors import MappingNotFoundError
from repro.net.retry import RetryPolicy
from repro.obs.flight import FlightRecorder
from repro.obs.tracing import SpanSink, Tracer, install_tracer
from repro.testing import FailureSchedule, FlakySink
from repro.testing.faults import NullSink


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def http_get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read().decode())


@pytest.fixture
def traced():
    sink = SpanSink(latency_threshold=0.0)
    install_tracer(Tracer(sink=sink))
    yield sink
    install_tracer(None)


class TestAdminProfile:
    def test_disabled_by_default(self, make_server):
        server = make_server(ServerRole.BOTH)
        client = connect(server.config.name)
        try:
            payload = client.profile()
        finally:
            client.close()
        assert payload["enabled"] is False
        assert payload["hz"] == 0

    def test_cli_hints_when_disabled(self, make_server):
        server = make_server(ServerRole.BOTH)
        code, out = run_cli("profile", server.config.name)
        assert code == 1
        assert "profile_hz" in out

    def test_enabled_profiler_accumulates_samples(self, make_server):
        server = make_server(ServerRole.BOTH, profile_hz=500.0).start()
        client = connect(server.config.name)
        try:
            deadline = time.time() + 10.0
            payload = client.profile()
            while payload["samples"] == 0 and time.time() < deadline:
                time.sleep(0.01)
                payload = client.profile()
        finally:
            client.close()
        assert payload["enabled"] is True
        assert payload["hz"] == 500.0
        assert payload["samples"] > 0
        assert payload["roles"]
        assert sum(payload["profile"]["stacks"].values()) == payload["samples"]

    def test_admin_threads_payload(self, make_server):
        server = make_server(ServerRole.BOTH, profile_hz=100.0).start()
        client = connect(server.config.name)
        try:
            payload = client.threads()
        finally:
            client.close()
        assert payload["enabled"] is True
        assert payload["threads"], "a live server has threads to dump"
        for entry in payload["threads"]:
            assert {"ident", "name", "role", "frames", "idle"} <= set(entry)
        assert payload["detections"] == []  # healthy server: nothing stuck


class TestAdminFlight:
    def test_rpc_events_recorded_by_default(self, make_server):
        server = make_server(ServerRole.BOTH)
        client = connect(server.config.name)
        try:
            client.create("fl-lfn", "fl-pfn")
            payload = client.flight()
        finally:
            client.close()
        assert payload["enabled"] is True
        kinds = {(e["kind"], e["detail"]) for e in payload["events"]}
        assert ("rpc.in", "lrc_create_mapping") in kinds
        assert ("rpc.out", "lrc_create_mapping") in kinds

    def test_wal_flush_events(self, make_server):
        server = make_server(ServerRole.LRC, flush_on_commit=True)
        client = connect(server.config.name)
        try:
            client.create("wal-lfn", "wal-pfn")
            payload = client.flight()
        finally:
            client.close()
        flushes = [e for e in payload["events"] if e["kind"] == "wal.flush"]
        assert flushes
        assert flushes[-1]["data"]["buffered"] >= 1

    def test_induced_error_dumps_with_failing_span_id(
        self, make_server, traced
    ):
        """Acceptance criterion: an unhandled server error produces a dump
        retrievable via ``admin_flight`` whose error event carries the
        failing request's span id."""
        server = make_server(ServerRole.BOTH)
        client = connect(server.config.name)
        try:
            client.create("ok-lfn", "ok-pfn")
            with pytest.raises(MappingNotFoundError):
                client.get_mappings("missing-lfn")
            payload = client.flight()
        finally:
            client.close()

        errors = [e for e in payload["events"] if e["error"]]
        assert errors, "failed RPC left no flight error event"
        error = errors[-1]
        assert error["kind"] == "error"
        assert "lrc_get_mappings" in error["detail"]
        assert "MappingNotFoundError" in error["detail"]

        dump = payload["last_dump"]
        assert dump is not None
        assert "lrc_get_mappings" in dump["reason"]
        # The frozen window includes the healthy traffic before the error.
        dumped = {(e["kind"], e["detail"]) for e in dump["events"]}
        assert ("rpc.in", "lrc_create_mapping") in dumped

        # Span correlation: the error event's span is the failing
        # rpc.handle span the tracer retained.
        failing = [
            s
            for s in traced.interesting()
            if s.name == "rpc.handle" and s.error == "MappingNotFoundError"
        ]
        assert failing
        assert error["span_id"] == failing[-1].span_id
        assert error["trace_id"] == failing[-1].trace_id

    def test_disabled_with_zero_capacity(self, make_server):
        server = make_server(ServerRole.BOTH, flight_capacity=0)
        client = connect(server.config.name)
        try:
            client.create("nf-lfn", "nf-pfn")
            payload = client.flight()
        finally:
            client.close()
        assert payload == {
            "enabled": False, "stats": {}, "events": [], "last_dump": None
        }
        code, out = run_cli("flight", server.config.name)
        assert code == 1
        assert "flight_capacity" in out

    def test_limit_keeps_newest_events(self, make_server):
        server = make_server(ServerRole.BOTH)
        client = connect(server.config.name)
        try:
            for i in range(10):
                client.ping()
            payload = client.flight(limit=4)
        finally:
            client.close()
        assert len(payload["events"]) == 4
        seqs = [e["seq"] for e in payload["events"]]
        assert seqs == sorted(seqs)


def make_flight_manager(fail_pattern=None):
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    lrc = LocalReplicaCatalog(Connection(engine, "flmgr"), name="flmgr")
    lrc.init_schema()
    lrc.add_rli("rli1")
    sink = (
        FlakySink(NullSink(), FailureSchedule.pattern(fail_pattern))
        if fail_pattern
        else NullSink()
    )
    flight = FlightRecorder(capacity=64)
    clock_state = {"now": 0.0}
    manager = UpdateManager(
        lrc,
        lambda name: sink,
        policy=UpdatePolicy(
            retry=RetryPolicy(backoff_base=2.0, backoff_multiplier=2.0)
        ),
        clock=lambda: clock_state["now"],
        rng=lambda: 0.5,
        flight=flight,
    )
    return lrc, manager, flight, clock_state


class TestUpdateFlightEvents:
    def test_successful_push_records_attempt(self):
        lrc, manager, flight, _ = make_flight_manager()
        lrc.create_mapping("a", "p")
        manager.send_incremental_update()
        attempts = [e for e in flight.events() if e.kind == "update.attempt"]
        assert attempts
        assert attempts[0].detail == "incremental->rli1"
        assert attempts[0].data == {"target": "rli1", "added": 1, "removed": 0}

    def test_failed_push_records_error(self):
        lrc, manager, flight, _ = make_flight_manager(fail_pattern="F.")
        lrc.create_mapping("a", "p")
        manager.send_incremental_update()
        errors = flight.errors()
        assert errors
        assert errors[0].detail == "update incremental->rli1: FaultInjected"
        assert errors[0].data["target"] == "rli1"

    def test_redelivery_records_retry(self):
        lrc, manager, flight, clock_state = make_flight_manager(
            fail_pattern="F."
        )
        lrc.create_mapping("a", "p")
        manager.send_incremental_update()  # fails, target backs off
        clock_state["now"] += 200.0
        assert manager.retry_failed_deliveries() == ["retry:rli1"]
        retries = [e for e in flight.events() if e.kind == "update.retry"]
        assert retries
        assert retries[0].detail == "rli1"
        assert retries[0].data["consecutive_failures"] >= 1

    def test_full_update_attempt_detail(self):
        lrc, manager, flight, _ = make_flight_manager()
        lrc.create_mapping("a", "p")
        manager.send_full_update()
        attempts = [e for e in flight.events() if e.kind == "update.attempt"]
        assert attempts[0].detail == "full->rli1"


class TestGatewayRoutes:
    @pytest.fixture
    def gateway(self, make_server):
        server = make_server(ServerRole.BOTH, profile_hz=100.0).start()
        gw = HTTPGateway(server.config.name)
        yield gw, server
        gw.close()

    def test_profile_route(self, gateway):
        gw, _ = gateway
        status, body = http_get(f"{gw.url}/admin/profile")
        assert status == 200
        assert body["enabled"] is True
        assert body["hz"] == 100.0
        assert "profile" in body and "roles" in body

    def test_threads_route(self, gateway):
        gw, _ = gateway
        status, body = http_get(f"{gw.url}/admin/threads")
        assert status == 200
        assert body["enabled"] is True
        assert body["threads"]

    def test_flight_route_with_limit(self, gateway):
        gw, _ = gateway
        for i in range(6):
            http_get(f"{gw.url}/admin/stats")
        status, body = http_get(f"{gw.url}/admin/flight?limit=3")
        assert status == 200
        assert body["enabled"] is True
        assert len(body["events"]) == 3
        assert all(e["kind"] in ("rpc.in", "rpc.out") for e in body["events"])


class TestCLIOverTCP:
    """Acceptance criterion: ``rls profile`` against a live TCP server
    shows ``rpc.handle`` frames in the folded output."""

    @pytest.fixture
    def tcp_server(self):
        # A small sync latency keeps each request inside the handler long
        # enough for the 200 Hz sampler to catch workers mid-dispatch.
        server = RLSServer(
            ServerConfig(
                name="pf-tcp-server",
                role=ServerRole.BOTH,
                tcp=True,
                sync_latency=0.002,
                flush_on_commit=True,
                profile_hz=200.0,
            )
        ).start()
        yield server
        server.stop()

    @pytest.fixture
    def tcp_load(self, tcp_server):
        stop = threading.Event()
        host, port = tcp_server.tcp_address

        def loop(tag):
            client = connect_tcp_server(host, port)
            i = 0
            try:
                while not stop.is_set():
                    client.create(f"tcp-load-{tag}-{i}", f"pfn-{i}")
                    i += 1
            finally:
                client.close()

        threads = [
            threading.Thread(target=loop, args=(t,), daemon=True)
            for t in range(2)
        ]
        for t in threads:
            t.start()
        yield stop
        stop.set()
        for t in threads:
            t.join(timeout=10)

    def wait_for_handle_samples(self, server, timeout=15.0, role=""):
        """Wait for a sample inside ``rpc.handle`` on a thread whose folded
        stack starts with ``role``."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            stacks = server.profiler.profile().stacks
            if any(f.startswith(role) and "rpc:handle" in f for f in stacks):
                return
            time.sleep(0.02)
        pytest.fail("sampler never caught a worker inside rpc.handle")

    def test_rls_profile_folded_shows_rpc_handle(self, tcp_server, tcp_load):
        # Most of a create's handler time is its device sync, which runs
        # under the ``wal.flush`` role: wait for a worker-rooted sample too.
        self.wait_for_handle_samples(tcp_server, role="rpc.worker;")
        host, port = tcp_server.tcp_address
        code, out = run_cli("profile", f"{host}:{port}", "--folded")
        assert code == 0
        handle_lines = [l for l in out.splitlines() if "rpc:handle" in l]
        assert handle_lines, out
        # Folded lines are "stack count" with the thread's role as prefix:
        # a worker's, or the WAL flush role a create's device sync runs under.
        stacks = []
        for line in handle_lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack.startswith(("rpc.worker;", "wal.flush;")), line
            stacks.append(stack)
        assert any(stack.startswith("rpc.worker;") for stack in stacks), out

    def test_rls_profile_summary_and_roles(self, tcp_server, tcp_load):
        self.wait_for_handle_samples(tcp_server)
        host, port = tcp_server.tcp_address
        code, out = run_cli("profile", f"{host}:{port}")
        assert code == 0
        assert out.startswith("profiler: 200 Hz")
        assert "samples by role:" in out
        assert "rpc.worker=" in out
        assert "hottest stacks:" in out

    def test_rls_profile_window_mode(self, tcp_server, tcp_load):
        self.wait_for_handle_samples(tcp_server)
        host, port = tcp_server.tcp_address
        code, out = run_cli(
            "profile", f"{host}:{port}", "--seconds", "0.3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["window_seconds"] == 0.3
        # Load ran through the window, so the delta is non-empty and
        # consistent with its own stacks.
        assert payload["samples"] > 0
        assert sum(payload["profile"]["stacks"].values()) == payload["samples"]

    def test_rls_threads_shows_worker_roles(self, tcp_server, tcp_load):
        self.wait_for_handle_samples(tcp_server)
        host, port = tcp_server.tcp_address
        code, out = run_cli("threads", f"{host}:{port}")
        assert code == 0
        assert "rpc.worker" in out
        # Under live load a worker can legitimately be pinned on one frame
        # for a few samples, so accept either verdict — only require the
        # detection section to render.
        assert "no stuck threads detected" in out or "DETECTION [" in out

    def test_rls_flight_shows_rpc_events(self, tcp_server, tcp_load):
        host, port = tcp_server.tcp_address
        deadline = time.time() + 10.0
        while time.time() < deadline and not tcp_server.flight.events():
            time.sleep(0.02)
        code, out = run_cli("flight", f"{host}:{port}", "--limit", "10")
        assert code == 0
        assert out.startswith("flight recorder:")
        assert "rpc.in" in out

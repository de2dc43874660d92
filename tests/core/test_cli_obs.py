"""Observability CLI surfaces: stats --watch, trace, top, admin_traces."""

from __future__ import annotations

import io
import json
import re
import threading

import pytest

from repro.cli import _poller, _top_lines, _top_round, main
from repro.core.client import connect
from repro.core.config import ServerRole
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanSink, Tracer, install_tracer


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def server_name(make_server):
    return make_server(ServerRole.BOTH).config.name


@pytest.fixture
def traced():
    """Process-wide tracer whose sink retains every span (threshold 0)."""
    sink = SpanSink(latency_threshold=0.0)
    install_tracer(Tracer(sink=sink))
    yield sink
    install_tracer(None)


@pytest.fixture
def traffic():
    """Background client loops generating load while a CLI command runs."""
    stop = threading.Event()
    threads: list[threading.Thread] = []

    def start(server_name: str, op: str = "create") -> None:
        def loop() -> None:
            client = connect(server_name)
            i = 0
            try:
                while not stop.is_set():
                    if op == "create":
                        client.create(f"load-{server_name}-{i}", f"pfn-{i}")
                    else:
                        client.ping()
                    i += 1
            finally:
                client.close()

        thread = threading.Thread(target=loop, daemon=True)
        threads.append(thread)
        thread.start()

    yield start
    stop.set()
    for thread in threads:
        thread.join(timeout=10)


class TestStatsWatch:
    def test_prints_per_interval_rates(self, server_name, traffic):
        traffic(server_name)
        code, out = run_cli(
            "stats", server_name, "--watch", "0.2", "--iterations", "2"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) == 2
        for line in lines:
            assert "ops/s=" in line and "errors/s=" in line
        # Load ran throughout, so the rate is positive and the busiest
        # method breakdown appears.
        rate = float(re.search(r"ops/s=([0-9.]+)", lines[-1]).group(1))
        assert rate > 0
        assert "top:" in lines[-1]


class TestTrace:
    def test_without_tracer_fails_with_hint(self, server_name):
        code, out = run_cli("trace", "--server", server_name)
        assert code == 1
        assert "rls serve --trace" in out

    def test_lists_retained_spans(self, server_name, traced):
        run_cli("create", "--server", server_name, "t-lfn", "t-pfn")
        run_cli("query", "--server", server_name, "t-lfn")
        code, out = run_cli("trace", "--server", server_name)
        assert code == 0
        assert out.startswith("span sink:")
        body = out.splitlines()[1:]
        assert body, out
        assert any("rpc.handle" in line for line in body)
        assert all("ms" in line for line in body)

    def test_json_payload(self, server_name, traced):
        run_cli("create", "--server", server_name, "j-lfn", "j-pfn")
        code, out = run_cli(
            "trace", "--server", server_name, "--json", "--limit", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["enabled"] is True
        assert 0 < len(payload["spans"]) <= 3
        assert payload["stats"]["retained"] > 0

    def test_handler_failures_are_tail_retained(self, server_name, make_server):
        """The dispatcher converts handler exceptions into error replies,
        so it must mark the span failed itself — otherwise error spans
        would never reach the sink's interesting buffer."""
        sink = SpanSink()  # default 50ms threshold: only errors retain
        install_tracer(Tracer(sink=sink))
        try:
            code, _ = run_cli("query", "--server", server_name, "absent-lfn")
        except Exception:
            pass
        finally:
            install_tracer(None)
        errors = [s for s in sink.interesting() if s.error]
        assert errors, "failed RPC left no retained error span"
        assert any(s.name == "rpc.handle" for s in errors)
        assert errors[0].error == "MappingNotFoundError"

    def test_traces_rpc_respects_limit(self, server_name, traced):
        client = connect(server_name)
        try:
            for i in range(5):
                client.create(f"rpc-{i}", "p")
            payload = client.traces(limit=2)
        finally:
            client.close()
        assert payload["enabled"] is True
        assert len(payload["spans"]) == 2


class TestServeTrace:
    def test_installs_and_uninstalls_tracer(self):
        assert not tracing.active()
        code, out = run_cli(
            "serve", "--name", "serve-trace-cli", "--run-seconds", "0.01",
            "--trace",
        )
        assert code == 0
        assert "tracing enabled" in out
        # The serve path must not leak the process-wide tracer.
        assert not tracing.active()


class TestTop:
    @staticmethod
    def one_second_apart(polls):
        """The polls, each reporting one second since its previous call, so
        a round's rates are its request counts."""
        return {
            name: (lambda poll=poll: poll()[:2] + (1.0,))
            for name, poll in polls.items()
        }

    @staticmethod
    def rates(lines):
        cluster = float(re.search(r"cluster ops/s=([0-9.]+)", lines[0]).group(1))
        nodes = [
            float(re.search(r"ops/s=\s*([0-9.]+)", line).group(1))
            for line in lines[1:]
            if "DOWN" not in line
        ]
        return cluster, nodes

    def test_cluster_rate_is_the_exact_sum_of_node_rates(self, make_server):
        """6 creates, 4 creates and 2 pings (each node also counts the
        priming admin_metrics call): the node figures are the request
        deltas and the cluster figure is their sum."""
        servers = [
            make_server(ServerRole.LRC),
            make_server(ServerRole.LRC),
            make_server(ServerRole.RLI),
        ]
        clients = [connect(s.config.name) for s in servers]
        try:
            polls = {
                s.config.name: _poller(c) for s, c in zip(servers, clients)
            }
            _top_round(polls)
            for i in range(6):
                clients[0].create(f"a{i}", "p")
            for i in range(4):
                clients[1].create(f"b{i}", "p")
            for _ in range(2):
                clients[2].ping()
            lines = _top_lines(1, _top_round(self.one_second_apart(polls)))
        finally:
            for client in clients:
                client.close()
        assert "nodes up 3/3" in lines[0]
        assert self.rates(lines) == (15.0, [7.0, 5.0, 3.0])

    def test_a_node_that_stops_between_rounds_is_down(self, make_server):
        servers = [make_server(ServerRole.LRC) for _ in range(3)]
        clients = [connect(s.config.name) for s in servers]
        try:
            polls = {
                s.config.name: _poller(c) for s, c in zip(servers, clients)
            }
            _top_round(polls)
            clients[0].create("a", "p")
            clients[2].ping()
            servers[1].stop()
            lines = _top_lines(1, _top_round(self.one_second_apart(polls)))
        finally:
            for client in clients:
                client.close()
        assert "nodes up 2/3" in lines[0]
        assert servers[1].config.name in lines[2] and "DOWN (" in lines[2]
        assert self.rates(lines) == (4.0, [2.0, 2.0])

    def test_queue_depths_sum_and_staleness_takes_the_max(self):
        class Node:
            def __init__(self, gauges):
                self.registry = MetricsRegistry()
                for (name, label), value in gauges.items():
                    self.registry.gauge(name, db=label).set(value)

            def metrics(self):
                return self.registry.snapshot().to_dict()

        nodes = {
            "a": Node({
                ("wal.queue_depth", "x"): 5.0,
                ("wal.queue_depth", "y"): 7.0,
                ("rli.staleness_age", "x"): 3.0,
                ("rli.staleness_age", "y"): 9.0,
            }),
            "b": Node({
                ("wal.queue_depth", "x"): 5.0,
                ("rli.staleness_age", "x"): 4.0,
            }),
        }
        polls = {name: _poller(node) for name, node in nodes.items()}
        lines = _top_lines(1, _top_round(polls))
        assert "wal queue=17  staleness=9.0s" in lines[0]
        assert lines[1].endswith("staleness=9.0s  wal_queue=12")
        assert lines[2].endswith("staleness=4.0s  wal_queue=5")

    def test_the_priming_call_yields_no_rate(self):
        registry = MetricsRegistry()
        registry.counter("rpc.requests", method="ping").inc(10)

        class Node:
            def metrics(self):
                return registry.snapshot().to_dict()

        poll = _poller(Node())
        snapshot, delta, seconds = poll()
        assert delta is None and seconds == 0.0
        assert snapshot.counters["rpc.requests{method=ping}"] == 10
        assert _top_round({"n": _poller(Node())}) == {"n": (0.0, 0, 0.0)}
        registry.counter("rpc.requests", method="ping").inc(3)
        _, delta, seconds = poll()
        assert delta.counters["rpc.requests{method=ping}"] == 3
        assert seconds > 0

    def test_top_cli_two_lrcs_one_rli(self, make_server, traffic):
        """Acceptance: ``rls top`` against 2 LRCs + 1 RLI shows per-node
        and cluster rates that sum consistently within one interval."""
        lrc1 = make_server(ServerRole.LRC)
        lrc2 = make_server(ServerRole.LRC)
        rli = make_server(ServerRole.RLI)
        specs = [lrc1.config.name, lrc2.config.name, rli.config.name]
        traffic(lrc1.config.name)
        traffic(lrc2.config.name)
        traffic(rli.config.name, op="ping")

        code, out = run_cli(
            "top", "--servers", ",".join(specs),
            "--interval", "0.2", "--iterations", "2",
        )
        assert code == 0
        lines = out.splitlines()
        round_indexes = [
            i for i, l in enumerate(lines) if l.startswith("round ")
        ]
        assert len(round_indexes) == 2
        for i in round_indexes:
            assert "nodes up 3/3" in lines[i]
            cluster = float(
                re.search(r"cluster ops/s=([0-9.]+)", lines[i]).group(1)
            )
            node_rates = []
            for offset, spec in enumerate(specs, start=1):
                line = lines[i + offset]
                assert spec in line and "DOWN" not in line
                node_rates.append(
                    float(re.search(r"ops/s=\s*([0-9.]+)", line).group(1))
                )
            # All four numbers print rounded to one decimal place, so the
            # sum can drift by at most 0.05 per figure.
            assert abs(cluster - sum(node_rates)) <= 0.21, out
            assert cluster > 0

    def test_empty_server_list_is_usage_error(self):
        code, out = run_cli("top", "--servers", ",", "--iterations", "1")
        assert code == 2
        assert "no servers" in out


class TestUsageCLI:
    def drive(self, name, principal, n=3):
        client = connect(name, principal=principal)
        try:
            for i in range(n):
                client.create(f"/{principal}/data/f{i}", f"pfn-{principal}-{i}")
        finally:
            client.close()

    def test_usage_table(self, server_name):
        self.drive(server_name, "cms-prod", n=5)
        self.drive(server_name, "atlas", n=1)
        code, output = run_cli("usage", server_name)
        assert code == 0
        assert "usage accounting:" in output
        assert "cms-prod" in output and "atlas" in output
        assert "top principals:" in output
        assert "hot prefixes:" in output
        assert "/cms-prod/data" in output

    def test_usage_json(self, server_name):
        self.drive(server_name, "cms-prod")
        code, output = run_cli("usage", server_name, "--json")
        assert code == 0
        payload = json.loads(output)
        assert payload["enabled"] is True
        assert "cms-prod" in payload["principals"]

    def test_usage_disabled_fails_with_hint(self, make_server):
        server = make_server(ServerRole.BOTH, usage_accounting=False)
        code, output = run_cli("usage", server.config.name)
        assert code == 1
        assert "usage accounting" in output

    def test_top_principals_and_prefixes(self, make_server):
        a = make_server(ServerRole.BOTH)
        b = make_server(ServerRole.BOTH)
        self.drive(a.config.name, "cms-prod", n=4)
        self.drive(b.config.name, "cms-prod", n=3)
        self.drive(b.config.name, "ligo", n=1)
        code, output = run_cli(
            "top",
            "--servers",
            f"{a.config.name},{b.config.name}",
            "--iterations",
            "1",
            "--principals",
            "--prefixes",
        )
        assert code == 0
        # Merged across both servers: 7 cms-prod creates rank first.
        assert "top principals:" in output
        assert re.search(r"top principals:.*cms-prod=7", output)
        assert "/cms-prod/data" in output

"""The admin table (``repro.core.admin``) and the fronts derived from it.

Three kinds of check: the *names* the fronts expose are exactly those of
the hand-wired fronts before the table existed (recorded in
``tests/integration/golden/admin_surfaces.json``); the table agrees with
what is written by hand beside it (``RLSClient``'s typed methods, the
module docstrings, the docs); and a row the table does not have — injected
here — is served by all three fronts without touching their code.
"""

from __future__ import annotations

import dataclasses
import inspect
import io
import json
import re
import urllib.request
from pathlib import Path

import pytest

from repro import cli
from repro.core import admin
from repro.core.client import RLSClient, connect
from repro.core.config import ServerConfig
from repro.net import http_gateway
from tests.integration.test_admin_surfaces_golden import (
    GOLDEN,
    SLO_OFF,
    USAGE_OFF,
    documented_routes,
    parser_arguments,
    registered_methods,
    run_cli_case,
)

DOCS = Path(__file__).parents[2] / "docs"
RECORDED = json.loads(GOLDEN.read_text())["sets"]


def table_routes() -> set[str]:
    return {f"{r.route.verb} {r.route.path}" for r in admin.SURFACES if r.route}


def anonymous(routes) -> set[str]:
    """Routes with placeholder names dropped (``<id>`` vs ``<trace_id>``)."""
    return {re.sub(r"<\w+>", "<>", route) for route in routes}


class TestNothingAddedRenamedOrRemoved:
    def test_registered_methods(self):
        methods = registered_methods()
        assert methods == RECORDED["rpc_methods"]
        assert len(methods) == 55  # the two mirror feed RPCs are one

    def test_routes(self):
        # The docstring table is the gateway's route list; the admin half
        # of it is the table's.
        assert documented_routes() == RECORDED["routes"]
        admin_half = {r for r in RECORDED["routes"] if "/admin/" in r or "/metrics" in r}
        assert anonymous(table_routes()) == anonymous(admin_half)

    def test_subcommands_and_their_arguments(self):
        assert parser_arguments() == RECORDED["parser"]

    def test_no_new_options(self):
        assert len(dataclasses.fields(ServerConfig)) == 24


class TestTableAgreesWithWhatIsWrittenBesideIt:
    def test_every_registered_admin_method_is_a_row(self):
        registered = {m for m in registered_methods() if m.startswith("admin_")}
        rows = [row.method for row in admin.SURFACES]
        assert len(rows) == len(set(rows)) == 20
        assert set(rows) == registered

    @pytest.mark.parametrize("row", admin.SURFACES, ids=lambda row: row.method)
    def test_client_method_has_the_rows_signature(self, row):
        signature = inspect.signature(getattr(RLSClient, row.name))
        declared = [
            admin.Param(p.name, {"int": int, "str": str}[p.annotation], p.default)
            for p in list(signature.parameters.values())[1:]
        ]
        assert tuple(declared) == row.params

    @pytest.mark.parametrize("row", admin.SURFACES, ids=lambda row: row.method)
    def test_client_method_calls_the_rows_wire_name(self, row):
        calls = []

        class Recorder:
            def call(self, method, *args):
                calls.append((method, args))

        given = ["x" if p.type is str else 7 for p in row.params]
        getattr(RLSClient(Recorder()), row.name)(*given)
        assert calls == [(row.method, tuple(given))]

    def test_gateway_docstring_lists_the_tables_routes(self):
        assert anonymous(table_routes()) <= anonymous(documented_routes())

    def test_cli_docstring_shows_every_table_command(self):
        for path in admin.commands():
            command, _, op = path.partition(" ")
            lines = [l for l in cli.__doc__.splitlines() if f"rls {command} " in l]
            assert any(op in l for l in lines), (
                f"`rls {path}` is not in cli.py's docstring"
            )

    def test_protocol_method_table_names_every_method(self):
        text = (DOCS / "PROTOCOL.md").read_text()
        table = text[text.index("## Method table"):].split("```")[1]
        named = set(re.findall(r"\b(?:lrc|rli|admin|mirror)_\w+", table))
        assert named == set(registered_methods())

    def test_operations_table_matches_the_rows(self):
        text = (DOCS / "OPERATIONS.md").read_text()
        for row in admin.SURFACES:
            line = next(
                (l for l in text.splitlines() if l.startswith(f"| `{row.method}`")),
                None,
            )
            assert line is not None, f"{row.method} has no row in OPERATIONS.md"
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            route = f"`{row.route.verb} {row.route.path}`" if row.route else "—"
            assert cells[1] == route, row.method
            commands = [p for p, r in admin.commands().items() if r is row]
            for path in commands:
                assert f"`rls {path}" in cells[2], (row.method, path)
            if not commands:
                assert cells[2].startswith("—"), row.method


class TestParsersPrintTheirUsage:
    """argparse renders usage lazily (``--help``, any usage error), so a
    parser that cannot render it passes every parse-only test."""

    def test_every_subparser_formats_its_help(self):
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a.choices, dict)
        )
        assert set(subparsers.choices) == set(RECORDED["parser"])
        for name, parser in subparsers.choices.items():
            assert f"rls {name}" in parser.format_help()

    @pytest.mark.parametrize(
        "argv", [[row.command.path] for row in admin.SURFACES if row.command]
    )
    def test_a_usage_error_is_exit_status_2(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            cli.main(argv)
        assert raised.value.code == 2
        assert f"usage: rls {argv[0]}" in capsys.readouterr().err


class TestWireArguments:
    def test_ping_answers_whatever_it_is_sent(self, make_server):
        with connect(make_server().config.name) as client:
            assert client.rpc.call("admin_ping") == "pong"
            assert client.rpc.call("admin_ping", 1, "x") == "pong"

    def test_params_are_read_off_the_producers_signature(self):
        params = {row.method: row.params for row in admin.SURFACES if row.params}
        assert params == {
            "admin_traces": (admin.Param("limit", int, 100),),
            "admin_trace": (admin.Param("trace_id", str, inspect.Parameter.empty),),
            "admin_trace_fragments": (
                admin.Param("trace_id", str, inspect.Parameter.empty),
            ),
            "admin_slow_queries": (admin.Param("limit", int, 50),),
            "admin_flight": (admin.Param("limit", int, 100),),
        }


class TestOneSharedStep:
    """``--json`` prints the payload whatever it says; the hint is for
    people.  (``rls slo`` and ``rls usage`` used to print the hint even
    under ``--json``; the other five never did.)"""

    @pytest.mark.parametrize(
        "command,method,payload",
        [("slo", "admin_slo", SLO_OFF), ("usage", "admin_usage", USAGE_OFF)],
    )
    def test_json_wins_over_the_disabled_hint(self, command, method, payload):
        result = run_cli_case([command, "site-a", "--json"], {method: payload})
        assert result["rc"] == 0
        assert json.loads(result["out"]) == payload


class TestInjectedRow:
    """A surface is one row: RPC, route and command follow."""

    @pytest.fixture
    def probed_server(self, monkeypatch, make_server):
        def produce(server, limit: int = 10):
            return {"enabled": True, "n": limit, "at": server.config.name}

        probe = admin.Surface(
            "admin_probe",
            produce,
            route=admin.Route("GET", "/admin/probe"),
            command=admin.Command("probe", "a surface only this test has"),
            hint="probe not enabled",
        )
        monkeypatch.setattr(admin, "SURFACES", admin.SURFACES + (probe,))
        return make_server().config.name

    def test_served_over_rpc(self, probed_server):
        with connect(probed_server) as client:
            assert client.rpc.call("admin_probe", 3)["n"] == 3
            assert client.rpc.call("admin_probe") == {
                "enabled": True, "n": 10, "at": probed_server,
            }

    def test_served_over_http(self, probed_server):
        with http_gateway.HTTPGateway(probed_server) as gateway:
            with urllib.request.urlopen(
                f"{gateway.url}/admin/probe?limit=3", timeout=10
            ) as response:
                assert response.status == 200
                assert json.load(response)["n"] == 3

    def test_served_by_rls(self, probed_server):
        out = io.StringIO()
        assert cli.main(["probe", probed_server, "--json", "--limit", "3"], out=out) == 0
        assert json.loads(out.getvalue())["n"] == 3
        # No renderer registered for it: the text form is the JSON too.
        out = io.StringIO()
        assert cli.main(["probe", probed_server], out=out) == 0
        assert json.loads(out.getvalue())["n"] == 10

"""What every admin surface *reads as* is pinned to one golden file.

The administrative operations are reached three ways — an RPC method, an
HTTP route, an ``rls`` subcommand — and all three are derived from one
table (``repro.core.admin``, DESIGN.md §5 item 12).  This module pins what
the derived fronts print and serve to what the hand-wired fronts of the
commit before that change printed and served:

* every ``rls`` observability command and every ``rls admin <op>``, run
  through :func:`repro.cli.main` against a fake RPC channel that answers
  each wire method with a fixed payload (both ``enabled`` states where the
  surface has one, ``--json``, the surface's own flags), recording exit
  status, output, and the RPC calls made with their arguments;
* every ``/admin/*`` route and ``/metrics`` on a live
  :class:`~repro.net.http_gateway.HTTPGateway` whose client is the same
  fake: status, content type, body, calls;
* three sets: the methods a server registers, the gateway's routes (its
  docstring table), ``build_parser()``'s subcommands with each one's
  arguments.

The golden file was captured from that parent commit, by running this
module as a script with the parent's sources on the path::

    PYTHONPATH=<parent>/src python tests/integration/test_admin_surfaces_golden.py

Not pinned, because that change made them uniform on purpose (its own
tests cover them): ``rls slo --json`` / ``rls usage --json`` against a
payload that says ``enabled: false`` (the hint used to win over ``--json``
there and nowhere else), ``?limit=abc`` (was ignored, now 400) and an
authorization failure on ``/metrics`` (was 500, now 403).
"""

from __future__ import annotations

import io
import json
import re
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

import pytest

from repro import cli
from repro.core.client import RLSClient
from repro.core.config import ServerConfig, ServerRole
from repro.core.server import RLSServer
from repro.net import http_gateway
from repro.net.errors import RemoteError

GOLDEN = Path(__file__).parent / "golden" / "admin_surfaces.json"

# -- fixed payloads, by wire method -----------------------------------------

METRICS = {
    "counters": {
        "rpc.requests{method=lrc_get_mappings}": 40,
        "rpc.requests{method=lrc_create_mapping}": 12,
        "rpc.errors{method=lrc_get_mappings}": 3,
        "wal.records_appended": 36,
        "db.slow_statements": 0,
    },
    "gauges": {"lrc.lfns": 12.0, "wal.queue_depth": 0.5},
    "histograms": {
        "rpc.latency{method=lrc_get_mappings}": {
            "counts": [0] * 7 + [30, 10] + [0] * 20,
            "count": 40,
            "sum": 0.0052,
            "min": 0.00009,
            "max": 0.00031,
        },
        "wal.flush_latency": {
            "counts": [0] * 29, "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
        },
    },
}

STATS = {
    "name": "site-a",
    "roles": {"lrc": True, "rli": True},
    "backend": "mysql",
    "requests_served": 52,
    "errors_returned": 3,
    "lrc": {"lfns": 12, "mappings": 14},
    "rli": {
        "mappings": 12, "bloom_filters": 1, "updates_applied": 4,
        "staleness_age": 1.5, "staleness_ages": {"site-a": 1.5},
    },
    "updates": {
        "full": 2, "incremental": 1, "bloom": 1, "names_sent": 25,
        "bloom_bytes_sent": 128, "errors": 1, "retries": 2,
        "targets": {
            "rli-east": {
                "healthy": True, "consecutive_failures": 0, "backlog": 0,
                "needs_full": False, "last_error": None, "retries": 0,
            },
            "rli-west": {
                "healthy": False, "consecutive_failures": 2, "backlog": 5,
                "needs_full": True, "last_error": "ConnectionError: down",
                "retries": 2,
            },
        },
    },
    "metrics": METRICS,
}

METRICS_TEXT = (
    "# TYPE rpc_requests counter\n"
    'rpc_requests{method="lrc_get_mappings"} 40\n'
    "# TYPE lrc_lfns gauge\n"
    "lrc_lfns 12\n"
)


def _span(name, span_id, parent, start, duration, tags=None, error=None):
    return {
        "name": name, "trace_id": "a1", "span_id": span_id,
        "parent_id": parent, "start": start, "duration": duration,
        "tags": tags or {}, "error": error,
    }


ROOT = _span("rpc.handle", "b1", None, 10.0, 0.004,
             {"method": "lrc_get_mappings", "node": "site-a"})
CHILD = _span("sql.execute", "b2", "b1", 10.001, 0.002,
              {"statement": "Select"}, error="MappingNotFoundError")

TRACES_ON = {
    "enabled": True,
    "stats": {
        "offered": 90, "retained": 2, "interesting": 2, "recent": 2,
        "capacity": 512, "latency_threshold": 0.05, "orphans": 0,
    },
    "spans": [
        dict(ROOT, reason="slow"),
        dict(CHILD, reason=None),
        dict(_span("wal.flush", "b3", None, 11.0, 0.06), trace_id=None),
    ],
}
TRACES_EMPTY = dict(TRACES_ON, spans=[])
TRACES_OFF = {"enabled": False, "stats": {}, "spans": []}

TRACE_ON = {
    "enabled": True,
    "trace_id": "a1",
    "spans": [ROOT, CHILD],
    "tree": [
        {
            "span": ROOT, "span_id": "b1", "gap": False,
            "children": [
                {"span": CHILD, "span_id": "b2", "gap": False, "children": []},
                {"span": None, "span_id": "zz", "gap": True, "children": []},
            ],
        }
    ],
    "critical_path": [
        {"kind": "server.handle", "name": "rpc.handle", "node": "site-a",
         "start": 10.0, "duration": 0.002},
        {"kind": "db", "name": "sql.execute", "node": "site-a",
         "start": 10.001, "duration": 0.002},
    ],
    "root_duration": 0.004,
    "path_duration": 0.004,
    "coverage": 1.0,
    "nodes": {"site-a": 2, "site-b": 0},
    "missing": {"site-c": "ConnectionError: down"},
    "gaps": ["zz"],
    "clock": "shared",
}
TRACE_MISS = dict(TRACE_ON, spans=[], tree=[], critical_path=[], nodes={"site-a": 0})
TRACE_OFF = {
    "enabled": False, "trace_id": "a1", "spans": [], "tree": [],
    "critical_path": [], "nodes": {}, "missing": {},
}
FRAGMENTS = {"enabled": True, "node": "site-a", "trace_id": "a1", "spans": [ROOT]}


def _window(requests, errors, availability, latency, burn_a, burn_l):
    return {
        "seconds": 300.0, "requests": requests, "errors": errors, "slow": 0,
        "availability": availability, "latency_sli": latency,
        "burn_availability": burn_a, "burn_latency": burn_l,
    }


def _slo_class(fast, slow, budget_left):
    return {
        "windows": {"fast_short": fast, "fast_long": fast,
                    "slow_short": slow, "slow_long": slow},
        "alerts": [],
        "budget": {
            "window": 259200.0, "requests": fast["requests"],
            "errors": fast["errors"], "slow": 0,
            "availability_budget_remaining": budget_left,
            "latency_budget_remaining": 1.0,
        },
    }


SLO_ALERT = {
    "window": "fast", "kind": "availability", "severity": "critical",
    "threshold": 14.4, "burn_short": 250.0, "burn_long": 125.5,
    "class": "query", "endpoint": "site-a",
}
SLO_ON = {
    "enabled": True, "shard": "shard-0", "endpoint": "site-a", "ticks": 3,
    "policy": {
        "availability_target": 0.999, "latency_target": 0.99,
        "latency_thresholds": {"add": 0.05, "query": 0.05, "bulk": 1.0},
        "windows": [], "budget_window": 259200.0,
    },
    "classes": {
        "add": _slo_class(_window(12, 0, 1.0, 1.0, 0.0, 0.0),
                          _window(12, 0, 1.0, 1.0, 0.0, 0.0), 1.0),
        "query": _slo_class(_window(40, 10, 0.75, 0.9, 250.0, 10.0),
                            _window(40, 10, 0.75, None, 125.5, 0.0), 0.25),
        "bulk": _slo_class(_window(0, 0, None, None, 0.0, 0.0),
                           _window(0, 0, None, None, 0.0, 0.0), 1.0),
    },
    "alerts": [SLO_ALERT, dict(SLO_ALERT, severity="warning", window="slow")],
}
SLO_QUIET = dict(SLO_ON, shard="", alerts=[])
SLO_OFF = {"enabled": False}

USAGE_FIELDS = ["requests", "errors", "wall_time", "queue_wait",
                "rows_examined", "bytes_in", "bytes_out", "wal_bytes"]


def _cell(requests, errors=0.0, wall=0.0, rows=0.0, b_in=0.0, b_out=0.0, wal=0.0):
    return dict(zip(USAGE_FIELDS,
                    (requests, errors, wall, 0.001, rows, b_in, b_out, wal)))


def _usage(alice_queries):
    return {
        "enabled": True,
        "fields": USAGE_FIELDS,
        "principals": {
            "alice": {
                "add": _cell(12.0, wall=0.012, wal=1920.0),
                "query": _cell(alice_queries, 3.0, 0.016, 40.0),
                "net": _cell(0.0, b_in=4650.0, b_out=9100.0),
            },
            "anonymous": {"other": _cell(5.0, wall=0.004, rows=9.0)},
        },
        "top_principals": [
            {"principal": "alice", "count": 52, "error": 0},
            {"principal": "anonymous", "count": 5, "error": 2},
        ],
        "top_prefixes": [{"prefix": "lfn://exp/run7", "count": 30, "error": 0}],
        "sketch": {"capacity": 32, "offered": 57},
        "overflowed": 0,
        "max_principals": 64,
        "principals_tracked": 2,
    }


USAGE_ON = _usage(40.0)
USAGE_IDLE = dict(USAGE_ON, principals={}, principals_tracked=0)
USAGE_OFF = {"enabled": False, "principals": {}, "top_principals": [],
             "top_prefixes": []}

SLOW_ENTRY = {
    "seq": 38, "sql": "SELECT COUNT ( * ) FROM t_map",
    "statement_class": "select:t_map", "duration": 0.0725,
    "rows_examined": 14, "rows_returned": 1, "dead_index_hits": 2,
    "error": None, "trace_id": "a1", "span_id": "b2", "principal": "alice",
    "plan": [
        {"name": "drive", "detail": "full scan t_map", "rows_examined": 14,
         "rows_returned": 14, "dead_hits": 2, "elapsed": 0.0701},
    ],
}
SLOW_ON = {
    "enabled": True,
    "stats": {"offered": 400, "retained": 2, "interesting": 2, "recent": 2,
              "capacity": 256, "slow_threshold": 0.05},
    "queries": [
        SLOW_ENTRY,
        dict(SLOW_ENTRY, seq=39, sql="INSERT INTO t_lfn ( name ) VALUES ( ? )",
             statement_class="insert:t_lfn", duration=0.0004, rows_examined=0,
             rows_returned=0, dead_index_hits=0, error="DuplicateKeyError",
             trace_id=None, span_id=None, principal=None, plan=[]),
    ],
}
SLOW_OFF = dict(SLOW_ON, enabled=False, queries=[])

STACK = "rpc;threading:run;rpc:handle;lrc:get_mappings"


def _profile(samples):
    return {
        "enabled": True, "hz": 50, "samples": samples, "duty_cycle": 0.0125,
        "roles": {"rpc": samples - 10, "expire": 10},
        "profile": {
            "stacks": {STACK: samples - 10, "expire;threading:wait": 10},
            "samples": samples,
        },
    }


PROFILE_ON = _profile(30)
PROFILE_EMPTY = dict(PROFILE_ON, samples=0, roles={},
                     profile={"stacks": {}, "samples": 0})
PROFILE_OFF = {"enabled": False, "hz": 0.0, "samples": 0, "duty_cycle": 0.0,
               "roles": {}, "profile": {"stacks": {}, "samples": 0}}

THREADS = {
    "enabled": True,
    "threads": [
        {"ident": 7001, "name": "obs-profiler", "role": "profiler",
         "frames": ["threading:wait", "periodic:_run", "threading:run"],
         "trace_id": None, "span_id": None, "idle": True,
         "consecutive_top": 0},
        {"ident": 7002, "name": "conn-1", "role": "rpc",
         "frames": ["lrc:get_mappings", "rpc:handle", "transport:_serve",
                    "threading:run", "threading:_bootstrap"],
         "trace_id": "a1", "span_id": "b1", "idle": False,
         "consecutive_top": 12},
        {"ident": 7003, "name": "misc", "frames": [], "span_id": None},
    ],
    "detections": [
        {"kind": "stuck_thread", "severity": "critical",
         "summary": "thread role=rpc pinned on lrc:get_mappings for 12 samples"},
    ],
}
THREADS_QUIET = dict(THREADS, detections=[])


def _event(seq, kind, detail, span="b1", error=False, **data):
    return {"seq": seq, "t": 1000.0 + seq, "kind": kind, "detail": detail,
            "trace_id": "a1", "span_id": span, "error": error, "data": data}


FLIGHT_EVENTS = [
    _event(1, "rpc.in", "lrc_get_mappings", principal="alice"),
    _event(2, "error", "lrc_get_mappings", error=True,
           type="MappingNotFoundError"),
    _event(3, "rpc.out", "lrc_get_mappings", error=True),
    _event(4, "update.sent", "rli-east", span=None, names=3, target="rli-east"),
]
FLIGHT_ON = {
    "enabled": True,
    "stats": {"recorded": 9, "errors": 1, "recent": 4, "retained_errors": 1,
              "capacity": 256, "error_capacity": 64},
    "events": FLIGHT_EVENTS,
    "last_dump": {"reason": "lrc_get_mappings: MappingNotFoundError",
                  "t": 1003.0, "stats": {}, "events": FLIGHT_EVENTS[:3]},
}
FLIGHT_EMPTY = dict(FLIGHT_ON, events=[], last_dump=None)
FLIGHT_OFF = {"enabled": False, "stats": {}, "events": [], "last_dump": None}

SHARDS_ON = {
    "self": "s0-m0", "mirror_of": "s0",
    "shard_map": {"shards": ["s0", "s1"], "mirrors": {"s0": ["s0-m0"]},
                  "vnodes": 64, "version": 3},
}
SHARDS_NONE = {"self": "site-a", "mirror_of": None, "shard_map": None}
MIRRORS = {
    "s0-m0": {"healthy": True, "backlog": 0, "retries": 0, "last_error": None},
    "s0-m1": {"healthy": False, "backlog": 7, "retries": 3,
              "last_error": "ConnectionError: down"},
}
RLIS = [
    {"name": "rli-east", "bloom": True, "patterns": []},
    {"name": "rli-west", "bloom": False, "patterns": ["lfn://exp/*", "lfn://sim/*"]},
]

#: What the fake server answers when a case does not say otherwise.
DEFAULT_REPLIES: dict[str, Any] = {
    "admin_ping": "pong",
    "admin_stats": STATS,
    "admin_metrics": METRICS,
    "admin_metrics_text": METRICS_TEXT,
    "admin_traces": TRACES_ON,
    "admin_trace": TRACE_ON,
    "admin_trace_fragments": FRAGMENTS,
    "admin_slo": SLO_ON,
    "admin_usage": USAGE_ON,
    "admin_slow_queries": SLOW_ON,
    "admin_profile": PROFILE_ON,
    "admin_threads": THREADS,
    "admin_flight": FLIGHT_ON,
    "admin_trigger_full_update": 0.25,
    "admin_trigger_incremental_update": 7,
    "admin_expire_once": 4,
    "admin_verify": [],
    "admin_shard_map": SHARDS_ON,
    "lrc_mirror_list": MIRRORS,
    "lrc_rli_add": None,
    "lrc_rli_remove": None,
    "lrc_rli_list": RLIS,
}


class FakeRPC:
    """Stands in for :class:`~repro.net.rpc.RPCClient` under a real
    :class:`RLSClient`: answers by wire method and records every call.

    A reply that is a ``list`` wrapped in :class:`Series` is consumed one
    element per call (the last repeats), for the commands that fetch
    twice; an exception instance is raised.
    """

    def __init__(self, replies: dict[str, Any]) -> None:
        self.replies = {**DEFAULT_REPLIES, **replies}
        self.calls: list[list[Any]] = []

    def call(self, method: str, *args: Any) -> Any:
        self.calls.append([method, *args])
        reply = self.replies[method]
        if isinstance(reply, Series):
            reply = reply.pop(0) if len(reply) > 1 else reply[0]
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        pass


class Series(list):
    """Successive replies of one method."""


# -- the rls cases ----------------------------------------------------------

S = "site-a"  # the endpoint argument; the fake client ignores it

#: (case name, argv, reply overrides)
CLI_CASES: list[tuple[str, list[str], dict[str, Any]]] = [
    ("stats", ["stats", S], {}),
    ("stats.format-json", ["stats", S, "--format", "json"], {}),
    ("stats.format-text", ["stats", S, "--format", "text"], {}),
    ("trace.list", ["trace", "--server", S], {}),
    ("trace.list.limit", ["trace", "--server", S, "--limit", "3"], {}),
    ("trace.list.empty", ["trace", "--server", S], {"admin_traces": TRACES_EMPTY}),
    ("trace.list.off", ["trace", "--server", S], {"admin_traces": TRACES_OFF}),
    ("trace.list.json", ["trace", "--server", S, "--json"], {}),
    ("trace.list.off.json", ["trace", "--server", S, "--json"],
     {"admin_traces": TRACES_OFF}),
    ("trace.id", ["trace", "--server", S, "a1"], {}),
    ("trace.id.critical-path", ["trace", "--server", S, "a1", "--critical-path"], {}),
    ("trace.id.off", ["trace", "--server", S, "a1", "--critical-path"],
     {"admin_trace": TRACE_OFF}),
    ("trace.id.json", ["trace", "--server", S, "a1", "--json"], {}),
    ("slowlog", ["slowlog", "--server", S], {}),
    ("slowlog.plans", ["slowlog", "--server", S, "--plans", "--limit", "5"], {}),
    ("slowlog.off", ["slowlog", "--server", S], {"admin_slow_queries": SLOW_OFF}),
    ("slowlog.json", ["slowlog", "--server", S, "--json"], {}),
    ("slo", ["slo", S], {}),
    ("slo.quiet", ["slo", S], {"admin_slo": SLO_QUIET}),
    ("slo.off", ["slo", S], {"admin_slo": SLO_OFF}),
    ("slo.json", ["slo", S, "--json"], {}),
    ("slo.watch", ["slo", S, "--watch", "1", "--iterations", "2"],
     {"admin_slo": Series([SLO_ON, SLO_ON, SLO_QUIET])}),
    ("slo.watch.json", ["slo", S, "--json", "--watch", "1", "--iterations", "1"], {}),
    ("usage", ["usage", S], {}),
    ("usage.idle", ["usage", S], {"admin_usage": USAGE_IDLE}),
    ("usage.off", ["usage", S], {"admin_usage": USAGE_OFF}),
    ("usage.json", ["usage", S, "--json"], {}),
    ("usage.watch", ["usage", S, "--watch", "2", "--iterations", "2"],
     {"admin_usage": Series([USAGE_ON, _usage(50.0), _usage(50.0)])}),
    ("profile", ["profile", S], {}),
    ("profile.folded", ["profile", S, "--folded"], {}),
    ("profile.empty", ["profile", S], {"admin_profile": PROFILE_EMPTY}),
    ("profile.off", ["profile", S], {"admin_profile": PROFILE_OFF}),
    ("profile.json", ["profile", S, "--json"], {}),
    ("profile.off.json", ["profile", S, "--json"], {"admin_profile": PROFILE_OFF}),
    ("profile.window", ["profile", S, "--seconds", "2"],
     {"admin_profile": Series([PROFILE_ON, _profile(75)])}),
    ("profile.window.off", ["profile", S, "--seconds", "2"],
     {"admin_profile": PROFILE_OFF}),
    ("threads", ["threads", S], {}),
    ("threads.quiet", ["threads", S], {"admin_threads": THREADS_QUIET}),
    ("threads.json", ["threads", S, "--json"], {}),
    ("flight", ["flight", S], {}),
    ("flight.limit", ["flight", S, "--limit", "7"], {}),
    ("flight.empty", ["flight", S], {"admin_flight": FLIGHT_EMPTY}),
    ("flight.off", ["flight", S], {"admin_flight": FLIGHT_OFF}),
    ("flight.json", ["flight", S, "--json"], {}),
    ("flight.off.json", ["flight", S, "--json"], {"admin_flight": FLIGHT_OFF}),
    ("shards", ["shards", "--server", S], {}),
    ("shards.unclustered", ["shards", "--server", S],
     {"admin_shard_map": SHARDS_NONE}),
    ("shards.no-mirrors", ["shards", "--server", S], {"lrc_mirror_list": {}}),
    ("admin.ping", ["admin", "--server", S, "ping"], {}),
    ("admin.stats", ["admin", "--server", S, "stats"], {}),
    ("admin.update", ["admin", "--server", S, "update"], {}),
    ("admin.incremental", ["admin", "--server", S, "incremental"], {}),
    ("admin.expire", ["admin", "--server", S, "expire"], {}),
    ("admin.verify", ["admin", "--server", S, "verify"], {}),
    ("admin.verify.problems", ["admin", "--server", S, "verify"],
     {"admin_verify": ["t_map row 3 references missing lfn 9", "ref count drift"]}),
    ("admin.add-rli", ["admin", "--server", S, "add-rli", "rli-east", "--bloom"], {}),
    ("admin.add-rli.patterns",
     ["admin", "--server", S, "add-rli", "rli-west", "lfn://exp/*"], {}),
    ("admin.remove-rli", ["admin", "--server", S, "remove-rli", "rli-east"], {}),
    ("admin.list-rlis", ["admin", "--server", S, "list-rlis"], {}),
]


def run_cli_case(argv: list[str], replies: dict[str, Any]) -> dict[str, Any]:
    rpc = FakeRPC({k: Series(v) if isinstance(v, Series) else v
                   for k, v in replies.items()})
    opened = cli._open_client
    slept = time.sleep
    cli._open_client = lambda spec: RLSClient(rpc)
    time.sleep = lambda seconds: None  # --watch / --seconds wait on nothing
    try:
        out = io.StringIO()
        rc = cli.main(argv, out=out)
    finally:
        cli._open_client = opened
        time.sleep = slept
    return {"argv": argv, "rc": rc, "out": out.getvalue(), "calls": rpc.calls}


# -- the gateway cases ------------------------------------------------------

DENIED = RemoteError("AuthorizationError", "alice lacks admin")

#: (case name, verb, path, reply overrides)
HTTP_CASES: list[tuple[str, str, str, dict[str, Any]]] = [
    ("stats", "GET", "/admin/stats", {}),
    ("slo", "GET", "/admin/slo", {}),
    ("usage", "GET", "/admin/usage", {}),
    ("usage.off", "GET", "/admin/usage", {"admin_usage": USAGE_OFF}),
    ("shard_map", "GET", "/admin/shard_map", {}),
    ("traces", "GET", "/admin/traces", {}),
    ("traces.limit", "GET", "/admin/traces?limit=7", {}),
    ("traces.limit.among-others", "GET", "/admin/traces?x=1&limit=2&y", {}),
    ("trace", "GET", "/admin/trace/a1", {}),
    ("trace.query-ignored", "GET", "/admin/trace/a1?pretty=1", {}),
    ("trace.miss", "GET", "/admin/trace/nope", {"admin_trace": TRACE_MISS}),
    ("trace.off", "GET", "/admin/trace/a1", {"admin_trace": TRACE_OFF}),
    ("queries", "GET", "/admin/queries", {}),
    ("queries.limit", "GET", "/admin/queries?limit=5", {}),
    ("profile", "GET", "/admin/profile", {}),
    ("threads", "GET", "/admin/threads", {}),
    ("flight", "GET", "/admin/flight", {}),
    ("flight.limit", "GET", "/admin/flight?limit=9", {}),
    ("update", "POST", "/admin/update", {}),
    ("metrics", "GET", "/metrics", {}),
    ("denied", "GET", "/admin/stats", {"admin_stats": DENIED}),
    ("failed", "GET", "/admin/flight",
     {"admin_flight": RemoteError("RuntimeError", "boom")}),
    ("no-such-route.get", "GET", "/admin/nope", {}),
    ("no-such-route.post", "POST", "/admin/stats", {}),
    ("no-such-route.delete", "DELETE", "/admin/update", {}),
]


def run_http_cases() -> dict[str, Any]:
    current: dict[str, FakeRPC] = {}
    connect = http_gateway.connect
    http_gateway.connect = lambda name, credential=None: RLSClient(current["rpc"])
    results: dict[str, Any] = {}
    try:
        with http_gateway.HTTPGateway("stub") as gateway:
            for name, verb, path, replies in HTTP_CASES:
                current["rpc"] = FakeRPC(replies)
                request = urllib.request.Request(gateway.url + path, method=verb)
                try:
                    with urllib.request.urlopen(request, timeout=10) as response:
                        status, headers, raw = (
                            response.status, response.headers, response.read()
                        )
                except urllib.error.HTTPError as exc:
                    status, headers, raw = exc.code, exc.headers, exc.read()
                content_type = headers.get("Content-Type")
                text = raw.decode("utf-8")
                results[name] = {
                    "request": f"{verb} {path}",
                    "status": status,
                    "content_type": content_type,
                    "body": json.loads(text)
                    if content_type == "application/json" else text,
                    "calls": current["rpc"].calls,
                }
    finally:
        http_gateway.connect = connect
    return results


# -- the three sets ---------------------------------------------------------


def registered_methods() -> list[str]:
    server = RLSServer(
        ServerConfig(name="golden-admin", role=ServerRole.BOTH, sync_latency=0.0)
    )  # never started: only its method table is read
    try:
        return server.rpc.methods()
    finally:
        server.stop()


def documented_routes() -> list[str]:
    """``VERB path`` per row of the gateway docstring's route table."""
    rows = re.findall(
        r"^(/\S+)\s+(GET|POST|DELETE)\s", http_gateway.__doc__, flags=re.M
    )
    return sorted(f"{verb} {path}" for path, verb in rows)


def parser_arguments() -> dict[str, list[str]]:
    """Per subcommand: option strings, positionals and their choices."""
    subparsers = next(
        a for a in cli.build_parser()._actions if hasattr(a, "choices") and a.choices
    )
    shape: dict[str, list[str]] = {}
    for name, sub in subparsers.choices.items():
        entries = []
        for action in sub._actions:
            if "--help" in action.option_strings:
                continue
            entry = "/".join(action.option_strings) or f"<{action.dest}>"
            if action.choices:
                entry += "=" + "|".join(sorted(action.choices))
            entries.append(entry)
        shape[name] = sorted(entries)
    return shape


def capture() -> dict[str, Any]:
    return {
        "cli": {name: run_cli_case(argv, replies)
                for name, argv, replies in CLI_CASES},
        "http": run_http_cases(),
        "sets": {
            "rpc_methods": registered_methods(),
            "routes": documented_routes(),
            "parser": parser_arguments(),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,argv,replies", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_rls_command_reads_as_before(golden, name, argv, replies):
    assert run_cli_case(argv, replies) == golden["cli"][name]


def test_every_cli_case_is_pinned(golden):
    assert sorted(golden["cli"]) == sorted(c[0] for c in CLI_CASES)


def test_gateway_routes_answer_as_before(golden):
    served = run_http_cases()
    assert sorted(served) == sorted(golden["http"])
    for name, expected in golden["http"].items():
        assert served[name] == expected, name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

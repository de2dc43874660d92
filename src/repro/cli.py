"""Command-line interface — the ``globus-rls-cli`` equivalent.

Subcommands mirror the operation classes of the paper's Table 1::

    rls serve   --name mysite --role both --tcp --port 39281
    rls create  --server host:39281 lfn pfn
    rls add     --server host:39281 lfn pfn
    rls delete  --server host:39281 lfn pfn
    rls query   --server host:39281 lfn            # LRC query (or wildcard)
    rls rli-query --server host:39281 lfn          # index query
    rls bulk    --server host:39281 create pairs.txt
    rls attr    --server host:39281 define size pfn int
    rls attr    --server host:39281 add <pfn> size pfn 1024
    rls admin   --server host:39281 ping|stats|update|incremental|expire|verify
    rls admin   --server host:39281 add-rli <rli> [--bloom] | remove-rli | list-rlis
    rls stats   host:39281                         # live metrics summary
    rls stats   host:39281 --watch 2               # re-scrape every 2s
    rls trace   --server host:39281                # tail-retained spans
    rls trace   --server host:39281 <trace-id> --critical-path
    rls slowlog --server host:39281                # slow/error statements
    rls slo     host:39281 --watch 5               # SLIs, burn rates, budget
    rls usage   host:39281 --watch 5               # per-principal usage
    rls profile host:39281 --seconds 5 --folded    # sampling profiler
    rls threads host:39281                         # thread dump + stuck check
    rls flight  host:39281                         # flight-recorder events
    rls explain mysite-dsn "SELECT ... WHERE ..."  # EXPLAIN ANALYZE a query
    rls shards  --server host:39281                # shard map + mirror health
    rls top     --servers a:39281,b:39282,r:39283  # live cluster rates
    rls top     --servers ... --principals         # + cluster heavy hitters
    rls workload --server host:39281 --op query --seed 7

``--server`` accepts either an in-process endpoint name or ``host:port``.
The observability commands (``stats`` to ``flight``, and ``shards``) and
the first line of ``rls admin`` ops are not spelled out in this module:
each is declared by its row of :data:`repro.core.admin.SURFACES` (flags,
help, the hint when the surface is switched off), and this module adds a
text renderer keyed by that row.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Sequence

from repro.core import admin
from repro.core.client import RLSClient, connect, connect_tcp_server
from repro.core.config import ServerConfig, ServerRole
from repro.core.naming import has_wildcard
from repro.core.server import RLSServer
from repro.obs.metrics import MetricsSnapshot, split_metric_key


def _open_client(spec: str) -> RLSClient:
    if ":" in spec:
        host, port = spec.rsplit(":", 1)
        return connect_tcp_server(host, int(port))
    return connect(spec)


def _parse_role(text: str) -> ServerRole:
    mapping = {"lrc": ServerRole.LRC, "rli": ServerRole.RLI, "both": ServerRole.BOTH}
    try:
        return mapping[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"role must be lrc|rli|both, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rls", description="Replica Location Service command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run an RLS server")
    serve.add_argument("--name", default="rls")
    serve.add_argument("--role", type=_parse_role, default=ServerRole.BOTH)
    serve.add_argument("--backend", default="mysql", choices=["mysql", "postgresql"])
    serve.add_argument("--flush-on-commit", action="store_true")
    serve.add_argument("--tcp", action="store_true")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument(
        "--run-seconds",
        type=float,
        default=None,
        help="exit after N seconds (default: run until interrupted)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="install a process-wide tracer with tail-sampled span "
        "retention (query via 'rls trace')",
    )
    serve.add_argument(
        "--profile-hz",
        type=float,
        default=0.0,
        help="enable the sampling profiler at this rate "
        "(query via 'rls profile' / 'rls threads'; default: disabled)",
    )
    serve.add_argument(
        "--shards",
        default=None,
        help="comma-separated shard masters forming the cluster's "
        "consistent-hash ring (gives this server a shard map to serve; "
        "see 'rls shards')",
    )
    serve.add_argument(
        "--mirror-of",
        default=None,
        help="run as a read-only mirror of the named shard master: "
        "client writes are rejected, the master's replica stream is "
        "applied via the mirror ingest RPCs",
    )
    serve.add_argument(
        "--mirrors",
        default=None,
        help="comma-separated read-only mirrors this shard master "
        "streams replica mappings to",
    )
    serve.add_argument(
        "--vnodes",
        type=int,
        default=None,
        help="virtual nodes per shard on the consistent-hash ring "
        "(default: 64)",
    )

    for name, help_text in (
        ("create", "register a new logical name with its first replica"),
        ("add", "register an additional replica"),
        ("delete", "remove a replica mapping"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--server", required=True)
        cmd.add_argument("lfn")
        cmd.add_argument("pfn")

    query = sub.add_parser("query", help="LRC query (wildcards: * and ?)")
    query.add_argument("--server", required=True)
    query.add_argument("--reverse", action="store_true", help="query by target name")
    query.add_argument("name")

    rli_query = sub.add_parser("rli-query", help="RLI index query")
    rli_query.add_argument("--server", required=True)
    rli_query.add_argument("lfn")

    bulk = sub.add_parser("bulk", help="bulk create/add/delete from a file")
    bulk.add_argument("--server", required=True)
    bulk.add_argument("op", choices=["create", "add", "delete", "query"])
    bulk.add_argument(
        "path", help="file with one 'lfn pfn' (or just 'lfn' for query) per line"
    )

    attr = sub.add_parser("attr", help="attribute operations")
    attr.add_argument("--server", required=True)
    attr.add_argument("args", nargs="+")

    admin_cmd = sub.add_parser("admin", help="administrative operations")
    admin_cmd.add_argument("--server", required=True)
    admin_cmd.add_argument(
        "op",
        choices=[*(row.admin_op for row in admin.SURFACES if row.admin_op), *_RLI_OPS],
    )
    admin_cmd.add_argument("extra", nargs="*")
    admin_cmd.add_argument("--bloom", action="store_true")

    # One subparser per command the admin table declares: the endpoint,
    # the row's own flags, an option per wire parameter, then --watch /
    # --iterations and --json where the command has them.
    for row in admin.SURFACES:
        command = row.command
        if command is None:
            continue
        cmd = sub.add_parser(command.path, help=command.help)
        if command.server_flag:
            cmd.add_argument("--server", required=True)
        else:
            cmd.add_argument("server", help="endpoint name or host:port")
        # Output formats exclude one another.  argparse cannot print the
        # usage of an empty group, so a command with none gets no group.
        formats = cmd
        if command.json or any(flag.format for flag in command.flags):
            formats = cmd.add_mutually_exclusive_group()
        for flag in command.flags:
            (formats if flag.format else cmd).add_argument(*flag.names, **flag.options)
        for name, kind, default in row.params:
            cmd.add_argument(
                f"--{name}", type=kind, default=command.defaults.get(name, default)
            )
        if command.watch is not None:
            cmd.add_argument(
                "--watch",
                type=float,
                default=None,
                metavar="SECONDS",
                help=f"keep polling every SECONDS, printing {command.watch}",
            )
            cmd.add_argument(
                "--iterations",
                type=int,
                default=None,
                help="with --watch: stop after N rounds (default: until ^C)",
            )
        if command.json:
            formats.add_argument(
                "--json", action="store_true", help="raw JSON payload instead of a table"
            )

    explain = sub.add_parser(
        "explain",
        help="run EXPLAIN ANALYZE against a local engine (by DSN)",
    )
    explain.add_argument("dsn", help="registered data source name")
    explain.add_argument("sql", help="statement to explain (SELECT/UPDATE/DELETE)")
    explain.add_argument(
        "--static",
        action="store_true",
        help="plan only (plain EXPLAIN) — do not execute the statement",
    )

    top = sub.add_parser(
        "top", help="live cluster view: per-node and cluster operation rates"
    )
    top.add_argument(
        "--servers",
        required=True,
        help="comma-separated endpoints (name or host:port)",
    )
    top.add_argument("--interval", type=float, default=1.0)
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N scrape rounds (default: until ^C)",
    )
    top.add_argument(
        "--principals",
        action="store_true",
        help="also print the cluster's top principals ('rls usage' "
        "sketches merged across all servers)",
    )
    top.add_argument(
        "--prefixes",
        action="store_true",
        help="also print the cluster's hot LFN prefixes (merged "
        "'rls usage' sketches)",
    )

    workload = sub.add_parser(
        "workload", help="run a measurement workload against a server"
    )
    workload.add_argument("--server", required=True)
    workload.add_argument(
        "--op", choices=["add", "query", "rli-query", "delete"], default="query"
    )
    workload.add_argument("--operations", type=int, default=1000)
    workload.add_argument("--clients", type=int, default=1)
    workload.add_argument("--threads", type=int, default=10)
    workload.add_argument(
        "--count", type=int, default=1000,
        help="namespace size (distinct logical names) the workload draws from",
    )
    workload.add_argument(
        "--prefix", default="wl", help="logical-name prefix for the namespace"
    )
    workload.add_argument(
        "--seed", type=int, default=1234,
        help="RNG seed for query name sampling (reproducible runs)",
    )
    workload.add_argument(
        "--metrics", action="store_true",
        help="print the server's internal metrics delta after the run",
    )

    return parser


def main(argv: Sequence[str] | None = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        cluster = None
        if args.shards:
            from repro.cluster.ring import DEFAULT_VNODES, ShardMap

            shard_names = tuple(
                s.strip() for s in args.shards.split(",") if s.strip()
            )
            mirror_names = tuple(
                m.strip() for m in (args.mirrors or "").split(",") if m.strip()
            )
            # Each serve process carries the slice of topology it knows:
            # the ring members plus its own mirrors entry.  A combined
            # client can bootstrap from any master's answer.
            cluster = ShardMap(
                shards=shard_names,
                mirrors={args.name: mirror_names}
                if mirror_names and args.name in shard_names
                else {},
                vnodes=args.vnodes or DEFAULT_VNODES,
            )
        config = ServerConfig(
            name=args.name,
            role=args.role,
            backend=args.backend,
            flush_on_commit=args.flush_on_commit,
            tcp=args.tcp,
            tcp_host=args.host,
            tcp_port=args.port,
            profile_hz=args.profile_hz,
            cluster=cluster,
            mirror_of=args.mirror_of,
            mirrors=tuple(
                m.strip() for m in (args.mirrors or "").split(",") if m.strip()
            ),
        )
        installed_tracer = False
        if args.trace:
            from repro.obs.tracing import SpanSink, Tracer, install_tracer

            install_tracer(Tracer(sink=SpanSink()))
            installed_tracer = True
        server = RLSServer(config).start()
        address = server.tcp_address
        if address:
            print(f"serving {args.name} on {address[0]}:{address[1]}", file=out)
        else:
            print(f"serving {args.name} (in-process endpoint)", file=out)
        if config.mirror_of:
            print(f"read-only mirror of {config.mirror_of}", file=out)
        if config.mirrors:
            print(
                f"streaming to mirrors: {', '.join(config.mirrors)}", file=out
            )
        if args.trace:
            print("tracing enabled (tail-sampled span sink)", file=out)
        if args.profile_hz > 0:
            print(f"profiling enabled at {args.profile_hz:g} Hz", file=out)
        # Park on an Event rather than time.sleep: Event.wait leaves a
        # Python-level ``wait`` frame on the stack, so the sampling
        # profiler's stuck-thread detector sees this thread as idle.
        parked = threading.Event()
        try:
            if args.run_seconds is not None:
                parked.wait(args.run_seconds)
            else:  # pragma: no cover - interactive path
                while True:
                    parked.wait(3600)
        except KeyboardInterrupt:  # pragma: no cover
            pass
        finally:
            server.stop()
            if installed_tracer:
                from repro.obs.tracing import install_tracer

                install_tracer(None)
        return 0

    if args.command == "top":
        return _top(args, out)

    if args.command == "explain":
        # Takes a DSN, not a server endpoint: EXPLAIN runs inside the
        # engine's process, where the registered data sources live.
        return _explain(args, out)

    client = _open_client(args.server)
    try:
        return _dispatch(args, client, out)
    finally:
        client.close()


def _dispatch(args: argparse.Namespace, client: RLSClient, out) -> int:
    if args.command == "create":
        client.create(args.lfn, args.pfn)
        print("created", file=out)
    elif args.command == "add":
        client.add(args.lfn, args.pfn)
        print("added", file=out)
    elif args.command == "delete":
        client.delete(args.lfn, args.pfn)
        print("deleted", file=out)
    elif args.command == "query":
        if args.reverse:
            for lfn in client.get_lfns(args.name):
                print(lfn, file=out)
        elif has_wildcard(args.name):
            for lfn, pfn in client.query_wildcard(args.name):
                print(f"{lfn}\t{pfn}", file=out)
        else:
            for pfn in client.get_mappings(args.name):
                print(pfn, file=out)
    elif args.command == "rli-query":
        for lrc in client.rli_query(args.lfn):
            print(lrc, file=out)
    elif args.command == "bulk":
        return _bulk(args, client, out)
    elif args.command == "attr":
        return _attr(args, client, out)
    elif args.command == "workload":
        return _workload(args, client, out)
    elif args.command == "admin" and args.op in _RLI_OPS:
        _admin_rli(args, client, out)
    else:
        path = f"admin {args.op}" if args.command == "admin" else args.command
        row = admin.commands()[path]
        return _RUNNERS.get(path, _run_surface)(row, args, client, out)
    return 0


def _call(row: admin.Surface, args: argparse.Namespace, client: RLSClient):
    return client.rpc.call(row.method, *row.arguments(vars(args)))


def _print_json(payload, args: argparse.Namespace, out) -> None:
    """The renderer of a row that registers none (hence their signature)."""
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)


def _run_surface(
    row: admin.Surface, args: argparse.Namespace, client: RLSClient, out
) -> int:
    """What every table command does: fetch the row's payload, then
    ``--json`` prints it, ``enabled: false`` prints the row's hint (exit
    1), otherwise the row's renderer prints it (JSON when it has none) and
    ``--watch`` keeps printing the row's per-round line."""
    payload = _FETCHERS.get(row.name, _call)(row, args, client)
    watch = getattr(args, "watch", None)
    if getattr(args, "json", False) and watch is None:
        _print_json(payload, args, out)
        return 0
    if row.hint and not payload.get("enabled", True):
        print(row.hint, file=out)
        return 1
    status = _RENDERERS.get(row.name, _print_json)(payload, args, out) or 0
    if watch is not None:
        _watch(args, out, _TICKERS[row.name](client, payload, args))
    return status


def _watch(args: argparse.Namespace, out, tick) -> None:
    """The ``--watch`` loop: every ``--watch`` seconds print ``tick()``'s
    line (``None``: nothing to report yet), ``--iterations`` times or
    until interrupted."""
    rounds = 0
    try:
        while args.iterations is None or rounds < args.iterations:
            time.sleep(args.watch)
            line = tick()
            if line is not None:
                rounds += 1
                print(f"[{rounds}] {line}", file=out)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass


def _bulk(args: argparse.Namespace, client: RLSClient, out) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        lines = [line.split() for line in fh if line.strip()]
    if args.op == "query":
        result = client.bulk_query([line[0] for line in lines])
        for lfn, pfns in sorted(result.items()):
            for pfn in pfns:
                print(f"{lfn}\t{pfn}", file=out)
        return 0
    pairs = [(line[0], line[1]) for line in lines]
    op = {"create": client.bulk_create, "add": client.bulk_add,
          "delete": client.bulk_delete}[args.op]
    failures = op(pairs)
    for lfn, pfn, error in failures:
        print(f"FAILED {lfn} {pfn}: {error}", file=out)
    print(f"{len(pairs) - len(failures)}/{len(pairs)} succeeded", file=out)
    return 1 if failures else 0


def _attr(args: argparse.Namespace, client: RLSClient, out) -> int:
    words = args.args
    op = words[0]
    if op == "define":
        _name, objtype, attrtype = words[1], words[2], words[3]
        client.define_attribute(_name, objtype, attrtype)
        print("defined", file=out)
    elif op == "add":
        obj, name, objtype, value = words[1], words[2], words[3], words[4]
        client.add_attribute(obj, name, objtype, _coerce(value))
        print("added", file=out)
    elif op == "get":
        obj, objtype = words[1], words[2]
        for key, value in sorted(client.get_attributes(obj, objtype).items()):
            print(f"{key}={value}", file=out)
    elif op == "remove":
        obj, name, objtype = words[1], words[2], words[3]
        client.remove_attribute(obj, name, objtype)
        print("removed", file=out)
    else:
        print(f"unknown attr op {op!r}", file=out)
        return 2
    return 0


def _coerce(text: str):
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


#: The ops of ``rls admin`` that manage update targets (``lrc_rli_*``: not
#: admin surfaces); the others come from the table.
_RLI_OPS = ("add-rli", "remove-rli", "list-rlis")


def _admin_rli(args: argparse.Namespace, client: RLSClient, out) -> None:
    if args.op == "add-rli":
        client.add_rli(args.extra[0], bloom=args.bloom, patterns=args.extra[1:])
        print("rli added", file=out)
    elif args.op == "remove-rli":
        client.remove_rli(args.extra[0])
        print("rli removed", file=out)
    else:
        for entry in client.list_rlis():
            flags = "bloom" if entry["bloom"] else "full"
            patterns = ",".join(entry["patterns"]) or "-"
            print(f"{entry['name']}\t{flags}\t{patterns}", file=out)


def _render_verify(problems: list, args: argparse.Namespace, out) -> int:
    for problem in problems:
        print(f"PROBLEM: {problem}", file=out)
    print("catalog healthy" if not problems else
          f"{len(problems)} problem(s) found", file=out)
    return 1 if problems else 0


def _format_metrics_summary(snapshot_dict: dict, out) -> None:
    """Readable counters + latency percentile table from a snapshot dict."""
    snapshot = MetricsSnapshot.from_dict(snapshot_dict)
    # Zero counters are registered-but-idle instruments; skip the noise.
    nonzero = {k: v for k, v in snapshot.counters.items() if v}
    if nonzero:
        print("counters:", file=out)
        for key in sorted(nonzero):
            print(f"  {key} = {nonzero[key]}", file=out)
    if snapshot.gauges:
        print("gauges:", file=out)
        for key in sorted(snapshot.gauges):
            print(f"  {key} = {snapshot.gauges[key]:g}", file=out)
    populated = {
        key: hist
        for key, hist in sorted(snapshot.histograms.items())
        if hist.count
    }
    if populated:
        width = max(len(key) for key in populated)
        print("latency histograms (seconds):", file=out)
        header = (
            f"  {'metric':<{width}}  {'count':>8}  {'p50':>10}  "
            f"{'p95':>10}  {'p99':>10}  {'max':>10}"
        )
        print(header, file=out)
        for key, hist in populated.items():
            print(
                f"  {key:<{width}}  {hist.count:>8}  "
                f"{hist.percentile(50):>10.6f}  {hist.percentile(95):>10.6f}  "
                f"{hist.percentile(99):>10.6f}  {hist.max:>10.6f}",
                file=out,
            )


def _poller(client: RLSClient):
    """A node's ``admin_metrics`` rated by subtraction: each call of the
    returned function fetches the snapshot and returns ``(snapshot, delta,
    seconds)``, ``delta`` being what changed since the previous call and
    ``seconds`` the time between the two (``None`` and 0.0 on the first
    call, which only primes).  A fetch that raises keeps the previous
    snapshot, so the next delta spans the gap."""
    previous: list = []

    def poll():
        now = time.monotonic()
        snapshot = MetricsSnapshot.from_dict(client.metrics())
        delta, seconds = None, 0.0
        if previous:
            then, earlier = previous
            delta, seconds = snapshot.delta(earlier), now - then
        previous[:] = (now, snapshot)
        return snapshot, delta, seconds

    return poll


def _counter_total(delta: MetricsSnapshot, name: str) -> int:
    """One counter summed over its labels."""
    return sum(
        value
        for key, value in delta.counters.items()
        if split_metric_key(key)[0] == name
    )


def _gauge_values(snapshot: MetricsSnapshot, name: str) -> list[float]:
    """One gauge's value under each of its label sets."""
    return [
        value
        for key, value in snapshot.gauges.items()
        if split_metric_key(key)[0] == name
    ]


def _stats_ticker(client: RLSClient):
    """``rls stats --watch``: per-interval rates via snapshot subtraction."""
    poll = _poller(client)
    poll()  # priming call: establishes the baseline

    def tick() -> str | None:
        _, delta, seconds = poll()
        if not seconds:
            return None  # the clock did not advance: nothing to rate
        line = (
            f"ops/s={_counter_total(delta, 'rpc.requests') / seconds:.1f} "
            f"errors/s={_counter_total(delta, 'rpc.errors') / seconds:.1f}"
        )
        busiest = sorted(
            (
                (value, key)
                for key, value in delta.counters.items()
                if value and split_metric_key(key)[0] == "rpc.requests"
            ),
            reverse=True,
        )[:3]
        if busiest:
            detail = " ".join(
                f"{split_metric_key(key)[1].get('method', key)}="
                f"{value / seconds:.1f}/s"
                for value, key in busiest
            )
            line += f"  top: {detail}"
        return line

    return tick


def _fetch_trace(row: admin.Surface, args: argparse.Namespace, client: RLSClient):
    """``rls trace`` lists; ``rls trace <id>`` asks the server to stitch
    that trace (a cluster member gathers every endpoint's fragments)."""
    return client.trace(args.trace_id) if args.trace_id else _call(row, args, client)


def _render_traces(payload: dict, args: argparse.Namespace, out) -> None:
    if args.trace_id:
        from repro.obs.assemble import render_critical_path, render_trace

        print(render_trace(payload), file=out)
        if args.critical_path:
            print(render_critical_path(payload), file=out)
        return
    sink_stats = payload.get("stats", {})
    print(
        f"span sink: {sink_stats.get('retained', 0)} retained of "
        f"{sink_stats.get('offered', 0)} offered "
        f"(latency threshold {sink_stats.get('latency_threshold', 0.0):g}s)",
        file=out,
    )
    spans = payload.get("spans", [])
    if not spans:
        print("no retained spans", file=out)
        return
    for span_dict in spans:
        error = span_dict.get("error")
        reason = span_dict.get("reason") or (
            f"ERROR:{error}" if error else "slow"
        )
        tags = " ".join(
            f"{k}={v}" for k, v in sorted(span_dict.get("tags", {}).items())
        )
        print(
            f"{span_dict.get('duration', 0.0) * 1e3:10.3f}ms  "
            f"{span_dict.get('name', '?'):<20} {reason:<16} "
            f"trace={span_dict.get('trace_id') or '-'} {tags}",
            file=out,
        )


def _explain(args: argparse.Namespace, out) -> int:
    from repro.db import odbc

    sql = args.sql.strip().rstrip(";")
    if sql.split(None, 1)[0].upper() != "EXPLAIN":
        prefix = "EXPLAIN " if args.static else "EXPLAIN ANALYZE "
        sql = prefix + sql
    connection = odbc.connect(args.dsn)
    try:
        for row in connection.execute(sql):
            print(row[0], file=out)
    finally:
        connection.close()
    return 0


def _render_slowlog(payload: dict, args: argparse.Namespace, out) -> None:
    log_stats = payload.get("stats", {})
    state = "" if payload.get("enabled") else " (profiling disabled)"
    print(
        f"query log{state}: {log_stats.get('retained', 0)} retained of "
        f"{log_stats.get('offered', 0)} offered "
        f"(slow threshold {log_stats.get('slow_threshold', 0.0):g}s)",
        file=out,
    )
    queries = payload.get("queries", [])
    if not queries:
        print("no retained statements", file=out)
        return
    for entry in queries:
        error = entry.get("error")
        reason = f"ERROR:{error}" if error else "slow"
        span = entry.get("span_id") or "-"
        trace = entry.get("trace_id") or "-"
        print(
            f"{entry.get('duration', 0.0) * 1e3:10.3f}ms  "
            f"{entry.get('statement_class', '?'):<18} "
            f"rows={entry.get('rows_examined', 0)}/"
            f"{entry.get('rows_returned', 0)} "
            f"dead={entry.get('dead_index_hits', 0)} "
            f"who={entry.get('principal') or '-'} "
            f"trace={trace} span={span}  {entry.get('sql', '')}",
            file=out,
        )
        if args.plans:
            from repro.db.profiler import OpStats

            for op in entry.get("plan", []):
                print(f"    {OpStats(**op).render()}", file=out)


def _fmt_sli(value) -> str:
    return "-" if value is None else f"{value * 100:7.3f}%"


def _render_slo(payload: dict, args: argparse.Namespace, out) -> None:
    policy = payload.get("policy", {})
    ident = payload.get("endpoint") or "?"
    shard = payload.get("shard") or ""
    suffix = f" (shard {shard})" if shard and shard != ident else ""
    print(
        f"slo: {ident}{suffix}  targets: availability "
        f"{policy.get('availability_target', 0.0) * 100:g}%  latency "
        f"{policy.get('latency_target', 0.0) * 100:g}%",
        file=out,
    )
    header = (
        f"  {'class':<9} {'req(5m)':>8} {'avail(5m)':>9} {'latency(5m)':>11} "
        f"{'burn[fast]':>10} {'burn[slow]':>10} {'budget':>7}"
    )
    print(header, file=out)
    thresholds = policy.get("latency_thresholds", {})
    for cls, state in payload.get("classes", {}).items():
        windows = state.get("windows", {})
        fast = windows.get("fast_short", {})
        slow = windows.get("slow_short", {})
        burn_fast = max(
            fast.get("burn_availability", 0.0), fast.get("burn_latency", 0.0)
        )
        burn_slow = max(
            slow.get("burn_availability", 0.0), slow.get("burn_latency", 0.0)
        )
        budget = state.get("budget", {})
        remaining = min(
            budget.get("availability_budget_remaining", 1.0),
            budget.get("latency_budget_remaining", 1.0),
        )
        threshold = thresholds.get(cls)
        extra = f"  (<{threshold * 1e3:g}ms)" if threshold else ""
        print(
            f"  {cls:<9} {fast.get('requests', 0):>8} "
            f"{_fmt_sli(fast.get('availability')):>9} "
            f"{_fmt_sli(fast.get('latency_sli')):>11} "
            f"{burn_fast:>9.2f}x {burn_slow:>9.2f}x "
            f"{remaining * 100:>6.1f}%{extra}",
            file=out,
        )
    alerts = payload.get("alerts", [])
    for alert in alerts:
        print(
            f"  ALERT [{alert.get('severity', '?')}] "
            f"class={alert.get('class', '?')} {alert.get('kind', '?')} "
            f"{alert.get('window', '?')}-window burn "
            f"{alert.get('burn_short', 0.0):.1f}x/"
            f"{alert.get('burn_long', 0.0):.1f}x "
            f"(threshold {alert.get('threshold', 0.0):g}x)",
            file=out,
        )
    if not alerts:
        print("  no burn-rate alerts", file=out)


def _slo_ticker(client: RLSClient, payload: dict, args: argparse.Namespace):
    def tick() -> str:
        payload = client.slo()
        parts = []
        for cls, state in payload.get("classes", {}).items():
            fast = state.get("windows", {}).get("fast_short", {})
            burn = max(
                fast.get("burn_availability", 0.0),
                fast.get("burn_latency", 0.0),
            )
            parts.append(f"{cls}={burn:.1f}x")
        alerts = payload.get("alerts", [])
        line = "burn: " + " ".join(parts)
        if alerts:
            worst = max(
                (a.get("severity", "warning") for a in alerts),
                key=lambda s: s == "critical",
            )
            line += f"  ALERTS={len(alerts)} ({worst})"
        return line

    return tick


def _principal_request_totals(payload: dict) -> dict[str, float]:
    """Requests per principal, summed across op classes."""
    totals: dict[str, float] = {}
    for principal, classes in payload.get("principals", {}).items():
        totals[principal] = sum(
            row.get("requests", 0.0) for row in classes.values()
        )
    return totals


def _fmt_hitters(rows: list[dict], key: str, limit: int = 5) -> str:
    """Render sketch rows as ``name=count`` (±error when inexact)."""
    parts = []
    for row in rows[:limit]:
        text = f"{row.get(key, '?')}={row.get('count', 0)}"
        if row.get("error"):
            text += f"±{row['error']}"
        parts.append(text)
    return " ".join(parts) or "-"


def _render_usage(payload: dict, args: argparse.Namespace, out) -> None:
    sketch = payload.get("sketch", {})
    print(
        f"usage accounting: {payload.get('principals_tracked', 0)} "
        f"principals tracked (cap {payload.get('max_principals', 0)}), "
        f"{payload.get('overflowed', 0)} requests folded into <other>, "
        f"sketch capacity {sketch.get('capacity', 0)} "
        f"({sketch.get('offered', 0)} offered)",
        file=out,
    )
    principals = payload.get("principals", {})
    if not principals:
        print("no requests accounted", file=out)
        return
    fields = payload.get("fields", [])
    totals: dict[str, dict[str, float]] = {}
    for principal, classes in principals.items():
        row = dict.fromkeys(fields, 0.0)
        for vec in classes.values():
            for name in fields:
                row[name] = row.get(name, 0.0) + vec.get(name, 0.0)
        totals[principal] = row
    header = (
        f"  {'principal':<24} {'req':>8} {'err':>6} {'wall(s)':>9} "
        f"{'queue(s)':>9} {'rows':>9} {'bytes in/out':>17} {'wal':>9}"
    )
    print(header, file=out)
    for principal, row in sorted(
        totals.items(), key=lambda kv: -kv[1].get("requests", 0.0)
    ):
        bytes_io = f"{row.get('bytes_in', 0.0):.0f}/{row.get('bytes_out', 0.0):.0f}"
        print(
            f"  {principal:<24} {row.get('requests', 0.0):>8.0f} "
            f"{row.get('errors', 0.0):>6.0f} {row.get('wall_time', 0.0):>9.3f} "
            f"{row.get('queue_wait', 0.0):>9.3f} "
            f"{row.get('rows_examined', 0.0):>9.0f} {bytes_io:>17} "
            f"{row.get('wal_bytes', 0.0):>9.0f}",
            file=out,
        )
    print(
        f"  top principals: "
        f"{_fmt_hitters(payload.get('top_principals', []), 'principal')}",
        file=out,
    )
    print(
        f"  hot prefixes:   "
        f"{_fmt_hitters(payload.get('top_prefixes', []), 'prefix')}",
        file=out,
    )


def _usage_ticker(client: RLSClient, payload: dict, args: argparse.Namespace):
    previous = _principal_request_totals(payload)

    def tick() -> str:
        nonlocal previous
        current = _principal_request_totals(client.usage())
        rates = sorted(
            (
                ((count - previous.get(principal, 0.0)) / args.watch, principal)
                for principal, count in current.items()
            ),
            reverse=True,
        )
        previous = current
        detail = " ".join(
            f"{principal}={rate:.1f}/s"
            for rate, principal in rates[:4]
            if rate > 0
        )
        return f"req rate: {detail or 'idle'}"

    return tick


def _fetch_profile(row: admin.Surface, args: argparse.Namespace, client: RLSClient):
    from repro.obs.profile import StackProfile

    payload = _call(row, args, client)
    if args.seconds is not None and payload.get("enabled"):
        # Window mode: two cumulative snapshots subtracted, same algebra
        # as the metrics delta in `rls stats --watch`.
        before = StackProfile.from_dict(payload.get("profile", {}))
        time.sleep(args.seconds)
        payload = _call(row, args, client)
        window = StackProfile.from_dict(payload.get("profile", {})).delta(before)
        payload = dict(
            payload,
            profile=window.to_dict(),
            samples=window.samples,
            roles=window.by_role(),
            window_seconds=args.seconds,
        )
    return payload


def _render_profile(payload: dict, args: argparse.Namespace, out) -> None:
    from repro.obs.profile import StackProfile

    profile = StackProfile.from_dict(payload.get("profile", {}))
    if args.folded:
        folded = profile.render_folded()
        if folded:
            print(folded, file=out)
        return
    window = (
        f" over {payload['window_seconds']:g}s"
        if "window_seconds" in payload
        else ""
    )
    print(
        f"profiler: {payload.get('hz', 0):g} Hz, "
        f"{payload.get('samples', 0)} samples{window}, "
        f"duty cycle {payload.get('duty_cycle', 0.0) * 100:.2f}%",
        file=out,
    )
    roles = payload.get("roles", {})
    if roles:
        detail = "  ".join(
            f"{role}={count}"
            for role, count in sorted(roles.items(), key=lambda kv: -kv[1])
        )
        print(f"samples by role: {detail}", file=out)
    hottest = profile.top(20)
    if not hottest:
        print("no samples", file=out)
        return
    print("hottest stacks:", file=out)
    for folded, count in hottest:
        print(f"{count:>8}  {folded}", file=out)


def _render_threads(payload: dict, args: argparse.Namespace, out) -> None:
    threads = payload.get("threads", [])
    print(f"{len(threads)} threads:", file=out)
    for entry in threads:
        state = "idle" if entry.get("idle") else "busy"
        span = entry.get("span_id") or "-"
        frames = " < ".join(entry.get("frames", [])[:4]) or "?"
        print(
            f"  [{entry.get('ident')}] {entry.get('role', 'other'):<12} "
            f"{state:<5} span={span:<8} "
            f"run={entry.get('consecutive_top', 0):<4} {frames}",
            file=out,
        )
    detections = payload.get("detections", [])
    for detection in detections:
        print(
            f"DETECTION [{detection.get('severity', '?')}] "
            f"{detection.get('summary', '')}",
            file=out,
        )
    if not detections:
        print("no stuck threads detected", file=out)


def _render_flight(payload: dict, args: argparse.Namespace, out) -> None:
    ring_stats = payload.get("stats", {})
    print(
        f"flight recorder: {ring_stats.get('recent', 0)} events retained of "
        f"{ring_stats.get('recorded', 0)} recorded "
        f"({ring_stats.get('errors', 0)} errors)",
        file=out,
    )
    events = payload.get("events", [])
    if not events:
        print("no recorded events", file=out)
        return
    for event in events:
        marker = "!" if event.get("error") else " "
        span = event.get("span_id") or "-"
        data = " ".join(
            f"{k}={v}" for k, v in sorted(event.get("data", {}).items())
        )
        print(
            f"{marker} #{event.get('seq'):<6} {event.get('kind', '?'):<16} "
            f"span={span:<8} {event.get('detail', '')} {data}".rstrip(),
            file=out,
        )
    dump = payload.get("last_dump")
    if dump:
        print(
            f"last error dump: {dump.get('reason', '?')} "
            f"({len(dump.get('events', []))} events frozen)",
            file=out,
        )


def _top_round(polls: dict) -> dict[str, tuple[float, float, float] | str]:
    """One ``rls top`` round: each node's ``(ops/s, WAL queue depth, RLI
    staleness)``, or the error its fetch raised (the node is down)."""
    nodes: dict[str, tuple[float, float, float] | str] = {}
    for name, poll in polls.items():
        try:
            snapshot, delta, seconds = poll()
        except Exception as exc:
            nodes[name] = f"{type(exc).__name__}: {exc}"
            continue
        rate = _counter_total(delta, "rpc.requests") / seconds if seconds else 0.0
        nodes[name] = (
            rate,
            sum(_gauge_values(snapshot, "wal.queue_depth")),
            max(_gauge_values(snapshot, "rli.staleness_age"), default=0.0),
        )
    return nodes


def _top_lines(rounds: int, nodes: dict) -> list[str]:
    """A round's cluster line, then a line per node.  The cluster figures
    fold the nodes that answered: rates and queue depths sum (so the
    printed node rates add up to the cluster's), staleness takes the max."""
    up = [node for node in nodes.values() if not isinstance(node, str)]
    lines = [
        f"round {rounds}: nodes up {len(up)}/{len(nodes)}  cluster "
        f"ops/s={sum(rate for rate, _, _ in up):.1f}  "
        f"wal queue={sum(wal for _, wal, _ in up):g}  "
        f"staleness={max((age for _, _, age in up), default=0.0):.1f}s"
    ]
    for name, node in nodes.items():
        if isinstance(node, str):
            lines.append(f"  {name:<24} DOWN ({node})")
            continue
        rate, wal, age = node
        extra = f"  staleness={age:.1f}s" if age else ""
        if wal:
            extra += f"  wal_queue={wal:g}"
        lines.append(f"  {name:<24} ops/s={rate:>8.1f}{extra}")
    return lines


def _top(args: argparse.Namespace, out) -> int:
    """``rls top``: live per-node and cluster rates, a round of
    :func:`_poller` calls every ``--interval``."""
    specs = [spec.strip() for spec in args.servers.split(",") if spec.strip()]
    if not specs:
        print("no servers given", file=out)
        return 2
    clients: list[RLSClient] = []
    try:
        polls = {}
        for spec in specs:
            client = _open_client(spec)
            clients.append(client)
            polls[spec] = _poller(client)
        _top_round(polls)  # priming round: baselines every node
        rounds = 0
        try:
            while args.iterations is None or rounds < args.iterations:
                time.sleep(args.interval)
                rounds += 1
                for line in _top_lines(rounds, _top_round(polls)):
                    print(line, file=out)
                if args.principals or args.prefixes:
                    from repro.obs.usage import merge_usage_dicts

                    payloads = []
                    for client in clients:
                        try:
                            payloads.append(client.usage())
                        except Exception:
                            continue  # a down node loses its sketch rows
                    merged = merge_usage_dicts(payloads)
                    if args.principals:
                        print(
                            f"  top principals: "
                            f"{_fmt_hitters(merged.get('top_principals', []), 'principal')}",
                            file=out,
                        )
                    if args.prefixes:
                        print(
                            f"  hot prefixes:   "
                            f"{_fmt_hitters(merged.get('top_prefixes', []), 'prefix')}",
                            file=out,
                        )
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        return 0
    finally:
        for client in clients:
            client.close()


def _stats(
    row: admin.Surface, args: argparse.Namespace, client: RLSClient, out
) -> int:
    """``rls stats`` fronts three surfaces, chosen by ``--watch`` and
    ``--format``: the metrics snapshot, its text rendering, the stats."""
    if args.watch is not None:
        _watch(args, out, _stats_ticker(client))
        return 0
    if args.format == "text":
        print(client.metrics_text(), file=out, end="")
        return 0
    stats = _call(row, args, client)
    if args.format == "json":
        _print_json(stats, args, out)
        return 0
    roles = "+".join(
        role for role, on in stats.get("roles", {}).items() if on
    ) or "none"
    print(f"server {stats.get('name')} ({roles}, "
          f"{stats.get('backend')} backend)", file=out)
    print(f"requests served: {stats.get('requests_served')}  "
          f"errors: {stats.get('errors_returned')}", file=out)
    for section in ("lrc", "rli", "updates"):
        if section in stats:
            fields = "  ".join(
                f"{k}={v}"
                for k, v in sorted(stats[section].items())
                if not isinstance(v, dict)
            )
            print(f"{section}: {fields}", file=out)
    for name, health in sorted(
        stats.get("updates", {}).get("targets", {}).items()
    ):
        status = "healthy" if health.get("healthy") else "UNHEALTHY"
        line = (f"  target {name}: {status}  backlog={health.get('backlog', 0)}"
                f"  retries={health.get('retries', 0)}")
        if health.get("needs_full"):
            line += "  needs_full"
        if health.get("last_error"):
            line += f"  last_error={health['last_error']}"
        print(line, file=out)
    _format_metrics_summary(stats.get("metrics", {}), out)
    return 0


def _workload(args: argparse.Namespace, client: RLSClient, out) -> int:
    from repro.workload.driver import LoadDriver
    from repro.workload.names import MappingSet, pfn_for

    names = MappingSet(
        count=args.count, prefix=args.prefix, seed=args.seed
    )
    driver = LoadDriver(
        server_name=args.server,
        clients=args.clients,
        threads_per_client=args.threads,
        total_operations=args.operations,
        connect_fn=lambda name, cred: _open_client(name),
    )
    if args.op == "add":
        lfns = names.lfns()
        if args.operations > len(lfns):
            print(
                f"--operations {args.operations} exceeds namespace size "
                f"{len(lfns)}; raise --count",
                file=out,
            )
            return 2
        operation = LoadDriver.add_op(lfns, pfn_for)
    elif args.op == "delete":
        operation = LoadDriver.delete_op(names.lfns(), pfn_for)
    elif args.op == "rli-query":
        operation = LoadDriver.rli_query_op(
            names.random_lfns(args.operations)
        )
    else:
        operation = LoadDriver.query_op(names.random_lfns(args.operations))
    before = None
    if args.metrics:
        before = MetricsSnapshot.from_dict(client.metrics())
    result = driver.run(operation)
    print(
        f"{result.operations} ops in {result.elapsed:.3f}s = "
        f"{result.rate:.1f} ops/s ({result.errors} errors, seed={args.seed})",
        file=out,
    )
    if args.metrics and before is not None:
        after = MetricsSnapshot.from_dict(client.metrics())
        delta = after.delta(before)
        _format_metrics_summary(delta.to_dict(), out)
    return 1 if result.errors else 0


def _shards(
    row: admin.Surface, args: argparse.Namespace, client: RLSClient, out
) -> int:
    """Print the server's shard map and its mirror delivery health."""
    info = _call(row, args, client)
    print(f"server: {info['self']}", file=out)
    if info.get("mirror_of"):
        print(f"role:   read-only mirror of {info['mirror_of']}", file=out)
    shard_map = info.get("shard_map")
    if not shard_map:
        print("no shard map configured (not a cluster member)", file=out)
        return 0
    mirrors = shard_map.get("mirrors", {})
    print(
        f"ring:   {len(shard_map['shards'])} shards, "
        f"{shard_map['vnodes']} vnodes/shard, "
        f"version {shard_map['version']}",
        file=out,
    )
    for shard in shard_map["shards"]:
        names = mirrors.get(shard, [])
        suffix = f" -> mirrors: {', '.join(names)}" if names else ""
        print(f"  shard {shard}{suffix}", file=out)
    delivery = client.mirror_list()
    if delivery:
        print("mirror delivery:", file=out)
        for name, state in delivery.items():
            status = "healthy" if state["healthy"] else "UNHEALTHY"
            print(
                f"  {name}: {status}, backlog={state['backlog']}, "
                f"retries={state['retries']}"
                + (
                    f", last_error={state['last_error']}"
                    if state["last_error"]
                    else ""
                ),
                file=out,
            )
    return 0


#: What ``cli.py`` adds to a table row, keyed by :attr:`admin.Surface.name`:
#: a text renderer ``(payload, args, out) -> exit status or None`` (a row
#: without one prints JSON), a fetch that is more than one call, the line a
#: ``--watch`` round prints.
_RENDERERS = {
    "ping": lambda payload, args, out: print(payload, file=out),
    "trigger_full_update": lambda seconds, args, out: print(
        f"full update in {seconds:.3f}s", file=out
    ),
    "trigger_incremental_update": lambda count, args, out: print(
        f"flushed {count} changes", file=out
    ),
    "expire_once": lambda count, args, out: print(
        f"expired {count} entries", file=out
    ),
    "verify": _render_verify,
    "traces": _render_traces,
    "slow_queries": _render_slowlog,
    "slo": _render_slo,
    "usage": _render_usage,
    "profile": _render_profile,
    "threads": _render_threads,
    "flight": _render_flight,
}
_FETCHERS = {"traces": _fetch_trace, "profile": _fetch_profile}
_TICKERS = {"slo": _slo_ticker, "usage": _usage_ticker}
#: Commands that do not have the fetch/--json/hint/render shape, by path.
_RUNNERS = {"stats": _stats, "shards": _shards}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Every administrative surface, declared once.

An administrative operation is reached three ways — an ``admin_*`` RPC
method, an HTTP route on the gateway, an ``rls`` subcommand — and each row
of :data:`SURFACES` states everything the three fronts need to know about
one of them: wire name, privilege, the producer that reads the server's
state (its signature is the ordered wire parameters, their types and
defaults), the route and the command(s) where the surface has them, and
the hint printed when its payload says ``enabled: false``.  The fronts
hold no per-surface code:

* :meth:`RLSServer._register_methods` registers the rows in one loop;
* the gateway looks a request up with :func:`find_route` and converts the
  query string with :meth:`Surface.arguments`;
* ``rls`` builds a subparser per :class:`Command`, finds the row of a
  command line with :func:`commands` and runs it through one fetch →
  ``--json`` → hint → render step; the text renderers are plain functions
  in ``cli.py`` keyed by :attr:`Surface.name`.

:class:`~repro.core.client.RLSClient` keeps a named, typed method per row
(``client.traces(limit=20)``) as the public API; a test holds the two
together.  **Adding a surface** is one row here plus its producer — and a
renderer in ``cli.py`` if it wants a table instead of JSON.
"""

from __future__ import annotations

import builtins
import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from repro.core.errors import NotConfiguredError
from repro.obs import tracing
from repro.obs.assemble import TraceAssembler, cluster_sources, tracer_source
from repro.security.acl import Privilege

if TYPE_CHECKING:
    from repro.core.server import RLSServer


class Param(NamedTuple):
    """One positional wire argument: ``?name=`` on a route, ``--name`` on a
    command.  ``default`` is ``inspect.Parameter.empty`` when the caller
    must supply it."""

    name: str
    type: type
    default: Any


def _ok(result: Any) -> tuple[int, Any]:
    return 200, result


@dataclass(frozen=True)
class Route:
    """Where the gateway serves a surface.  A trailing ``<name>`` in
    ``path`` binds the rest of the request path to that parameter;
    ``reply`` turns the RPC result into ``(status, body)``."""

    verb: str
    path: str
    reply: Callable[[Any], tuple[int, Any]] = _ok
    #: The body is Prometheus exposition text, not JSON.
    text: bool = False


class Flag:
    """A command-line argument only one surface has: ``argparse``
    ``add_argument`` names and keywords.  ``format=True`` marks a choice of
    output format, exclusive with the others and with ``--json``."""

    def __init__(self, *names: str, format: bool = False, **options: Any) -> None:
        self.names, self.format, self.options = names, format, options


@dataclass(frozen=True)
class Command:
    """The ``rls`` subcommand that fronts a surface.  The row's parameters
    become arguments by themselves (``--limit``); this adds what the wire
    does not know."""

    path: str
    help: str
    #: The server is named by ``--server`` instead of a positional.
    server_flag: bool = False
    flags: tuple[Flag, ...] = ()
    json: bool = True
    #: What a ``--watch`` round prints; ``None``: no ``--watch``.
    watch: str | None = None
    #: Parameter defaults where the command's differ from the wire's.
    defaults: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Surface:
    """One administrative operation and every front it has."""

    method: str
    #: ``produce(server, *args)`` builds the reply from server state; the
    #: server registers it bound to itself, so its signature is the wire's.
    produce: Callable[..., Any]
    #: ``None``: answered without an ACL check (liveness probe).
    privilege: Privilege | None = Privilege.ADMIN
    route: Route | None = None
    command: Command | None = None
    #: The surface is also ``rls admin <op>``, printing one line.
    admin_op: str | None = None
    #: Printed (exit status 1) when the payload says ``enabled: false``.
    hint: str | None = None

    @property
    def name(self) -> str:
        """The :class:`RLSClient` method, and the key ``cli.py`` files
        this surface's renderer under."""
        return self.method.removeprefix("admin_")

    @property
    def params(self) -> tuple[Param, ...]:
        """The wire parameters: what follows ``server`` in the producer's
        signature, typed by annotation."""
        found = []
        for p in list(inspect.signature(self.produce).parameters.values())[1:]:
            if p.kind is p.POSITIONAL_OR_KEYWORD:
                kind = p.annotation
                if isinstance(kind, str):  # ``from __future__ import annotations``
                    kind = getattr(builtins, kind)
                found.append(Param(p.name, kind, p.default))
        return tuple(found)

    def arguments(self, given: Mapping[str, Any]) -> list[Any]:
        """Positional wire arguments from named values; a string (query
        string, path segment) is converted by the parameter's type.
        Unknown names are ignored; ``ValueError`` names the parameter that
        is missing or malformed."""
        args = []
        for name, kind, default in self.params:
            value = given.get(name)
            if value is None:
                if default is inspect.Parameter.empty:
                    raise ValueError(f"{name}: required")
                value = default
            elif not isinstance(value, kind):
                try:
                    value = kind(value)
                except ValueError:
                    raise ValueError(
                        f"{name}: expected {kind.__name__}, got {value!r}"
                    ) from None
            args.append(value)
        return args


# ---------------------------------------------------------------------------
# Producers: code that reads server state
# ---------------------------------------------------------------------------


def _stats(server: "RLSServer") -> dict[str, Any]:
    config = server.config
    stats: dict[str, Any] = {
        "name": config.name,
        "roles": {"lrc": config.is_lrc, "rli": config.is_rli},
        "backend": config.backend.value,
        "requests_served": server.rpc.requests_served,
        "errors_returned": server.rpc.errors_returned,
    }
    if server.lrc is not None:
        stats["lrc"] = {
            "lfns": server.lrc.lfn_count(),
            "mappings": server.lrc.mapping_count(),
        }
    if server.rli is not None:
        stats["rli"] = {
            "mappings": server.rli.mapping_count(),
            "bloom_filters": server.rli.bloom_filter_count(),
            "updates_applied": server.rli.updates_applied,
            "staleness_age": server.rli.staleness_age(),
            "staleness_ages": server.rli.staleness_ages(),
        }
    if server.update_manager is not None:
        s = server.update_manager.stats
        stats["updates"] = {
            "full": s.full_updates,
            "incremental": s.incremental_updates,
            "bloom": s.bloom_updates,
            "names_sent": s.names_sent,
            "bloom_bytes_sent": s.bytes_sent_bloom,
            "errors": s.errors,
            "retries": s.retries,
            "targets": server.update_manager.target_health(),
        }
    if server.mirror_ingest is not None:
        stats["mirror"] = server.mirror_ingest.to_dict()
    if server.mirror_manager is not None:
        s = server.mirror_manager.stats
        stats["mirrors"] = {
            "ships": s.ships,
            "resets": s.resets,
            "records_shipped": s.records_shipped,
            "errors": s.errors,
            "retries": s.retries,
            "targets": server.mirror_manager.target_health(),
        }
    stats["metrics"] = server.metrics.snapshot().to_dict()
    return stats


def _traces(server: "RLSServer", limit: int = 100) -> dict[str, Any]:
    """Tail-retained spans from the process-wide tracer's sink.

    Tracing is an opt-in process-wide facility (``rls serve --trace`` or
    :func:`repro.obs.tracing.install_tracer`); with none installed this
    reports ``enabled: False`` rather than failing.
    """
    sink = tracing.current_sink()
    if sink is None:
        return {"enabled": False, "stats": {}, "spans": []}
    payload = sink.to_dict(limit=limit)
    payload["enabled"] = True
    return payload


def _trace_fragments(server: "RLSServer", trace_id: str) -> dict[str, Any]:
    """This node's raw span fragments for one trace.

    Accepts a span id too (``rls slowlog`` prints both), resolving it to
    its trace.
    """
    tracer = tracing.current_tracer()
    if tracer is None:
        return {
            "enabled": False,
            "node": server.config.name,
            "trace_id": trace_id,
            "spans": [],
        }
    resolved = tracer.resolve_trace(trace_id) or trace_id
    return {
        "enabled": True,
        "node": server.config.name,
        "trace_id": resolved,
        "spans": [s.to_dict() for s in tracer.fragments(resolved)],
    }


def _trace(server: "RLSServer", trace_id: str) -> dict[str, Any]:
    """Cluster-stitched view of one trace (tree + critical path).

    A cluster member fans ``admin_trace_fragments`` out to every endpoint
    in its shard map, dialled as update sinks are (a registered TCP
    address first, the in-process name as fallback); unreachable nodes are
    tolerated and reported under ``missing``.  Outside a cluster the local
    fragments are assembled alone.
    """
    tracer = tracing.current_tracer()
    if tracer is None:
        return {
            "enabled": False,
            "trace_id": trace_id,
            "spans": [],
            "tree": [],
            "critical_path": [],
            "nodes": {},
            "missing": {},
        }
    resolved = tracer.resolve_trace(trace_id) or trace_id
    sources = [tracer_source(server.config.name, tracer)]
    if server.config.cluster is not None:
        from repro.core import membership
        from repro.core.client import RLSClient

        sources += cluster_sources(
            server.config.cluster.to_dict(),
            lambda name: RLSClient(membership.client(name)),
            skip=server.config.name,
        )
    payload = TraceAssembler(sources).assemble(resolved).to_dict()
    payload["enabled"] = True
    return payload


def _trace_reply(payload: dict[str, Any]) -> tuple[int, Any]:
    """The trace route's status: with a tracer installed, an id no node
    retains is a miss; with none, the route degrades to ``{"enabled":
    false}`` like the others."""
    missed = payload.get("enabled") and not payload.get("spans")
    return (404 if missed else 200), payload


def _slo(server: "RLSServer") -> dict[str, Any]:
    """Current SLO state: per-class SLIs, burn rates, budget, alerts.

    The recorder has no thread: this ticks it, so the answer always
    covers traffic up to now at the cost of one registry snapshot.
    """
    server.slo.tick()
    return server.slo.to_dict()


def _usage(server: "RLSServer") -> dict[str, Any]:
    """Per-principal usage table, heavy-hitter sketches included."""
    if server.usage is None:
        return {
            "enabled": False,
            "principals": {},
            "top_principals": [],
            "top_prefixes": [],
        }
    return server.usage.to_dict()


def _slow_queries(server: "RLSServer", limit: int = 50) -> dict[str, Any]:
    """Tail-retained slow/error statements from the engine's query log;
    with profiling off, ``enabled: False`` and whatever the log last
    retained."""
    profiler = server.engine.profiler
    payload = profiler.log.to_dict(limit=limit)
    payload["enabled"] = profiler.enabled
    return payload


def _threads(server: "RLSServer") -> dict[str, Any]:
    """Point-in-time dump of registered threads plus stuck detections.

    Works even with the sampler disabled — the dump walks live frames on
    demand; only ``consecutive_top`` bookkeeping needs samples.
    """
    return {
        "enabled": True,
        "threads": server.profiler.thread_dump(),
        "detections": [d.to_dict() for d in server.profiler.detections()],
    }


def _flight(server: "RLSServer", limit: int = 100) -> dict[str, Any]:
    """Flight-recorder snapshot: stats, event tail, last error dump."""
    if server.flight is None:
        return {"enabled": False, "stats": {}, "events": [], "last_dump": None}
    payload = server.flight.to_dict(limit=limit)
    payload["enabled"] = True
    return payload


def _updates(server: "RLSServer"):
    if server.update_manager is None:
        raise NotConfiguredError(
            "server has no update manager (not an LRC, or a read-only mirror)"
        )
    return server.update_manager


def _mirror_sync(server: "RLSServer") -> int:
    """Ship the log to every registered mirror now; returns records shipped."""
    if server.mirror_manager is None:
        raise NotConfiguredError(
            f"server {server.config.name!r} has no mirrors registered"
        )
    return server.mirror_manager.sync()


def _shard_map(server: "RLSServer") -> dict[str, Any]:
    """Topology answer any cluster member can serve (client bootstrap)."""
    cluster = server.config.cluster
    return {
        "self": server.config.name,
        "mirror_of": server.config.mirror_of,
        "shard_map": cluster.to_dict() if cluster is not None else None,
    }


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

TRACING_HINT = "tracing not enabled on server (start it with: rls serve --trace)"

SURFACES: tuple[Surface, ...] = (
    # The liveness probe answers whatever it is sent.
    Surface("admin_ping", lambda server, *_: "pong", privilege=None, admin_op="ping"),
    Surface(
        "admin_stats",
        _stats,
        route=Route("GET", "/admin/stats"),
        command=Command(
            "stats",
            "live server metrics (counters and latency percentiles)",
            flags=(
                Flag(
                    "--format",
                    choices=["summary", "json", "text"],
                    default="summary",
                    help="summary (default), raw JSON snapshot, or Prometheus text",
                ),
            ),
            json=False,
            watch="per-interval rates",
        ),
        admin_op="stats",
    ),
    Surface("admin_metrics", lambda server: server.metrics.snapshot().to_dict()),
    Surface(
        "admin_metrics_text",
        lambda server: server.metrics.render_text(),
        route=Route("GET", "/metrics", text=True),
    ),
    Surface(
        "admin_traces",
        _traces,
        route=Route("GET", "/admin/traces"),
        # One command over this row and the next: with a trace id it
        # fetches ``admin_trace`` (cli.py's fetcher for this row).
        command=Command(
            "trace",
            "tail-retained spans, or one stitched trace by id",
            server_flag=True,
            flags=(
                Flag(
                    "trace_id",
                    nargs="?",
                    help="trace (or span) id to assemble — the ids printed by "
                    "the listing and by 'rls slowlog' both work",
                ),
                Flag(
                    "--critical-path",
                    action="store_true",
                    help="with a trace id: also print the critical path with "
                    "wall time attributed per segment (routing, net wait, db, "
                    "wal, ...)",
                ),
            ),
            defaults={"limit": 20},
        ),
        hint=TRACING_HINT,
    ),
    Surface(
        "admin_trace",
        _trace,
        route=Route("GET", "/admin/trace/<trace_id>", reply=_trace_reply),
        hint=TRACING_HINT,
    ),
    Surface("admin_trace_fragments", _trace_fragments),
    Surface(
        "admin_slo",
        _slo,
        route=Route("GET", "/admin/slo"),
        command=Command(
            "slo",
            "SLO state: per-class SLIs, burn rates, error budget",
            watch="one burn-rate line per round",
        ),
        hint="slo recorder not enabled on server",
    ),
    Surface(
        "admin_usage",
        _usage,
        route=Route("GET", "/admin/usage"),
        command=Command(
            "usage",
            "per-principal resource usage and heavy hitters",
            watch="per-interval request rates by principal",
        ),
        hint="usage accounting not enabled on server",
    ),
    Surface(
        "admin_slow_queries",
        _slow_queries,
        route=Route("GET", "/admin/queries"),
        command=Command(
            "slowlog",
            "tail-retained slow/error SQL statements",
            server_flag=True,
            flags=(
                Flag(
                    "--plans",
                    action="store_true",
                    help="also print each statement's recorded operator plan",
                ),
            ),
            defaults={"limit": 20},
        ),
    ),
    Surface(
        "admin_profile",
        # Cumulative sampler state; with ``profile_hz=0`` (the default)
        # ``enabled: False`` and zero samples.
        lambda server: server.profiler.to_dict(),
        route=Route("GET", "/admin/profile"),
        command=Command(
            "profile",
            "sampling-profiler folded stacks (FlameGraph input)",
            flags=(
                Flag(
                    "--seconds",
                    type=float,
                    default=None,
                    metavar="N",
                    help="sample a window: diff two snapshots N seconds apart "
                    "(default: cumulative since server start)",
                ),
                Flag(
                    "--folded",
                    format=True,
                    action="store_true",
                    help="raw 'stack count' lines (pipe into flamegraph.pl)",
                ),
            ),
        ),
        hint="profiler not enabled on server (set ServerConfig.profile_hz > 0)",
    ),
    Surface(
        "admin_threads",
        _threads,
        route=Route("GET", "/admin/threads"),
        command=Command(
            "threads", "thread dump: roles, spans, stuck-thread detections"
        ),
    ),
    Surface(
        "admin_flight",
        _flight,
        route=Route("GET", "/admin/flight"),
        command=Command(
            "flight",
            "flight-recorder events (the server's black box)",
            defaults={"limit": 50},
        ),
        hint="flight recorder not enabled on server "
        "(set ServerConfig.flight_capacity > 0)",
    ),
    Surface(
        "admin_trigger_full_update",
        lambda server: _updates(server).send_full_update(),
        route=Route("POST", "/admin/update", reply=lambda s: (200, {"duration": s})),
        admin_op="update",
    ),
    Surface(
        "admin_trigger_incremental_update",
        lambda server: _updates(server).send_incremental_update(),
        admin_op="incremental",
    ),
    Surface(
        "admin_expire_once",
        lambda server: server._need_rli().expire_once(),
        admin_op="expire",
    ),
    Surface("admin_rebuild_bloom", lambda server: _updates(server).rebuild_bloom()),
    Surface(
        "admin_verify",
        lambda server: server._need_lrc().verify_integrity(),
        admin_op="verify",
    ),
    Surface("admin_mirror_sync", _mirror_sync),
    Surface(
        "admin_shard_map",
        _shard_map,
        privilege=Privilege.LRC_READ,
        route=Route("GET", "/admin/shard_map"),
        command=Command(
            "shards",
            "cluster shard map + mirror delivery health",
            server_flag=True,
            json=False,
        ),
    ),
)


def find_route(verb: str, path: str) -> tuple[Surface, dict[str, str]] | None:
    """The row served at ``verb path`` (no query string) and the
    parameters its path binds; ``None`` when the table has no such route."""
    for row in SURFACES:
        route = row.route
        if route is None or route.verb != verb:
            continue
        prefix, _, param = route.path.partition("<")
        if not param:
            if path == prefix:
                return row, {}
        elif path.startswith(prefix):
            return row, {param.rstrip(">"): path[len(prefix):]}
    return None


def commands() -> dict[str, Surface]:
    """``rls`` command path → row: ``"slowlog"``, or ``"admin ping"`` for
    an op of ``rls admin``."""
    found = {}
    for row in SURFACES:
        if row.command is not None:
            found[row.command.path] = row
        if row.admin_op is not None:
            found[f"admin {row.admin_op}"] = row
    return found

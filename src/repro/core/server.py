"""The common LRC/RLI server (Figure 2).

One :class:`RLSServer` hosts an LRC, an RLI, or both, over a relational
back end reached through the ODBC layer, fronted by the RPC substrate with
GSI-style authentication and per-operation ACL checks.  Every operation in
the paper's Table 1 is exposed as an RPC method.
"""

from __future__ import annotations

import ctypes
import threading
from functools import partial
from typing import Any, Callable, NamedTuple

from repro.cluster.mirror import MirrorIngest, MirrorManager, MirrorSink
from repro.core import admin as admin_table
from repro.core.config import Backend, ServerConfig
from repro.core.errors import NotConfiguredError, ReadOnlyCatalogError
from repro.core.lrc import LocalReplicaCatalog
from repro.core.rli import ReplicaLocationIndex
from repro.core.updates import DirectSink, UpdateManager, UpdateSink, tick_task
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection, register_dsn, unregister_dsn
from repro.db.postgres_engine import PostgresEngine
from repro.net.rpc import ConnectionContext, RPCServer
from repro.net.transport import LocalTransport, TCPServerTransport
from repro.obs import tracing
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.periodic import Periodic
from repro.obs.profile import SamplingProfiler
from repro.obs.slo import SLIRecorder
from repro.obs.usage import UsageAccountant
from repro.security.acl import Privilege
from repro.security.authorizer import Authorizer

#: glibc's ``mallopt`` parameter for the most arenas it may create.
_M_ARENA_MAX = -8


def _one_malloc_arena() -> None:
    """Serve every thread's C allocations from one glibc arena.

    The server runs a thread per connection, and glibc gives a thread its
    own arena, or the arena of a thread that has exited if it finds one
    first.  Which of the two a connection gets depends on thread timing,
    and the process's resident memory with it: on a two-core VM one
    bulk-write run left 84.3 MB resident and the same run again 86.0 MB.
    From one arena every run reads the same (84.1-84.3 MB).  Under the GIL
    the threads seldom allocate at the same moment, so sharing costs no
    wait.  Without glibc there is no ``mallopt`` and nothing is done.
    """
    try:
        ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1)
    except (AttributeError, OSError):
        pass


class CatalogMethod(NamedTuple):
    """One LRC/RLI RPC method: everything the server knows about it."""

    name: str  #: the wire name
    privilege: Privilege  #: checked against the caller before ``call`` runs
    #: SLO and usage operation class (``repro.obs.slo.OPERATION_CLASSES``),
    #: ``None`` for topology and replication traffic.
    op_class: str | None
    #: A read-only mirror rejects the method: it would change catalog state,
    #: which a mirror takes only from its master's log.
    writes: bool
    #: ``call(server, *args)`` answers the request.
    call: Callable[..., Any]


_M = CatalogMethod
_LRC_READ, _LRC_WRITE = Privilege.LRC_READ, Privilege.LRC_WRITE
_RLI_READ, _RLI_WRITE = Privilege.RLI_READ, Privilege.RLI_WRITE

#: Every non-admin RPC method, one row each (the admin surfaces are the rows
#: of ``repro.core.admin.SURFACES``).  A row calls ``s._need_lrc()`` or
#: ``s._need_rli()`` itself, so a request runs no extra Python frame.
CATALOG_METHODS: tuple[CatalogMethod, ...] = (
    # -- LRC mapping management --
    _M("lrc_create_mapping", _LRC_WRITE, "add", True, lambda s, lfn, pfn: s._need_lrc().create_mapping(lfn, pfn)),
    _M("lrc_add_mapping", _LRC_WRITE, "add", True, lambda s, lfn, pfn: s._need_lrc().add_mapping(lfn, pfn)),
    _M("lrc_delete_mapping", _LRC_WRITE, "add", True, lambda s, lfn, pfn: s._need_lrc().delete_mapping(lfn, pfn)),
    _M("lrc_bulk_create", _LRC_WRITE, "bulk", True, lambda s, pairs: s._need_lrc().bulk_create([tuple(p) for p in pairs])),
    _M("lrc_bulk_add", _LRC_WRITE, "bulk", True, lambda s, pairs: s._need_lrc().bulk_add([tuple(p) for p in pairs])),
    _M("lrc_bulk_delete", _LRC_WRITE, "bulk", True, lambda s, pairs: s._need_lrc().bulk_delete([tuple(p) for p in pairs])),
    # -- LRC queries --
    _M("lrc_get_mappings", _LRC_READ, "query", False, lambda s, lfn: s._need_lrc().get_mappings(lfn)),
    _M("lrc_get_lfns", _LRC_READ, "query", False, lambda s, pfn: s._need_lrc().get_lfns(pfn)),
    _M("lrc_query_wildcard", _LRC_READ, "wildcard", False, lambda s, pat: [list(t) for t in s._need_lrc().query_wildcard(pat)]),
    _M("lrc_bulk_query", _LRC_READ, "bulk", False, lambda s, lfns: s._need_lrc().bulk_query(lfns)),
    _M("lrc_exists", _LRC_READ, "query", False, lambda s, lfn: s._need_lrc().exists(lfn)),
    _M("lrc_lfn_count", _LRC_READ, "query", False, lambda s: s._need_lrc().lfn_count()),
    _M("lrc_mapping_count", _LRC_READ, "query", False, lambda s: s._need_lrc().mapping_count()),
    # -- LRC attributes --
    _M("lrc_attr_define", _LRC_WRITE, "add", True, lambda s, name, objtype, attrtype: s._need_lrc().define_attribute(name, objtype, attrtype)),
    _M("lrc_attr_undefine", _LRC_WRITE, "add", True, lambda s, name, objtype: s._need_lrc().undefine_attribute(name, objtype)),
    _M("lrc_attr_add", _LRC_WRITE, "add", True, lambda s, obj, name, objtype, value: s._need_lrc().add_attribute(obj, name, objtype, value)),
    _M("lrc_attr_modify", _LRC_WRITE, "add", True, lambda s, obj, name, objtype, value: s._need_lrc().modify_attribute(obj, name, objtype, value)),
    _M("lrc_attr_remove", _LRC_WRITE, "add", True, lambda s, obj, name, objtype: s._need_lrc().remove_attribute(obj, name, objtype)),
    _M("lrc_attr_get", _LRC_READ, "query", False, lambda s, obj, objtype: s._need_lrc().get_attributes(obj, objtype)),
    _M("lrc_attr_query", _LRC_READ, "wildcard", False, lambda s, name, objtype, value, op: [list(t) for t in s._need_lrc().query_by_attribute(name, objtype, value, op)]),
    _M("lrc_attr_bulk_add", _LRC_WRITE, "bulk", True, lambda s, triples, objtype: s._need_lrc().bulk_add_attribute([tuple(t) for t in triples], objtype)),
    # -- LRC management: RLI registrations replicate to mirrors too --
    _M("lrc_rli_add", Privilege.ADMIN, None, True, lambda s, name, bloom, patterns: s._need_lrc().add_rli(name, bloom, patterns)),
    _M("lrc_rli_remove", Privilege.ADMIN, None, True, lambda s, name: s._need_lrc().remove_rli(name)),
    _M("lrc_rli_list", _LRC_READ, None, False, lambda s: [
        {"name": t.name, "bloom": t.bloom, "patterns": list(t.patterns)}
        for t in s._need_lrc().rli_targets()
    ]),
    # -- RLI queries --
    _M("rli_query", _RLI_READ, "query", False, lambda s, lfn: s._need_rli().query(lfn)),
    _M("rli_bulk_query", _RLI_READ, "bulk", False, lambda s, lfns: s._need_rli().bulk_query(lfns)),
    _M("rli_query_wildcard", _RLI_READ, "wildcard", False, lambda s, pat: [list(t) for t in s._need_rli().query_wildcard(pat)]),
    _M("rli_lrc_list", _RLI_READ, "query", False, lambda s: s._need_rli().lrc_list()),
    # -- RLI soft-state ingest --
    _M("rli_full_update", _RLI_WRITE, None, False, lambda s, lrc, lfns: s._need_rli().apply_full_update(lrc, lfns)),
    _M("rli_incremental_update", _RLI_WRITE, None, False, lambda s, lrc, added, removed: s._need_rli().apply_incremental_update(lrc, added, removed)),
    _M("rli_bloom_update", _RLI_WRITE, None, False, lambda s, lrc, bitmap, nbits, k, entries: s._need_rli().apply_bloom_update(lrc, bitmap, nbits, k, entries)),
    # -- sharded cluster: the mirror feed (a mirror's one writer) + topology --
    _M("mirror_ship", _LRC_WRITE, None, False, lambda s, master, after, data: s._need_ingest().apply_log(master, after, data)),
    _M("lrc_mirror_add", Privilege.ADMIN, None, False, lambda s, name: s._ensure_mirror_manager().add_mirror(name)),
    _M("lrc_mirror_remove", Privilege.ADMIN, None, False, lambda s, name: None if s.mirror_manager is None else s.mirror_manager.remove_mirror(name)),
    _M("lrc_mirror_list", _LRC_READ, None, False, lambda s: {} if s.mirror_manager is None else s.mirror_manager.target_health()),
)

#: Method -> operation class, for the SLI recorder.
OP_CLASSES: dict[str, str] = {
    row.name: row.op_class for row in CATALOG_METHODS if row.op_class is not None
}


class RLSServer:
    """A running RLS server instance."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        sink_resolver: Callable[[str], UpdateSink] | None = None,
        metrics: MetricsRegistry | None = None,
        mirror_sink_resolver: Callable[[str], MirrorSink] | None = None,
    ) -> None:
        _one_malloc_arena()  # before this server starts any thread
        self.config = config or ServerConfig()
        self.authorizer = Authorizer(self.config.security)
        self._started = False
        self._lock = threading.Lock()
        # Every component shares this registry, so one snapshot covers the
        # whole server: RPC dispatch, transports, WAL, LRC/RLI, updates.
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        # --- database back end (Figure 2: server -> ODBC -> engine) ---
        if self.config.backend is Backend.MYSQL:
            self.engine: Any = MySQLEngine(
                name=f"{self.config.name}-db",
                flush_on_commit=self.config.flush_on_commit,
                sync_latency=self.config.sync_latency,
                metrics=self.metrics,
            )
        else:
            self.engine = PostgresEngine(
                name=f"{self.config.name}-db",
                fsync=self.config.flush_on_commit,
                sync_latency=self.config.sync_latency,
                metrics=self.metrics,
            )
        self.engine.profiler.configure(
            enabled=self.config.profile_queries,
            slow_threshold=self.config.slow_query_threshold,
        )

        # --- flight recorder + sampling profiler ---
        self.flight: FlightRecorder | None = (
            FlightRecorder(capacity=self.config.flight_capacity)
            if self.config.flight_capacity > 0
            else None
        )
        if self.flight is not None and self.engine.wal is not None:
            # WAL flushes land in the same ring as RPC and update events.
            self.engine.wal.flight = self.flight
        self.profiler = SamplingProfiler(
            hz=self.config.profile_hz,
            metrics=self.metrics,
            inflight=self._rpc_inflight,
        )
        self.dsn = f"{self.config.name}-dsn"
        register_dsn(self.dsn, self.engine)
        self.connection = Connection(self.engine, self.dsn)

        # --- services ---
        self.lrc: LocalReplicaCatalog | None = None
        self.rli: ReplicaLocationIndex | None = None
        self.update_manager: UpdateManager | None = None
        if self.config.is_lrc:
            self.lrc = LocalReplicaCatalog(
                self.connection, name=self.config.name, metrics=self.metrics
            )
            self.lrc.init_schema()
            # A mirror's t_rli is its master's: the master advertises the shard.
            if not self.config.mirror_of:
                resolver = sink_resolver or self._default_sink_resolver
                self.update_manager = UpdateManager(
                    self.lrc, resolver, policy=self.config.updates,
                    metrics=self.metrics, flight=self.flight,
                )
        # --- sharded-cluster roles (mirror master / read-only mirror) ---
        self._mirror_sink_resolver = mirror_sink_resolver
        self.mirror_manager: MirrorManager | None = None
        self.mirror_ingest: MirrorIngest | None = None
        if self.config.mirror_of:
            self.mirror_ingest = MirrorIngest(
                self._need_lrc(),
                master=self.config.mirror_of,
                metrics=self.metrics,
            )
        if self.config.mirrors:
            manager = self._ensure_mirror_manager()
            for mirror_name in self.config.mirrors:
                manager.add_mirror(mirror_name)
        if self.config.is_rli:
            # The RLI tables live in their own engine when the server is
            # also an LRC, since both schemas define t_lfn/t_map.
            if self.config.is_lrc:
                rli_engine = MySQLEngine(
                    name=f"{self.config.name}-rli-db",
                    flush_on_commit=False,
                    sync_latency=self.config.sync_latency,
                )
                rli_conn = Connection(rli_engine, f"{self.config.name}-rli")
            else:
                rli_conn = self.connection
            self.rli = ReplicaLocationIndex(
                rli_conn, name=self.config.name, timeout=self.config.rli_timeout,
                metrics=self.metrics,
            )
            self.rli.init_schema()

        # --- service-level objectives (admin_slo / rls slo) ---
        self.slo = SLIRecorder(
            self.metrics,
            classes=OP_CLASSES,
            shard=self.config.mirror_of or (
                self.config.name if self.config.cluster is not None else ""
            ),
            endpoint=self.config.name,
        )

        # --- per-principal usage accounting (admin_usage / rls usage) ---
        self.usage: UsageAccountant | None = (
            UsageAccountant(
                metrics=self.metrics,
                max_principals=self.config.usage_max_principals,
            )
            if self.config.usage_accounting
            else None
        )

        # --- RPC front end ---
        self.rpc = RPCServer(
            authenticator=self.authorizer.authenticate,
            metrics=self.metrics,
            name=self.config.name,
            principal_mapper=self.authorizer.account_principal,
            observers=[o for o in (self.flight, self.usage) if o is not None],
        )
        self._register_methods()
        self.local_transport = LocalTransport(
            self.rpc,
            name=self.config.name,
            service_time=self.config.service_latency,
        )
        self.tcp_transport: TCPServerTransport | None = None
        if self.config.tcp:
            self.tcp_transport = TCPServerTransport(
                self.rpc, self.config.tcp_host, self.config.tcp_port
            )

        # --- daemons: expiry, update scheduler, mirror-feed scheduler ---
        self._tasks: dict[str, Periodic] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "RLSServer":
        """Start background daemons (expire thread, update scheduler)."""
        with self._lock:
            if self._started:
                return self
            # A task a previous stop() could not join is still held: keep
            # it (start() is a no-op on it) rather than lose its thread.
            if self.rli is not None and "expire" not in self._tasks:
                self._tasks["expire"] = Periodic(
                    f"rli-expire-{self.rli.name}",
                    self.config.expire_interval,
                    self.rli.expire_once,
                    role="expire",
                    metrics=self.metrics,
                )
            for key, manager in (
                ("updates", self.update_manager),
                ("mirror", self.mirror_manager),
            ):
                if manager is not None and key not in self._tasks:
                    self._tasks[key] = tick_task(
                        manager, self.config.update_poll_interval
                    )
            for task in self._tasks.values():
                task.start()
            if self.profiler.enabled:
                self.profiler.start()
            # Prime the SLI recorder so its first real tick (at admin_slo
            # time) attributes all traffic since start instead of
            # swallowing it as baseline.
            self.slo.tick()
            self._started = True
        return self

    def stop(self) -> None:
        """Stop every daemon and transport; raises if a thread this server
        started is still alive afterwards (it stays held, so a second
        ``stop()`` joins it again)."""
        with self._lock:
            stuck = [n for n, task in self._tasks.items() if not task.stop()]
            self._tasks = {name: self._tasks[name] for name in stuck}
            if not self.profiler.stop():
                stuck.append("profiler")
            self.local_transport.close()
            if self.tcp_transport is not None:
                self.tcp_transport.close()
            unregister_dsn(self.dsn)
            self._started = False
        if stuck:
            raise RuntimeError(
                f"server {self.config.name!r}: background tasks did not "
                f"exit: {', '.join(stuck)}"
            )

    def __enter__(self) -> "RLSServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        if self.tcp_transport is None:
            return None
        return (self.tcp_transport.host, self.tcp_transport.port)

    # ------------------------------------------------------------------
    # Method table
    # ------------------------------------------------------------------

    def _ensure_mirror_manager(self) -> MirrorManager:
        """Create the mirror delivery manager lazily (first mirror added).

        When the server is already started, the manager gets its own
        background scheduler immediately; otherwise :meth:`start` will
        launch it.
        """
        if self.mirror_manager is None:
            if self.config.mirror_of:
                raise ReadOnlyCatalogError(
                    f"server {self.config.name!r} is a read-only mirror of "
                    f"{self.config.mirror_of!r}; it cannot have mirrors"
                )
            self.mirror_manager = MirrorManager(
                self._need_lrc(),
                sink_resolver=self._mirror_sink_resolver,
                policy=self.config.updates,
                push_interval=self.config.mirror_push_interval,
                metrics=self.metrics,
                flight=self.flight,
            )
            with self._lock:
                if self._started and "mirror" not in self._tasks:
                    self._tasks["mirror"] = tick_task(
                        self.mirror_manager, self.config.update_poll_interval
                    ).start()
        return self.mirror_manager

    def _default_sink_resolver(self, name: str) -> UpdateSink:
        """Resolve an RLI name to a sink via the in-process registry."""
        if self.rli is not None and name == self.config.name:
            return DirectSink(self.rli)
        from repro.core.membership import resolve_sink

        return resolve_sink(name)

    def _need_lrc(self) -> LocalReplicaCatalog:
        if self.lrc is None:
            raise NotConfiguredError(
                f"server {self.config.name!r} is not configured as an LRC"
            )
        return self.lrc

    def _need_rli(self) -> ReplicaLocationIndex:
        if self.rli is None:
            raise NotConfiguredError(
                f"server {self.config.name!r} is not configured as an RLI"
            )
        return self.rli

    def _register_methods(self) -> None:
        def guarded(privilege: Privilege | None, fn: Callable[..., Any]):
            if privilege is None:
                return lambda ctx, args: fn(*args)
            privilege_name = privilege.name.lower()

            def handler(ctx: ConnectionContext, args: tuple) -> Any:
                with tracing.span("acl.check", privilege=privilege_name):
                    self.authorizer.check(privilege, ctx.principal)
                return fn(*args)

            return handler

        # A read-only mirror's one writer is the log replay (`mirror_ship`):
        # it rejects every client-facing catalog write with a typed error
        # the combined client (and users) can route on.
        read_only = bool(self.config.mirror_of)
        for row in CATALOG_METHODS:
            if read_only and row.writes:
                handler = self._read_only(row.name)
            else:
                handler = guarded(row.privilege, partial(row.call, self))
            self.rpc.register(row.name, handler, row.op_class)
        # -- admin: one row per surface, declared in core/admin.py --
        for surface in admin_table.SURFACES:
            self.rpc.register(
                surface.method, guarded(surface.privilege, partial(surface.produce, self))
            )

    def _read_only(self, method: str) -> Callable[[ConnectionContext, tuple], Any]:
        def handler(ctx: ConnectionContext, args: tuple) -> Any:
            raise ReadOnlyCatalogError(
                f"{method}: server {self.config.name!r} is a read-only mirror "
                f"of {self.config.mirror_of!r}; send writes to the shard master"
            )

        return handler

    def _need_ingest(self) -> MirrorIngest:
        if self.mirror_ingest is None:
            raise NotConfiguredError(
                f"server {self.config.name!r} is not a mirror "
                "(no --mirror-of configured)"
            )
        return self.mirror_ingest

    def _rpc_inflight(self) -> float:
        """Current in-flight RPC count (the stuck-thread detector gate)."""
        return float(self.rpc.inflight)

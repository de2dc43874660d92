"""RLS client library.

A typed wrapper around the RPC protocol covering every operation in the
paper's Table 1 (the C client / Java wrapper equivalent).  Obtain one with
:func:`connect` (in-process endpoint), :func:`connect_tcp_server`, or via
:class:`~repro.core.membership.StaticMembership`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

from repro.core.lrc import ObjType
from repro.net.retry import RetryPolicy
from repro.net.rpc import RPCClient
from repro.net.transport import connect_local, connect_tcp


def _objtype_wire(objtype: ObjType | str) -> int:
    return int(ObjType.parse(objtype))


class RLSClient:
    """Client handle to one RLS server (LRC and/or RLI operations)."""

    def __init__(self, rpc: RPCClient) -> None:
        self.rpc = rpc

    # ------------------------------------------------------------------
    # LRC: mapping management
    # ------------------------------------------------------------------

    def create(self, lfn: str, pfn: str) -> None:
        """Register a new logical name with its first replica mapping."""
        self.rpc.call("lrc_create_mapping", lfn, pfn)

    def add(self, lfn: str, pfn: str) -> None:
        """Register an additional replica for an existing logical name."""
        self.rpc.call("lrc_add_mapping", lfn, pfn)

    def delete(self, lfn: str, pfn: str) -> None:
        """Remove one replica mapping."""
        self.rpc.call("lrc_delete_mapping", lfn, pfn)

    def bulk_create(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        """Create many mappings in one request; returns per-pair failures."""
        return [tuple(t) for t in self.rpc.call("lrc_bulk_create", [list(p) for p in pairs])]

    def bulk_add(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        return [tuple(t) for t in self.rpc.call("lrc_bulk_add", [list(p) for p in pairs])]

    def bulk_delete(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        return [tuple(t) for t in self.rpc.call("lrc_bulk_delete", [list(p) for p in pairs])]

    # ------------------------------------------------------------------
    # LRC: queries
    # ------------------------------------------------------------------

    def get_mappings(self, lfn: str) -> list[str]:
        """Target names (replica locations) for one logical name."""
        return self.rpc.call("lrc_get_mappings", lfn)

    def get_lfns(self, pfn: str) -> list[str]:
        """Logical names mapped to one target name."""
        return self.rpc.call("lrc_get_lfns", pfn)

    def query_wildcard(self, pattern: str) -> list[tuple[str, str]]:
        """(lfn, pfn) pairs whose LFN matches ``*``/``?`` wildcards."""
        return [tuple(t) for t in self.rpc.call("lrc_query_wildcard", pattern)]

    def bulk_query(self, lfns: Sequence[str]) -> dict[str, list[str]]:
        """Mappings for many logical names (absent names omitted)."""
        return self.rpc.call("lrc_bulk_query", list(lfns))

    def exists(self, lfn: str) -> bool:
        return self.rpc.call("lrc_exists", lfn)

    def lfn_count(self) -> int:
        return self.rpc.call("lrc_lfn_count")

    def mapping_count(self) -> int:
        return self.rpc.call("lrc_mapping_count")

    # ------------------------------------------------------------------
    # LRC: attributes
    # ------------------------------------------------------------------

    def define_attribute(
        self, name: str, objtype: ObjType | str, attrtype: str
    ) -> int:
        return self.rpc.call("lrc_attr_define", name, _objtype_wire(objtype), attrtype)

    def undefine_attribute(self, name: str, objtype: ObjType | str) -> None:
        self.rpc.call("lrc_attr_undefine", name, _objtype_wire(objtype))

    def add_attribute(
        self, obj: str, name: str, objtype: ObjType | str, value: Any
    ) -> None:
        self.rpc.call("lrc_attr_add", obj, name, _objtype_wire(objtype), value)

    def modify_attribute(
        self, obj: str, name: str, objtype: ObjType | str, value: Any
    ) -> None:
        self.rpc.call("lrc_attr_modify", obj, name, _objtype_wire(objtype), value)

    def remove_attribute(self, obj: str, name: str, objtype: ObjType | str) -> None:
        self.rpc.call("lrc_attr_remove", obj, name, _objtype_wire(objtype))

    def get_attributes(self, obj: str, objtype: ObjType | str) -> dict[str, Any]:
        return self.rpc.call("lrc_attr_get", obj, _objtype_wire(objtype))

    def query_by_attribute(
        self,
        name: str,
        objtype: ObjType | str,
        value: Any = None,
        op: str = "=",
    ) -> list[tuple[str, Any]]:
        return [
            tuple(t)
            for t in self.rpc.call(
                "lrc_attr_query", name, _objtype_wire(objtype), value, op
            )
        ]

    def bulk_add_attribute(
        self, triples: Sequence[tuple[str, str, Any]], objtype: ObjType | str
    ) -> list[tuple[str, str, str]]:
        return [
            tuple(t)
            for t in self.rpc.call(
                "lrc_attr_bulk_add", [list(t) for t in triples], _objtype_wire(objtype)
            )
        ]

    # ------------------------------------------------------------------
    # LRC: RLI update-target management
    # ------------------------------------------------------------------

    def add_rli(
        self, name: str, bloom: bool = False, patterns: Sequence[str] = ()
    ) -> None:
        """Register an RLI this LRC should send soft-state updates to."""
        self.rpc.call("lrc_rli_add", name, bloom, list(patterns))

    def remove_rli(self, name: str) -> None:
        self.rpc.call("lrc_rli_remove", name)

    def list_rlis(self) -> list[dict[str, Any]]:
        return self.rpc.call("lrc_rli_list")

    # ------------------------------------------------------------------
    # LRC: mirror management (sharded cluster)
    # ------------------------------------------------------------------

    def mirror_add(self, name: str) -> None:
        """Register a read-only mirror this LRC ships its log to."""
        self.rpc.call("lrc_mirror_add", name)

    def mirror_remove(self, name: str) -> None:
        self.rpc.call("lrc_mirror_remove", name)

    def mirror_list(self) -> dict[str, Any]:
        """Per-mirror delivery health (empty when no mirrors registered)."""
        return self.rpc.call("lrc_mirror_list")

    def mirror_sync(self) -> int:
        """Ship the log to every mirror now; returns records shipped."""
        return self.rpc.call("admin_mirror_sync")

    def shard_map(self) -> dict[str, Any]:
        """Cluster topology as seen by this server (``None`` fields when
        the server is not a cluster member)."""
        return self.rpc.call("admin_shard_map")

    # ------------------------------------------------------------------
    # RLI operations
    # ------------------------------------------------------------------

    def rli_query(self, lfn: str) -> list[str]:
        """Names of LRCs that (probably) hold mappings for ``lfn``."""
        return self.rpc.call("rli_query", lfn)

    def rli_bulk_query(self, lfns: Sequence[str]) -> dict[str, list[str]]:
        return self.rpc.call("rli_bulk_query", list(lfns))

    def rli_query_wildcard(self, pattern: str) -> list[tuple[str, str]]:
        return [tuple(t) for t in self.rpc.call("rli_query_wildcard", pattern)]

    def rli_lrc_list(self) -> list[str]:
        return self.rpc.call("rli_lrc_list")

    # ------------------------------------------------------------------
    # Admin
    # ------------------------------------------------------------------

    def ping(self) -> str:
        return self.rpc.call("admin_ping")

    def stats(self) -> dict[str, Any]:
        return self.rpc.call("admin_stats")

    def metrics(self) -> dict[str, Any]:
        """Raw metrics snapshot (counters, gauges, histogram buckets)."""
        return self.rpc.call("admin_metrics")

    def metrics_text(self) -> str:
        """Metrics snapshot rendered in Prometheus text exposition format."""
        return self.rpc.call("admin_metrics_text")

    def traces(self, limit: int = 100) -> dict[str, Any]:
        """Tail-retained spans (errors + slow) from the server's span sink.

        Returns ``{"enabled": bool, "stats": {...}, "spans": [...]}``;
        ``enabled`` is False when the server runs without a tracer.
        """
        return self.rpc.call("admin_traces", limit)

    def trace(self, trace_id: str) -> dict[str, Any]:
        """Cluster-stitched view of one trace (tree + critical path).

        Accepts a trace id or a span id (``rls slowlog`` prints both).
        Returns ``{"enabled": bool, "trace_id": str, "spans": [...],
        "tree": [...], "critical_path": [...], "nodes": {...},
        "missing": {...}, ...}``; on a cluster member the server gathers
        fragments from every endpoint in its shard map, tolerating
        unreachable nodes (listed under ``missing``).
        """
        return self.rpc.call("admin_trace", trace_id)

    def trace_fragments(self, trace_id: str) -> dict[str, Any]:
        """This server's raw span fragments for one trace.

        Returns ``{"enabled": bool, "node": str, "trace_id": str,
        "spans": [...]}`` — the feed a client-side
        :class:`~repro.obs.assemble.TraceAssembler` stitches across
        endpoints.
        """
        return self.rpc.call("admin_trace_fragments", trace_id)

    def slo(self) -> dict[str, Any]:
        """SLO state: per-class SLIs, burn rates, budget and alerts.

        Returns ``{"enabled": True, "shard": str, "endpoint": str,
        "policy": {...}, "classes": {...}, "alerts": [...]}``.
        """
        return self.rpc.call("admin_slo")

    def usage(self) -> dict[str, Any]:
        """Per-principal usage accounting table and heavy-hitter sketches.

        Returns ``{"enabled": bool, "fields": [...], "principals":
        {principal: {op_class: {field: value}}}, "top_principals": [...],
        "top_prefixes": [...], "overflowed": int, ...}``; ``enabled`` is
        False when the server runs with ``usage_accounting=False``.
        """
        return self.rpc.call("admin_usage")

    def slow_queries(self, limit: int = 50) -> dict[str, Any]:
        """Tail-retained slow/error statements from the engine's query log.

        Returns ``{"enabled": bool, "stats": {...}, "queries": [...]}``;
        ``enabled`` is False when the server runs with query profiling
        disabled.
        """
        return self.rpc.call("admin_slow_queries", limit)

    def profile(self) -> dict[str, Any]:
        """Cumulative sampling-profiler state (folded stacks + meters).

        Returns ``{"enabled": bool, "hz": float, "samples": int,
        "duty_cycle": float, "roles": {...}, "profile": {...}}``;
        ``enabled`` is False when the server runs with ``profile_hz=0``.
        """
        return self.rpc.call("admin_profile")

    def threads(self) -> dict[str, Any]:
        """Point-in-time thread dump with roles, spans, and top frames.

        Returns ``{"enabled": True, "threads": [...], "detections":
        [...]}``; detections list stuck-thread findings (if any).
        """
        return self.rpc.call("admin_threads")

    def flight(self, limit: int = 100) -> dict[str, Any]:
        """Flight-recorder snapshot: stats, event tail, last error dump.

        Returns ``{"enabled": bool, "stats": {...}, "events": [...],
        "last_dump": ...}``; ``enabled`` is False when the server runs
        with ``flight_capacity=0``.
        """
        return self.rpc.call("admin_flight", limit)

    def trigger_full_update(self) -> float:
        """Force an immediate full soft-state update; returns duration (s)."""
        return self.rpc.call("admin_trigger_full_update")

    def trigger_incremental_update(self) -> int:
        return self.rpc.call("admin_trigger_incremental_update")

    def expire_once(self) -> int:
        return self.rpc.call("admin_expire_once")

    def rebuild_bloom(self) -> float:
        return self.rpc.call("admin_rebuild_bloom")

    def verify(self) -> list[str]:
        """Run the catalog integrity checker; returns problems (empty = ok)."""
        return self.rpc.call("admin_verify")

    def close(self) -> None:
        self.rpc.close()

    def __enter__(self) -> "RLSClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def connect(
    name: str,
    credential: bytes | None = None,
    retry: RetryPolicy | None = None,
    principal: str | None = None,
) -> RLSClient:
    """Connect to an in-process server endpoint by name.

    With ``retry``, transport-level call failures reconnect to the
    endpoint and retry with the policy's backoff.  ``principal`` is the
    declared usage-accounting identity for unauthenticated connections
    (ignored when a credential authenticates — the gridmap wins).
    """
    dial = partial(connect_local, name, credential, principal=principal)
    return RLSClient(RPCClient(dial(), retry=retry, reconnect=dial))


def connect_tcp_server(
    host: str,
    port: int,
    credential: bytes | None = None,
    retry: RetryPolicy | None = None,
    principal: str | None = None,
) -> RLSClient:
    """Connect to a TCP server.

    With ``retry``, both the initial connect and later calls are retried
    with backoff; failed calls re-dial the server first.  ``principal``
    declares the usage-accounting identity (see :func:`connect`).
    """
    dial = partial(
        connect_tcp, host, port, credential, retry=retry, principal=principal
    )
    return RLSClient(RPCClient(dial(), retry=retry, reconnect=dial))

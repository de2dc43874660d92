"""Combined routing client for a sharded LRC namespace.

:class:`CombinedClient` presents one logical catalog over N shard masters
and their read-only mirrors, after the DIRAC
``LcgFileCatalogCombinedClient`` pattern: the client sends every write
to the shard master that owns the LFN (consistent-hash placement via
:class:`~repro.cluster.ring.HashRing`), and fans reads across the shard's
mirrors — shuffled once per client so load spreads — failing over to the
next mirror and ultimately back to the master when an endpoint dies.

Failover discipline is the rule :class:`~repro.net.rpc.RPCClient` retries
by (:func:`~repro.net.retry.is_retryable`): a *transport* failure benches
the endpoint with a backoff and a read moves on to the next one.  Any
other exception (``RLSError``, ``RemoteError``, ``ProtocolError``) is a
live server's answer and propagates unchanged.  When every endpoint of a
shard is unreachable the client raises
:class:`~repro.core.errors.ShardRoutingError` naming the shard.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cluster.ring import ShardMap
from repro.core.client import _objtype_wire, connect
from repro.core.errors import ShardRoutingError
from repro.net.retry import RetryPolicy, is_retryable
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

#: Scatter-gather methods and the RPC each shard is sent.
_SCATTER_RPC = {
    "get_lfns": "lrc_get_lfns",
    "query_wildcard": "lrc_query_wildcard",
    "lfn_count": "lrc_lfn_count",
    "mapping_count": "lrc_mapping_count",
    "query_by_attribute": "lrc_attr_query",
}

#: How long an endpoint stays benched after a transport failure before
#: the client tries it again: 1 s, doubling per consecutive failure,
#: capped at 30 s.
_BENCH = RetryPolicy(backoff_base=1.0, backoff_max=30.0, jitter=0.0)


@dataclass
class EndpointHealth:
    """Per-endpoint client-side failure bookkeeping."""

    name: str
    healthy: bool = True
    consecutive_failures: int = 0
    next_retry_at: float = 0.0
    failures: int = 0
    last_error: str | None = None

    def to_dict(self) -> dict:
        return {
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "last_error": self.last_error,
        }


class CombinedClient:
    """One logical RLS catalog over shard masters plus mirror replicas."""

    def __init__(
        self,
        shard_map: ShardMap,
        connect_fn: Callable[[str], Any] | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        rng: random.Random | None = None,
    ) -> None:
        if not shard_map.shards:
            raise ShardRoutingError("shard map is empty")
        self.map = shard_map
        self.ring = shard_map.ring()
        self.connect_fn = connect_fn or connect
        self.clock = clock
        rng = rng or random.Random()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._clients: dict[str, Any] = {}
        self._health: dict[str, EndpointHealth] = {}
        # Per-shard read order: mirrors shuffled once per client (so a fleet
        # of clients spreads load), master always last as the fallback.
        self._read_order: dict[str, list[str]] = {}
        for shard in shard_map.shards:
            mirrors = list(shard_map.mirrors_of(shard))
            rng.shuffle(mirrors)
            self._read_order[shard] = mirrors + [shard]
            for name in self._read_order[shard]:
                self._health.setdefault(name, EndpointHealth(name=name))
        self._counters: dict[tuple[str, ...], Any] = {}

    # ------------------------------------------------------------------
    # Endpoint management
    # ------------------------------------------------------------------

    def _client(self, name: str):
        client = self._clients.get(name)
        if client is None:
            client = self._clients[name] = self.connect_fn(name)
        return client

    def _drop_client(self, name: str) -> None:
        client = self._clients.pop(name, None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def _mark_failed(self, name: str, exc: BaseException) -> None:
        health = self._health[name]
        health.healthy = False
        health.failures += 1
        health.consecutive_failures += 1
        health.last_error = f"{type(exc).__name__}: {exc}"
        health.next_retry_at = self.clock() + _BENCH.backoff(
            health.consecutive_failures - 1
        )
        self._drop_client(name)

    def _mark_ok(self, name: str) -> None:
        health = self._health[name]
        health.healthy = True
        health.consecutive_failures = 0
        health.next_retry_at = 0.0

    def _count(self, name: str, **labels: str) -> None:
        key = (name, *labels.values())
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self.metrics.counter(name, **labels)
        counter.inc()

    # ------------------------------------------------------------------
    # Routing primitives
    # ------------------------------------------------------------------

    def _endpoints(self, shard: str) -> list[str]:
        """The shard's read endpoints in the order to try them: mirrors,
        then the master, with benched endpoints (backoff not expired)
        moved to the back — a stale bench must never fail a request that
        some endpoint could serve."""
        now = self.clock()
        health = self._health
        return sorted(
            self._read_order[shard],
            key=lambda n: not health[n].healthy and now < health[n].next_retry_at,
        )

    def _raise_answer(self, endpoint: str, exc: Exception) -> None:
        """Re-raise ``exc`` unless it is a transport failure.  If the
        answer broke the connection (a frame the server rejected), drop
        it so the next call re-dials; the endpoint stays healthy."""
        if is_retryable(exc):
            return
        client = self._clients.get(endpoint)
        if client is not None and client.rpc.channel.broken:
            self._drop_client(endpoint)
        raise exc

    def _fail_over(self, shard: str, endpoint: str, exc: Exception) -> None:
        """Bench ``endpoint`` after a transport failure; re-raise ``exc``
        when it is anything else, because then the server answered."""
        self._raise_answer(endpoint, exc)
        self._mark_failed(endpoint, exc)
        self._count("cluster.failovers", shard=shard)

    def _write(self, shard: str, method: str, *args: Any) -> Any:
        """Run a write on the shard master; no failover (mirrors reject)."""
        self._count("cluster.routes", shard=shard, kind="write")
        # Span tags mirror the counters exactly: endpoint= is the server
        # that answered, failover= the cluster.failovers increments this
        # call contributed — so a stitched trace and the metrics agree.
        with tracing.span(
            "cluster.write", method=method, shard=shard,
            endpoint=shard, failover=0,
        ):
            try:
                result = getattr(self._client(shard), method)(*args)
            except Exception as exc:
                self._raise_answer(shard, exc)
                self._mark_failed(shard, exc)
                raise ShardRoutingError(
                    f"shard master {shard!r} unreachable for {method}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            self._mark_ok(shard)
            return result

    def _read(self, shard: str, method: str, *args: Any, failed=None) -> Any:
        """Run a read on the shard, preferring mirrors, master as fallback.
        ``failed`` is an ``(endpoint, exc)`` the caller already benched:
        it is not tried again, but it counts in the ``failover`` tag."""
        self._count("cluster.routes", shard=shard, kind="read")
        skip, last_exc = failed or (None, None)
        with tracing.span(
            "cluster.read", method=method, shard=shard
        ) as span:
            failovers = 0 if failed is None else 1
            for name in self._endpoints(shard):
                if name == skip:
                    continue
                try:
                    result = getattr(self._client(name), method)(*args)
                except Exception as exc:
                    self._fail_over(shard, name, exc)
                    last_exc = exc
                    failovers += 1
                    continue
                self._mark_ok(name)
                span.set_tag("endpoint", name)
                span.set_tag("mirror", name != shard)
                span.set_tag("failover", failovers)
                return result
            span.set_tag("failover", failovers)
            raise ShardRoutingError(
                f"no endpoint of shard {shard!r} reachable for {method} "
                f"(tried {self._read_order[shard]})"
            ) from last_exc

    def _scatter(self, method: str, *args: Any) -> list[Any]:
        """Run a read on every shard (mirror-first each); list of results.

        ``call_async`` and flush to each shard's first endpoint, then
        collect: over TCP the scatter takes about one round trip, and an
        in-process channel answers each call as it is made.  A shard whose
        endpoint fails in transport (dial, flush or answer) is read again
        through :meth:`_read`'s failover.
        """
        rpc_method = _SCATTER_RPC[method]
        rpc_args = args
        if method == "query_by_attribute":
            name, objtype, value, op = args
            rpc_args = (name, _objtype_wire(objtype), value, op)
        with tracing.span(
            "cluster.scatter", method=method, shards=len(self.map.shards)
        ):
            sent = []
            for shard in self.map.shards:
                self._count("cluster.routes", shard=shard, kind="scatter")
                endpoint = self._endpoints(shard)[0]
                rpc = call = failed = None
                try:
                    rpc = self._client(endpoint).rpc
                    call = rpc.call_async(rpc_method, *rpc_args)
                    rpc.flush()
                except Exception as exc:
                    self._fail_over(shard, endpoint, exc)
                    failed = (endpoint, exc)
                sent.append((shard, endpoint, rpc, call, failed))
            results: list[Any] = []
            for shard, endpoint, rpc, call, failed in sent:
                if failed is None:
                    try:
                        rpc.drain()
                        results.append(call.result())
                        self._mark_ok(endpoint)
                        continue
                    except Exception as exc:
                        self._fail_over(shard, endpoint, exc)
                        failed = (endpoint, exc)
                results.append(self._read(shard, method, *args, failed=failed))
            return results

    def _broadcast_write(self, method: str, *args: Any) -> list[Any]:
        """Run a write on every shard master (schema-like operations)."""
        return [self._write(shard, method, *args) for shard in self.map.shards]

    # ------------------------------------------------------------------
    # Mapping writes (owner-routed)
    # ------------------------------------------------------------------

    def create(self, lfn: str, pfn: str) -> None:
        self._write(self.ring.owner(lfn), "create", lfn, pfn)

    def add(self, lfn: str, pfn: str) -> None:
        self._write(self.ring.owner(lfn), "add", lfn, pfn)

    def delete(self, lfn: str, pfn: str) -> None:
        self._write(self.ring.owner(lfn), "delete", lfn, pfn)

    def _bulk_write(
        self, method: str, items: Sequence[tuple], *args: Any
    ) -> list[tuple[str, str, str]]:
        """Run a bulk write per owning master, grouping ``items`` by the
        owner of their first field; the shards' failures, merged."""
        grouped: dict[str, list[tuple]] = {}
        for item in items:
            grouped.setdefault(self.ring.owner(item[0]), []).append(item)
        failures: list[tuple[str, str, str]] = []
        for shard, group in grouped.items():
            failures.extend(self._write(shard, method, group, *args))
        return failures

    def bulk_create(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        return self._bulk_write("bulk_create", pairs)

    def bulk_add(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        return self._bulk_write("bulk_add", pairs)

    def bulk_delete(self, pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str, str]]:
        return self._bulk_write("bulk_delete", pairs)

    # ------------------------------------------------------------------
    # Reads (mirror-first with failover)
    # ------------------------------------------------------------------

    def get_mappings(self, lfn: str) -> list[str]:
        return self._read(self.ring.owner(lfn), "get_mappings", lfn)

    def exists(self, lfn: str) -> bool:
        return self._read(self.ring.owner(lfn), "exists", lfn)

    def bulk_query(self, lfns: Sequence[str]) -> dict[str, list[str]]:
        merged: dict[str, list[str]] = {}
        for shard, group in self.ring.partition(lfns).items():
            merged.update(self._read(shard, "bulk_query", group))
        return merged

    def get_lfns(self, pfn: str) -> list[str]:
        """PFNs are not ring-placed: gather matches from every shard."""
        out: list[str] = []
        for part in self._scatter("get_lfns", pfn):
            out.extend(part)
        return out

    def query_wildcard(self, pattern: str) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        for part in self._scatter("query_wildcard", pattern):
            out.extend(tuple(p) for p in part)
        return out

    def lfn_count(self) -> int:
        return sum(self._scatter("lfn_count"))

    def mapping_count(self) -> int:
        return sum(self._scatter("mapping_count"))

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    def define_attribute(self, name: str, objtype, attrtype: str) -> int:
        """Attribute definitions are schema: broadcast to every master."""
        return self._broadcast_write("define_attribute", name, objtype, attrtype)[0]

    def undefine_attribute(self, name: str, objtype) -> None:
        self._broadcast_write("undefine_attribute", name, objtype)

    def add_attribute(self, obj: str, name: str, objtype, value: Any) -> None:
        self._write(self.ring.owner(obj), "add_attribute", obj, name, objtype, value)

    def modify_attribute(self, obj: str, name: str, objtype, value: Any) -> None:
        self._write(self.ring.owner(obj), "modify_attribute", obj, name, objtype, value)

    def remove_attribute(self, obj: str, name: str, objtype) -> None:
        self._write(self.ring.owner(obj), "remove_attribute", obj, name, objtype)

    def get_attributes(self, obj: str, objtype) -> dict[str, Any]:
        return self._read(self.ring.owner(obj), "get_attributes", obj, objtype)

    def query_by_attribute(
        self, name: str, objtype, value: Any = None, op: str = "="
    ) -> list[tuple[str, Any]]:
        out: list[tuple[str, Any]] = []
        for part in self._scatter("query_by_attribute", name, objtype, value, op):
            out.extend(tuple(p) for p in part)
        return out

    def bulk_add_attribute(
        self, triples: Sequence[tuple[str, str, Any]], objtype
    ) -> list[tuple[str, str, str]]:
        return self._bulk_write("bulk_add_attribute", triples, objtype)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def owner(self, lfn: str) -> str:
        """Shard master owning ``lfn`` under the current ring."""
        return self.ring.owner(lfn)

    def shard_map(self) -> ShardMap:
        return self.map

    def health(self) -> dict[str, dict]:
        """Client-side endpoint health, keyed by endpoint name."""
        return {
            name: h.to_dict() for name, h in sorted(self._health.items())
        }

    def close(self) -> None:
        for name in list(self._clients):
            self._drop_client(name)

    def __enter__(self) -> "CombinedClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def combined_from_server(client) -> CombinedClient:
    """Bootstrap a :class:`CombinedClient` from any cluster member.

    Asks the server for its ``admin_shard_map`` (every member carries the
    topology in its :class:`~repro.core.config.ServerConfig`) and builds a
    routing client from the answer.
    """
    info = client.shard_map()
    data = info.get("shard_map") if isinstance(info, dict) else None
    if not data:
        raise ShardRoutingError(
            "server has no shard map configured (not a cluster member?)"
        )
    return CombinedClient(ShardMap.from_dict(data))

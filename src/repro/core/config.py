"""Server configuration.

One :class:`ServerConfig` describes a single RLS server process: its roles
(LRC, RLI, or both — the implementation is a common server, §3.1), its
database back end and flush policy, its security policy, and its
soft-state update behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cluster.ring import ShardMap
from repro.core.updates import UpdatePolicy
from repro.security.authorizer import SecurityPolicy


class ServerRole(enum.Flag):
    """Which services this server hosts (Figure 2: a common server)."""

    LRC = enum.auto()
    RLI = enum.auto()
    BOTH = LRC | RLI


class Backend(enum.Enum):
    """Relational back end flavour (§5.1 vs §5.2)."""

    MYSQL = "mysql"
    POSTGRESQL = "postgresql"

    @classmethod
    def parse(cls, value: "Backend | str") -> "Backend":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value.lower():
                return member
        raise ValueError(f"unknown backend {value!r}")


@dataclass
class ServerConfig:
    """Complete configuration for one RLS server."""

    name: str = "rls"
    role: ServerRole = ServerRole.BOTH
    backend: Backend | str = Backend.MYSQL
    #: MySQL: flush transaction log on every commit (paper recommends off).
    flush_on_commit: bool = False
    #: Modelled disk write-barrier latency for the WAL device.
    sync_latency: float = 0.011
    #: RLI soft-state timeout (seconds) before un-refreshed entries expire.
    rli_timeout: float = 30 * 60.0
    #: Period of the RLI expire thread.
    expire_interval: float = 60.0
    #: How often the update scheduler checks for due soft-state pushes.
    update_poll_interval: float = 1.0
    security: SecurityPolicy = field(default_factory=SecurityPolicy.open)
    updates: UpdatePolicy = field(default_factory=UpdatePolicy)
    #: Start a TCP listener in addition to the in-process endpoint.
    tcp: bool = False
    tcp_host: str = "127.0.0.1"
    tcp_port: int = 0  # 0 = ephemeral
    #: Record per-statement query profiles into the engine's slow-query
    #: log (``admin_slow_queries`` / ``rls slowlog``).
    profile_queries: bool = True
    #: Statements at or above this duration (seconds) are retained as
    #: "slow" and counted in ``db.slow_statements``.
    slow_query_threshold: float = 0.050
    #: Wall-clock sampling profiler rate (samples/second); 0 disables the
    #: sampler thread entirely (``admin_profile`` / ``rls profile``).
    profile_hz: float = 0.0
    #: Capacity of the flight-recorder event ring; 0 disables recording
    #: (``admin_flight`` / ``rls flight``).
    flight_capacity: int = 256
    #: Sharded-namespace topology this server belongs to (answers
    #: ``admin_shard_map``); ``None`` outside cluster deployments.
    cluster: ShardMap | None = None
    #: Run this LRC as a read-only mirror of the named shard master:
    #: mapping, attribute and RLI-registration writes are rejected with
    #: :class:`~repro.core.errors.ReadOnlyCatalogError`, the
    #: ``mirror_ship`` RPC replays the master's write-ahead log, and no
    #: soft-state updates are sent (the master advertises the shard).
    mirror_of: str | None = None
    #: Mirror LRCs this shard master ships its log to (more can be
    #: registered at runtime via ``lrc_mirror_add``).
    mirrors: tuple[str, ...] = ()
    #: Seconds between ships to a mirror that is not further behind than
    #: ``updates.immediate_count_threshold`` records (mirror feeds run much
    #: hotter than the 30 s RLI soft-state interval: a mirror serves
    #: reads directly, so its staleness is user-visible).
    mirror_push_interval: float = 5.0
    #: Modeled per-request service time (seconds) for the in-process
    #: transport: requests serialize through one stage of this duration,
    #: capping the endpoint at ~1/service_latency ops/s.  Used by
    #: multi-server capacity experiments; 0 disables the model.
    service_latency: float = 0.0
    #: Per-principal usage accounting (``admin_usage`` / ``rls usage``):
    #: charge every request's cost vector — wall time, queue wait, rows
    #: examined, bytes, WAL bytes — to ``(principal, op_class)``.
    usage_accounting: bool = True
    #: Distinct principals given exact accounting rows and metric labels;
    #: later arrivals aggregate under the bounded ``<other>`` label.
    usage_max_principals: int = 64

    def __post_init__(self) -> None:
        self.backend = Backend.parse(self.backend)
        self.mirrors = tuple(self.mirrors)
        if self.mirror_of and self.mirrors:
            raise ValueError("a mirror cannot itself have mirrors")

    @property
    def is_lrc(self) -> bool:
        return bool(self.role & ServerRole.LRC)

    @property
    def is_rli(self) -> bool:
        return bool(self.role & ServerRole.RLI)

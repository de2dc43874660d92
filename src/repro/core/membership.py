"""Static membership configuration (§3.6).

The paper's implementation "does not include a membership service ...
Instead, we use a simple static configuration of LRCs and RLIs."  This
module is that static configuration: a process-wide registry mapping
server names to the way they are reached (in-process endpoint or TCP
address), used by update managers to resolve RLI names to sinks and by
applications to open client connections by name.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial

from repro.core.errors import UpdateTargetError
from repro.core.updates import RPCSink, UpdateSink
from repro.net.retry import RetryPolicy
from repro.net.rpc import RPCClient
from repro.net.transport import connect_local, connect_tcp


@dataclass(frozen=True)
class MemberAddress:
    """How to reach one RLS server."""

    name: str
    kind: str = "local"  # "local" (in-process endpoint) or "tcp"
    host: str = "127.0.0.1"
    port: int = 0


class StaticMembership:
    """Name → address registry for a deployment."""

    def __init__(self) -> None:
        self._members: dict[str, MemberAddress] = {}
        self._lock = threading.Lock()

    def register(self, address: MemberAddress) -> None:
        with self._lock:
            self._members[address.name] = address

    def register_local(self, name: str) -> None:
        self.register(MemberAddress(name=name, kind="local"))

    def register_tcp(self, name: str, host: str, port: int) -> None:
        self.register(MemberAddress(name=name, kind="tcp", host=host, port=port))

    def unregister(self, name: str) -> None:
        with self._lock:
            self._members.pop(name, None)

    def members(self) -> list[MemberAddress]:
        with self._lock:
            return sorted(self._members.values(), key=lambda m: m.name)

    def lookup(self, name: str) -> MemberAddress:
        with self._lock:
            address = self._members.get(name)
        if address is None:
            raise UpdateTargetError(f"unknown RLS member: {name!r}")
        return address

    def connect(
        self,
        name: str,
        credential: bytes | None = None,
        retry: RetryPolicy | None = None,
    ) -> RPCClient:
        """Open an RPC client to a member by name.

        With ``retry``, transport failures re-dial the member (via a fresh
        address lookup, so re-registration at a new port is picked up) and
        retry the call with the policy's backoff.
        """
        dial = lambda: self._dial(self.lookup(name), credential, retry)  # noqa: E731
        return RPCClient(dial(), retry=retry, reconnect=dial)

    def _dial(
        self,
        address: MemberAddress,
        credential: bytes | None,
        retry: RetryPolicy | None = None,
    ):
        if address.kind == "local":
            return connect_local(address.name, credential)
        return connect_tcp(address.host, address.port, credential, retry=retry)

#: Default process-wide membership, used when no explicit one is supplied.
DEFAULT = StaticMembership()


def client(name: str, retry: RetryPolicy | None = None) -> RPCClient:
    """An RPC client to ``name`` via the default membership, falling back
    to the in-process transport registry (covers servers that never
    registered a membership entry explicitly)."""
    try:
        return DEFAULT.connect(name, retry=retry)
    except UpdateTargetError:
        dial = partial(connect_local, name)
        return RPCClient(dial(), retry=retry, reconnect=dial)


def resolve_sink(name: str, retry: RetryPolicy | None = None) -> UpdateSink:
    """Update sink for an RLI by name (a fresh RPC connection)."""
    return RPCSink(client(name, retry))

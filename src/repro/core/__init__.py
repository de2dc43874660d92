"""The Replica Location Service itself.

Public entry points:

* :class:`~repro.core.server.RLSServer` — the common LRC/RLI server
  (Figure 2), configured by :class:`~repro.core.config.ServerConfig`;
* :func:`~repro.core.client.connect` /
  :class:`~repro.core.client.RLSClient` — the client library (Table 1);
* :class:`~repro.core.membership.StaticMembership` — static deployment
  configuration (§3.6);
* the service internals: :class:`~repro.core.lrc.LocalReplicaCatalog`,
  :class:`~repro.core.rli.ReplicaLocationIndex`,
  :class:`~repro.core.updates.UpdateManager`,
  :class:`~repro.core.bloom.BloomFilter`.
"""

from repro.core.bloom import (
    BloomFilter,
    BloomParameters,
    CountingBloomFilter,
)
from repro.core.client import RLSClient, connect, connect_tcp_server
from repro.core.config import Backend, ServerConfig, ServerRole
from repro.core.errors import (
    AttributeExistsError,
    AttributeNotFoundError,
    InvalidAttributeError,
    InvalidNameError,
    MappingExistsError,
    MappingNotFoundError,
    NotConfiguredError,
    RLSError,
    UpdateTargetError,
    WildcardNotSupportedError,
)
from repro.core.discovery import DiscoveryResult, ReplicaDiscovery
from repro.core.hierarchy import HierarchicalUpdater
from repro.core.lrc import AttrType, LocalReplicaCatalog, ObjType, RLITarget
from repro.core.membership import MemberAddress, StaticMembership
from repro.core.partition import PartitionRouter
from repro.core.rli import ReplicaLocationIndex
from repro.core.server import RLSServer
from repro.core.updates import (
    DirectSink,
    RPCSink,
    UpdateManager,
    UpdatePolicy,
)

__all__ = [
    "AttrType",
    "AttributeExistsError",
    "AttributeNotFoundError",
    "Backend",
    "BloomFilter",
    "BloomParameters",
    "CountingBloomFilter",
    "DirectSink",
    "DiscoveryResult",
    "HierarchicalUpdater",
    "InvalidAttributeError",
    "InvalidNameError",
    "LocalReplicaCatalog",
    "MappingExistsError",
    "MappingNotFoundError",
    "MemberAddress",
    "NotConfiguredError",
    "ObjType",
    "PartitionRouter",
    "RLITarget",
    "RLSClient",
    "RLSError",
    "RLSServer",
    "ReplicaDiscovery",
    "ReplicaLocationIndex",
    "RPCSink",
    "ServerConfig",
    "ServerRole",
    "StaticMembership",
    "UpdateManager",
    "UpdatePolicy",
    "UpdateTargetError",
    "WildcardNotSupportedError",
    "connect",
    "connect_tcp_server",
]

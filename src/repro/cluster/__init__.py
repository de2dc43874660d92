"""Sharded LRC namespace: consistent-hash ring, mirrors, routing client.

The cluster package scales the RLS namespace horizontally (§6 of the
paper measures a single LRC saturating; this subsystem spreads that load):

- :mod:`repro.cluster.ring` — consistent-hash placement of LFNs onto
  shard masters (:class:`HashRing`) plus the declarative cluster topology
  (:class:`ShardMap`).
- :mod:`repro.cluster.mirror` — shard masters ship their write-ahead log
  to read-only mirror LRCs, which replay it, under the soft-state
  delivery machinery.
- :mod:`repro.cluster.combined` — a DIRAC-style combined client routing
  writes to the owning shard master and fanning reads across mirrors
  with health-tracked failover.
"""

from repro.cluster.combined import CombinedClient
from repro.cluster.mirror import MirrorIngest, MirrorManager
from repro.cluster.ring import DEFAULT_VNODES, HashRing, ShardMap

__all__ = [
    "CombinedClient",
    "DEFAULT_VNODES",
    "HashRing",
    "MirrorIngest",
    "MirrorManager",
    "ShardMap",
]

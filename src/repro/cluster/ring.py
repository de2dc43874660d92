"""Consistent-hash ring: LFN → shard placement for a sharded namespace.

`core/partition.py` routes by operator-written regexes — fine for a
handful of RLIs, but a namespace split across N LRC *shards* needs
placement that is deterministic everywhere (every client and server must
agree with no coordination), balanced without hand-tuning, and stable
under resharding (adding a shard must move ~K/N keys, not reshuffle the
world).  A consistent-hash ring with virtual nodes gives all three.

Hashing uses SHA-1 prefixes, never Python's ``hash()``: the builtin is
salted per process (``PYTHONHASHSEED``), and two processes disagreeing on
``owner(lfn)`` would silently split the namespace.

:class:`ShardMap` is the serializable description of a cluster — shard
names, per-shard mirror lists, virtual-node count, and a version — which
servers exchange over the ``admin_shard_map`` RPC and clients use to
build their routing ring.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

#: Virtual nodes per shard.  64 keeps the worst shard within ~25% of the
#: mean for realistic shard counts while the ring stays tiny (N*64 points).
DEFAULT_VNODES = 64


def _point(key: str) -> int:
    """Position of ``key`` on the ring: first 8 bytes of SHA-1.

    SHA-1 here is a placement function, not a security boundary; what
    matters is that it is uniform and identical across processes.
    """
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Deterministic LFN → shard mapping with virtual nodes.

    Rings are immutable; :meth:`with_shard` / :meth:`without_shard` return
    new rings, which keeps the bounded-movement property easy to test and
    rules out concurrent-mutation races in clients.
    """

    def __init__(self, shards: Sequence[str], vnodes: int = DEFAULT_VNODES) -> None:
        names = sorted(set(shards))
        if not names:
            raise ValueError("a hash ring needs at least one shard")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.shards: tuple[str, ...] = tuple(names)
        self.vnodes = vnodes
        points = sorted(
            (_point(f"{shard}#{replica}"), shard)
            for shard in names
            for replica in range(vnodes)
        )
        self._points = points
        self._keys = [p for p, _ in points]

    def owner(self, lfn: str) -> str:
        """The shard responsible for ``lfn`` (first vnode clockwise)."""
        index = bisect.bisect_right(self._keys, _point(lfn))
        if index == len(self._keys):
            index = 0  # wrap past the highest point
        return self._points[index][1]

    def partition(self, lfns: Iterable[str]) -> dict[str, list[str]]:
        """Group ``lfns`` by owning shard (order within a group preserved)."""
        groups: dict[str, list[str]] = {}
        for lfn in lfns:
            groups.setdefault(self.owner(lfn), []).append(lfn)
        return groups

    def spread(self, lfns: Iterable[str]) -> dict[str, int]:
        """Keys per shard over a sample — the balance diagnostic."""
        counts = {shard: 0 for shard in self.shards}
        for lfn in lfns:
            counts[self.owner(lfn)] += 1
        return counts

    def with_shard(self, shard: str) -> "HashRing":
        """A new ring with ``shard`` joined (moves ~K/N keys to it)."""
        return HashRing((*self.shards, shard), vnodes=self.vnodes)

    def without_shard(self, shard: str) -> "HashRing":
        """A new ring with ``shard`` removed (its keys spread to the rest)."""
        remaining = [s for s in self.shards if s != shard]
        return HashRing(remaining, vnodes=self.vnodes)

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashRing(shards={self.shards!r}, vnodes={self.vnodes})"


@dataclass(frozen=True)
class ShardMap:
    """Serializable cluster topology: shards, their mirrors, ring sizing.

    The single source of truth a deployment shares: every server carries
    one (``ServerConfig.cluster``) and answers ``admin_shard_map`` with
    it, so a client can bootstrap a :class:`CombinedClient` from any node.
    """

    shards: tuple[str, ...]
    #: Read-only mirror LRCs per shard master (may be empty).
    mirrors: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    vnodes: int = DEFAULT_VNODES
    version: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", tuple(self.shards))
        object.__setattr__(
            self,
            "mirrors",
            {shard: tuple(names) for shard, names in dict(self.mirrors).items()},
        )
        unknown = set(self.mirrors) - set(self.shards)
        if unknown:
            raise ValueError(f"mirrors listed for unknown shards: {sorted(unknown)}")

    def ring(self) -> HashRing:
        return HashRing(self.shards, vnodes=self.vnodes)

    def mirrors_of(self, shard: str) -> tuple[str, ...]:
        return tuple(self.mirrors.get(shard, ()))

    def to_dict(self) -> dict:
        return {
            "shards": list(self.shards),
            "mirrors": {shard: list(names) for shard, names in self.mirrors.items()},
            "vnodes": self.vnodes,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ShardMap":
        return cls(
            shards=tuple(payload["shards"]),
            mirrors={
                shard: tuple(names)
                for shard, names in dict(payload.get("mirrors", {})).items()
            },
            vnodes=int(payload.get("vnodes", DEFAULT_VNODES)),
            version=int(payload.get("version", 1)),
        )

    def with_shard(
        self, shard: str, mirrors: Sequence[str] = ()
    ) -> "ShardMap":
        """A new map with ``shard`` joined and the version bumped."""
        if shard in self.shards:
            raise ValueError(f"shard already present: {shard!r}")
        merged = dict(self.mirrors)
        if mirrors:
            merged[shard] = tuple(mirrors)
        return ShardMap(
            shards=(*self.shards, shard),
            mirrors=merged,
            vnodes=self.vnodes,
            version=self.version + 1,
        )

    def without_shard(self, shard: str) -> "ShardMap":
        remaining = tuple(s for s in self.shards if s != shard)
        return ShardMap(
            shards=remaining,
            mirrors={s: m for s, m in self.mirrors.items() if s != shard},
            vnodes=self.vnodes,
            version=self.version + 1,
        )

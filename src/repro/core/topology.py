"""Deployment topology builders from the Giggle framework.

The RLS framework paper ("Giggle", SC 2002 — reference [1] of the paper
reproduced here) defines a family of index structures: "A variety of
index structures can be constructed with different performance and
reliability characteristics by varying the number of RLIs and the amount
of redundancy and partitioning among them" (§2).  This module provides
constructors for the canonical configurations, returning a
:class:`Deployment` handle that owns the servers and knows how to wire
update patterns:

* :func:`single_rli` — N LRCs, one RLI (the paper's measurement setup);
* :func:`redundant` — every LRC updates every one of R RLIs, so the index
  survives R-1 RLI failures;
* :func:`partitioned_by_namespace` — each RLI indexes a regex-defined
  slice of the logical namespace (§3.5);
* :func:`fully_connected` — ESG-style: every server is both LRC and RLI
  and updates all of them (§6);
* :func:`hierarchical` — leaf RLIs forward to a root RLI (§7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.client import RLSClient, connect
from repro.core.config import ServerConfig, ServerRole
from repro.core.hierarchy import HierarchicalUpdater
from repro.core.membership import resolve_sink
from repro.core.server import RLSServer
from repro.obs.periodic import Periodic


@dataclass
class Deployment:
    """A set of running RLS servers wired into one topology."""

    name: str
    lrcs: list[RLSServer] = field(default_factory=list)
    rlis: list[RLSServer] = field(default_factory=list)
    #: RLI→parent forwarders, each with the periodic task refreshing it.
    forwarders: list[tuple[HierarchicalUpdater, Periodic]] = field(
        default_factory=list
    )

    @property
    def servers(self) -> list[RLSServer]:
        seen: dict[int, RLSServer] = {}
        for server in [*self.lrcs, *self.rlis]:
            seen[id(server)] = server
        return list(seen.values())

    def lrc_client(self, index: int = 0) -> RLSClient:
        return connect(self.lrcs[index].config.name)

    def rli_client(self, index: int = 0) -> RLSClient:
        return connect(self.rlis[index].config.name)

    def push_all(self) -> None:
        """Force a full soft-state update from every LRC (and forwarders)."""
        for server in self.lrcs:
            assert server.update_manager is not None
            if server.lrc is not None and server.lrc.rli_targets():
                server.update_manager.send_full_update()
        for forwarder, _ in self.forwarders:
            forwarder.forward_once()

    def start(self) -> "Deployment":
        for server in self.servers:
            server.start()
        for _, task in self.forwarders:
            task.start()
        return self

    def stop(self) -> None:
        """Stop forwarders and servers; raises if a forwarder thread is
        still alive afterwards (as :meth:`RLSServer.stop` does for its own)."""
        stuck = [task.name for _, task in self.forwarders if not task.stop()]
        for server in self.servers:
            server.stop()
        if stuck:
            raise RuntimeError(
                f"deployment {self.name!r}: forwarders did not exit: "
                f"{', '.join(stuck)}"
            )

    def __enter__(self) -> "Deployment":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def _make(name: str, role: ServerRole, **kwargs) -> RLSServer:
    return RLSServer(ServerConfig(name=name, role=role, sync_latency=0.0, **kwargs))


def single_rli(
    name: str,
    num_lrcs: int,
    bloom: bool = False,
) -> Deployment:
    """N LRCs all updating one RLI — the paper's measurement topology."""
    deployment = Deployment(name)
    rli = _make(f"{name}-rli", ServerRole.RLI)
    deployment.rlis.append(rli)
    for i in range(num_lrcs):
        lrc = _make(f"{name}-lrc{i}", ServerRole.LRC)
        assert lrc.lrc is not None
        lrc.lrc.add_rli(rli.config.name, bloom=bloom)
        deployment.lrcs.append(lrc)
    return deployment


def redundant(
    name: str,
    num_lrcs: int,
    num_rlis: int,
    bloom: bool = True,
) -> Deployment:
    """Every LRC updates every RLI: the index survives RLI failures.

    Giggle's redundancy axis — queries can go to any RLI, and losing
    ``num_rlis - 1`` of them loses no information (state is soft anyway
    and will be rebuilt, but redundancy removes the rebuild window).
    """
    deployment = Deployment(name)
    for j in range(num_rlis):
        deployment.rlis.append(_make(f"{name}-rli{j}", ServerRole.RLI))
    for i in range(num_lrcs):
        lrc = _make(f"{name}-lrc{i}", ServerRole.LRC)
        assert lrc.lrc is not None
        for rli in deployment.rlis:
            lrc.lrc.add_rli(rli.config.name, bloom=bloom)
        deployment.lrcs.append(lrc)
    return deployment


def partitioned_by_namespace(
    name: str,
    num_lrcs: int,
    partitions: Sequence[tuple[str, str]],
) -> Deployment:
    """One RLI per namespace partition (§3.5).

    ``partitions`` is a list of ``(rli_suffix, regex)`` pairs; each LRC
    sends each RLI only the logical names matching its regex.
    """
    deployment = Deployment(name)
    patterns: list[tuple[str, str]] = []
    for suffix, regex in partitions:
        rli = _make(f"{name}-rli-{suffix}", ServerRole.RLI)
        deployment.rlis.append(rli)
        patterns.append((rli.config.name, regex))
    for i in range(num_lrcs):
        lrc = _make(f"{name}-lrc{i}", ServerRole.LRC)
        assert lrc.lrc is not None
        for rli_name, regex in patterns:
            lrc.lrc.add_rli(rli_name, bloom=False, patterns=[regex])
        deployment.lrcs.append(lrc)
    return deployment


def fully_connected(name: str, num_nodes: int, bloom: bool = False) -> Deployment:
    """ESG-style mesh: every node is LRC+RLI and updates all nodes (§6)."""
    deployment = Deployment(name)
    nodes = [_make(f"{name}-node{i}", ServerRole.BOTH) for i in range(num_nodes)]
    for node in nodes:
        assert node.lrc is not None
        for target in nodes:
            node.lrc.add_rli(target.config.name, bloom=bloom)
    deployment.lrcs.extend(nodes)
    deployment.rlis.extend(nodes)
    return deployment


def hierarchical(
    name: str,
    num_lrcs_per_leaf: int,
    num_leaves: int,
    bloom: bool = True,
    forward_interval: float = 30.0,
) -> Deployment:
    """Two-level RLI tree (§7): LRCs -> leaf RLIs -> one root RLI.

    A query against the root answers for the whole grid; leaf RLIs answer
    for their region with less staleness.
    """
    deployment = Deployment(name)
    root = _make(f"{name}-root", ServerRole.RLI)
    deployment.rlis.append(root)
    for leaf_no in range(num_leaves):
        leaf = _make(f"{name}-leaf{leaf_no}", ServerRole.RLI)
        deployment.rlis.append(leaf)
        assert leaf.rli is not None
        updater = HierarchicalUpdater(
            leaf.rli, resolve_sink, parents=[root.config.name],
            metrics=leaf.metrics,
        )
        deployment.forwarders.append((updater, updater.task(forward_interval)))
        for i in range(num_lrcs_per_leaf):
            lrc = _make(f"{name}-leaf{leaf_no}-lrc{i}", ServerRole.LRC)
            assert lrc.lrc is not None
            lrc.lrc.add_rli(leaf.config.name, bloom=bloom)
            deployment.lrcs.append(lrc)
    return deployment

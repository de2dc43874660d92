"""Hierarchical RLI propagation (paper §7, "Ongoing and Future Work").

"The latest RLS version includes support for a hierarchy of RLI servers
that update one another."  This module implements that extension: an RLI
forwards its aggregated soft state to higher-level RLIs, preserving
per-LRC attribution so a top-level query still answers "which LRCs hold
this name".

* Bloom-mode state forwards each stored per-LRC filter upward unchanged
  (a union would lose attribution).
* Relational state forwards, per contributing LRC, the list of logical
  names currently mapped to it, as an ordinary full update.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.rli import ReplicaLocationIndex
from repro.core.updates import UpdateSink


@dataclass
class HierarchyStats:
    forward_passes: int = 0
    bloom_filters_forwarded: int = 0
    names_forwarded: int = 0
    last_duration: float = 0.0
    extra: dict = field(default_factory=dict)


class HierarchicalUpdater:
    """Forwards one RLI's aggregated state to parent RLIs."""

    def __init__(
        self,
        rli: ReplicaLocationIndex,
        sink_resolver: Callable[[str], UpdateSink],
        parents: Sequence[str],
    ) -> None:
        self.rli = rli
        self.sink_resolver = sink_resolver
        self.parents = list(parents)
        self.stats = HierarchyStats()

    def forward_once(self) -> None:
        """Push current state to every parent RLI."""
        start = time.perf_counter()
        relational = self._relational_state()
        bloom_state = self._bloom_state()
        for parent in self.parents:
            sink = self.sink_resolver(parent)
            for lrc_name, lfns in relational.items():
                sink.full_update(lrc_name, lfns)
                self.stats.names_forwarded += len(lfns)
            for lrc_name, (bitmap, nbits, k, entries) in bloom_state.items():
                sink.bloom_update(lrc_name, bitmap, nbits, k, entries)
                self.stats.bloom_filters_forwarded += 1
        self.stats.forward_passes += 1
        self.stats.last_duration = time.perf_counter() - start

    def _relational_state(self) -> dict[str, list[str]]:
        """Per-LRC logical-name lists from the relational store."""
        rows = self.rli.conn.execute(
            "SELECT c.name, l.name FROM t_map m "
            "JOIN t_lrc c ON m.pfn_id = c.id "
            "JOIN t_lfn l ON m.lfn_id = l.id"
        ).rows
        state: dict[str, list[str]] = {}
        for lrc_name, lfn in rows:
            state.setdefault(lrc_name, []).append(lfn)
        return state

    def _bloom_state(self) -> dict[str, tuple[bytes, int, int, int]]:
        """Per-LRC packed filters from the Bloom store."""
        return {
            name: (
                bloom.to_bytes(),
                bloom.params.num_bits,
                bloom.params.num_hashes,
                bloom.approx_entries,
            )
            for name, bloom in self.rli._bloom.filters.items()
        }


class HierarchyThread:
    """Background daemon forwarding RLI state upward on an interval.

    This is the soft-state refresh for the RLI→RLI tier: parents expire
    forwarded entries exactly like LRC-fed ones, so the forwarder must
    re-push periodically (interval < parent timeout).
    """

    def __init__(self, updater: HierarchicalUpdater, interval: float = 60.0):
        self.updater = updater
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop,
            name=f"rli-hierarchy-{self.updater.rli.name}",
            daemon=True,
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.updater.forward_once()
            except Exception:  # pragma: no cover - keep the daemon alive
                pass

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

"""MySQL-flavoured engine.

Key behaviours the paper relies on (§5.1):

* **Flush policy.**  ``flush_on_commit=True`` makes every committed mutation
  pay a log-device sync (≈11 ms modelled disk barrier) — the paper's
  "database flush enabled" configuration that caps adds at ~84/s.  With
  ``flush_on_commit=False`` the log is synced periodically, which is the
  configuration the paper recommends and uses for the rest of its results.
* **Eager storage cleanup.**  Deletes reclaim heap slots and index entries
  immediately — MySQL/InnoDB purge is effectively prompt at RLS scales, so
  there is no vacuum sawtooth (contrast :mod:`repro.db.postgres_engine`).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.db.engine import Database
from repro.db.wal import InMemoryLogDevice, WriteAheadLog
from repro.obs.metrics import MetricsRegistry


class MySQLEngine(Database):
    """Embedded stand-in for the MySQL 4.0 back end in the paper."""

    flavor = "mysql"

    def __init__(
        self,
        name: str = "mysql",
        flush_on_commit: bool = True,
        sync_latency: float = 0.011,
        flush_interval: float = 1.0,
        device: InMemoryLogDevice | None = None,
        sleep: Callable[[float], None] = time.sleep,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if device is None:
            device = InMemoryLogDevice(sync_latency=sync_latency, sleep=sleep)
        wal = WriteAheadLog(
            device=device,
            flush_on_commit=flush_on_commit,
            flush_interval=flush_interval,
            metrics=metrics,
        )
        super().__init__(
            name=name, wal=wal, eager_index_cleanup=True, metrics=metrics
        )

    @property
    def flush_on_commit(self) -> bool:
        assert self.wal is not None
        return self.wal.flush_on_commit

    def set_flush_on_commit(self, enabled: bool) -> None:
        """Toggle the per-commit disk flush (the paper's tuning knob)."""
        assert self.wal is not None
        self.wal.flush_on_commit = enabled

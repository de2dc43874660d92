"""PostgreSQL-flavoured engine.

What matters for the paper (§5.2, Figure 8):

* **MVCC dead tuples.**  ``DELETE`` only tombstones rows; heap slots and
  index entries linger.  Inserts and index lookups must skip the dead
  entries, so sustained add/delete churn degrades throughput steadily.
* **VACUUM.**  An explicit garbage-collection pass (SQL ``VACUUM`` or
  :meth:`PostgresEngine.vacuum`) reclaims dead tuples and restores the add
  rate to its maximum — producing the paper's sawtooth.
* **fsync.**  Like MySQL, per-commit fsync can be disabled; the paper runs
  its PostgreSQL trials with ``fsync()`` calls disabled.
* **Dead-entry cost.**  Real PostgreSQL pays a heap fetch for every dead
  index entry it must skip; this in-memory engine charges a modelled
  ``dead_hit_cost`` (default 50 µs) per skipped entry instead, which is
  what makes the Figure 8 decay visible at benchmark scale.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.db.engine import Database
from repro.db.wal import InMemoryLogDevice, WriteAheadLog
from repro.obs.metrics import MetricsRegistry


class PostgresEngine(Database):
    """Embedded stand-in for the PostgreSQL 7.2 back end in the paper."""

    flavor = "postgresql"

    def __init__(
        self,
        name: str = "postgres",
        fsync: bool = False,
        sync_latency: float = 0.011,
        flush_interval: float = 1.0,
        device: InMemoryLogDevice | None = None,
        sleep: Callable[[float], None] = time.sleep,
        dead_hit_cost: float = 5e-5,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if device is None:
            device = InMemoryLogDevice(sync_latency=sync_latency, sleep=sleep)
        wal = WriteAheadLog(
            device=device,
            flush_on_commit=fsync,
            flush_interval=flush_interval,
            metrics=metrics,
        )
        super().__init__(
            name=name,
            wal=wal,
            eager_index_cleanup=False,
            dead_hit_cost=dead_hit_cost,
            metrics=metrics,
        )

    def vacuum(self, table: str | None = None) -> int:
        """Garbage-collect dead tuples; returns the number reclaimed.

        Mirrors PostgreSQL's ``VACUUM [table]`` — "time-consuming and may
        require exclusive access to the database" (§5.2): the per-table
        latch is held for the whole pass.
        """
        if table is not None:
            return self.table(table).vacuum()
        total = 0
        for name in self.table_names():
            total += self.table(name).vacuum()
        return total

    def dead_tuples(self) -> dict[str, int]:
        """Current dead-tuple count per table (diagnostics for tests)."""
        return {
            name: self.table(name).dead_tuple_count
            for name in self.table_names()
        }

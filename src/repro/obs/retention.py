"""Tail retention: the one bounded store under the span sink, the query
log and the flight recorder.

Every offered item lands in a **recent** ring and, when worth keeping (an
error, a slow span or statement), *also* in a **kept** ring.  Each ring
evicts its own oldest entries, so a flood of fast-and-fine traffic can
never push out the evidence of a failure.  Offering takes no lock (request
threads would convoy on one): it is C calls bound once, ``next`` on a
count and ``deque.append``.  Readers copy rings and totals under a lock.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any


def side_capacity(capacity: int) -> int:
    """Default size of a store's smaller ring, for a larger one of ``capacity``."""
    return max(16, capacity // 4)


class Tally:
    """A total many threads raise without a lock: :attr:`add` is ``next``
    on a count, one C call.  :meth:`read` draws from the count too and
    subtracts the draws earlier reads made, so reads must not overlap."""

    def __init__(self) -> None:
        self.add = itertools.count().__next__
        self._reads = 0

    def read(self) -> int:
        reads = self._reads
        self._reads += 1
        return self.add() - reads


class TailRing:
    """A recent ring of ``recent`` items and a kept ring of ``kept``."""

    def __init__(self, recent: int, kept: int) -> None:
        self._offered, self._kept = Tally(), Tally()
        self._recent_ring: deque = deque(maxlen=recent)
        self._kept_ring: deque = deque(maxlen=kept)
        self._lock = threading.Lock()
        count, count_kept = self._offered.add, self._kept.add
        append, keep_item = self._recent_ring.append, self._kept_ring.append

        def offer(item: Any, keep: bool) -> None:
            """Retain ``item`` in the recent ring, and in the kept one if ``keep``."""
            count()
            append(item)
            if keep:
                count_kept()
                keep_item(item)

        # A closure: the hot path reads its C callables from cells, not attributes.
        self.offer = offer

    def snapshot(self) -> tuple[int, int, tuple, tuple]:
        """``(offered, kept total, kept ring, recent ring)``, oldest first."""
        with self._lock:
            return (
                self._offered.read(), self._kept.read(),
                tuple(self._kept_ring), tuple(self._recent_ring),
            )

    def clear(self) -> None:
        """Empty both rings; the totals stay."""
        with self._lock:
            self._recent_ring.clear()
            self._kept_ring.clear()

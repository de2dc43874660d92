"""FIFO resources for the simulation kernel."""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.kernel import Event, Simulator


class Resource:
    """A capacity-limited resource with FIFO queueing.

    Models the serialized parts of the RLS: the RLI's exclusive table latch
    during soft-state ingest (capacity 1) or a bounded server worker pool
    (capacity N).

    Usage inside a process generator::

        request = resource.acquire()
        yield request
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[tuple[float, Event]] = deque()
        # Instrumentation for utilization / queueing analysis.
        self.total_acquisitions = 0
        self.total_wait_time = 0.0
        self._busy_since: float | None = None
        self.total_busy_time = 0.0

    def acquire(self) -> Event:
        """Return an event that triggers when a slot is granted."""
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self._grant(self.sim.now, event)
        else:
            self._waiters.append((self.sim.now, event))
        return event

    def _grant(self, enqueued_at: float, event: Event) -> None:
        self.in_use += 1
        self.total_acquisitions += 1
        self.total_wait_time += self.sim.now - enqueued_at
        if self._busy_since is None:
            self._busy_since = self.sim.now
        event.succeed()

    def release(self) -> None:
        """Free one slot; the oldest waiter (if any) is granted it."""
        if self.in_use <= 0:
            raise RuntimeError("release() without acquire()")
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self.total_busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        if self._waiters:
            enqueued_at, event = self._waiters.popleft()
            self._grant(enqueued_at, event)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def use(self, service_time: float) -> Any:
        """Generator helper: acquire, hold for ``service_time``, release."""

        def _proc():
            yield self.acquire()
            try:
                yield self.sim.timeout(service_time)
            finally:
                self.release()

        return self.sim.process(_proc())

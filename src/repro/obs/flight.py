"""Black-box flight recorder: a bounded ring of typed server events.

When a server misbehaves, the question is rarely "what is happening now"
— it is "what happened in the seconds *before* this error".  The flight
recorder answers it the way an aircraft black box does: every layer
appends small typed events (RPC dispatch, update delivery attempts and
retries, WAL flushes, errors) into a bounded thread-safe ring, correlated
with span ids from the tracer, and the ring is snapshotted on demand
(``admin_flight`` / ``rls flight``) or automatically when a handler
raises.  That automatic freeze sits on the request path, so it keeps
references to the (immutable) events and renders them to dicts only when
the dump is read.  Appending takes no lock (request threads share the
ring and would convoy on one): ``record`` is built from single C calls,
``deque.append`` and ``next`` on a count; readers copy under a lock.

Retention mirrors :class:`~repro.obs.tracing.SpanSink`: every event lands
in a **recent** ring (capacity ``capacity``) and error events *also* land
in a smaller **errors** ring, so a flood of healthy traffic can never
push out the failure evidence — the property the wrap test asserts.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs import tracing
from repro.obs.reqctx import RequestCosts

_event_seq = itertools.count(1)

#: Event kinds the instrumentation sites emit (informative, not enforced).
EVENT_KINDS = (
    "rpc.in",
    "rpc.out",
    "update.attempt",
    "update.retry",
    "wal.flush",
    "error",
)


@dataclass(frozen=True)
class FlightEvent:
    """One recorded event; ``seq`` totally orders events across rings."""

    seq: int
    t: float
    kind: str
    detail: str = ""
    trace_id: str | None = None
    span_id: str | None = None
    error: bool = False
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "detail": self.detail,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "error": self.error,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlightEvent":
        return cls(
            seq=int(data["seq"]),
            t=float(data.get("t", 0.0)),
            kind=data["kind"],
            detail=data.get("detail", ""),
            trace_id=data.get("trace_id"),
            span_id=data.get("span_id"),
            error=bool(data.get("error", False)),
            data=dict(data.get("data", {})),
        )


class FlightRecorder:
    """Bounded, thread-safe event ring with error-preferential retention.

    ``record`` is the single producer entry point; with ``span=None`` the
    event adopts the calling thread's current trace context (if a tracer
    is installed), so instrumentation sites get correlation for free.
    Subscribed to a dispatcher (``RPCServer(observers=[recorder])``) it
    records ``rpc.in``, then ``rpc.out`` or ``error`` plus a freeze.
    """

    def __init__(
        self,
        capacity: int = 256,
        error_capacity: int | None = None,
        clock: Any = time.time,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.error_capacity = (
            error_capacity if error_capacity is not None
            else max(16, capacity // 4)
        )
        self.clock = clock
        self._lock = threading.Lock()
        self._recent: "deque[FlightEvent]" = deque(maxlen=capacity)
        self._errors: "deque[FlightEvent]" = deque(maxlen=self.error_capacity)
        # Totals many threads raise without a lock: ``next`` on a count is
        # one C call.  Reading one draws from it too, so the reader (under
        # ``_lock``) subtracts the draws that reads have made.
        self._count_event = itertools.count().__next__
        self._count_error = itertools.count().__next__
        self._stats_reads = 0
        # The last freeze, as ``[frozen, rendered]``: the (reason, t, stats,
        # error ring, recent ring) tuple until first read, then the dict it
        # renders to (under ``_render_lock``).  One list per freeze, so a
        # reader never pairs one freeze with another's rendering.
        self._dump: list | None = None
        self._render_lock = threading.Lock()

    def record(
        self,
        kind: str,
        detail: str = "",
        span: tuple[str, str] | None = None,
        error: bool = False,
        **data: Any,
    ) -> FlightEvent:
        """Append one event; returns it (tests assert on the result)."""
        if span is None:
            span = tracing.context()
        event = FlightEvent(
            seq=next(_event_seq),
            t=self.clock(),
            kind=kind,
            detail=detail,
            trace_id=span[0] if span else None,
            span_id=span[1] if span else None,
            error=error,
            data=data,
        )
        self._count_event()
        self._recent.append(event)
        if error:
            self._count_error()
            self._errors.append(event)
        return event

    def entered(self, record: RequestCosts) -> None:
        self.record("rpc.in", record.method, record.span, principal=record.principal)

    def finished(self, record: RequestCosts) -> None:
        if record.error is None:
            self.record("rpc.out", record.method, record.span)
            return
        # Black box: freeze the events leading up to the failure so a
        # later wrap can't erase them (references only; rendered when
        # the dump is read).
        reason = f"{record.method}: {record.error}"
        self.record("error", reason, record.span, error=True, message=record.message)
        self.freeze(reason)

    def events(self) -> list[FlightEvent]:
        """Union of both rings in sequence order (oldest first).

        Errors evicted from the recent ring survive via the error ring;
        the union is deduplicated by ``seq``.
        """
        with self._lock:
            rings = tuple(self._errors), tuple(self._recent)
        return _merge(*rings)

    def errors(self) -> list[FlightEvent]:
        with self._lock:
            return list(self._errors)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict[str, Any]:
        reads = self._stats_reads
        self._stats_reads += 1
        return {
            "recorded": self._count_event() - reads,
            "errors": self._count_error() - reads,
            "recent": len(self._recent),
            "retained_errors": len(self._errors),
            "capacity": self.capacity,
            "error_capacity": self.error_capacity,
        }

    def to_dict(self, limit: int | None = None) -> dict[str, Any]:
        """RPC payload: stats, the event tail, and the last error dump."""
        events = self.events()
        if limit is not None and limit >= 0:
            events = events[-limit:]
        return {
            "stats": self.stats(),
            "events": [event.to_dict() for event in events],
            "last_dump": self.last_dump,
        }

    def freeze(self, reason: str) -> list:
        """Freeze the current ring as the last dump (auto on errors).

        The dump survives subsequent wraps of the live ring, so the
        events *leading up to* the error stay retrievable even after the
        server has moved on.  Costs one pointer copy of each ring; the
        per-event dicts are built by :attr:`last_dump`, when read.
        Returns the dump's ``[frozen, rendered]`` cell.
        """
        t = self.clock()
        with self._lock:
            frozen = (
                reason,
                t,
                self._stats_locked(),
                tuple(self._errors),
                tuple(self._recent),
            )
        self._dump = dump = [frozen, None]
        return dump

    @property
    def last_dump(self) -> dict[str, Any] | None:
        """The last freeze as a dict (rendered once, then cached)."""
        dump = self._dump
        return None if dump is None else self._render(dump)

    def _render(self, dump: list) -> dict[str, Any]:
        with self._render_lock:
            if dump[1] is None:
                reason, t, stats, errors, recent = dump[0]
                dump[1] = {
                    "reason": reason,
                    "t": t,
                    "stats": stats,
                    "events": [e.to_dict() for e in _merge(errors, recent)],
                }
                dump[0] = None  # the dicts replace the events, not join them
            return dump[1]

    def dump(self, reason: str) -> dict[str, Any]:
        """:meth:`freeze`, then render that freeze (not a racing one)."""
        return self._render(self.freeze(reason))

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._errors.clear()
        self._dump = None


def _merge(
    errors: Iterable[FlightEvent], recent: Iterable[FlightEvent]
) -> list[FlightEvent]:
    """Union of the two rings, deduplicated by ``seq``, oldest first."""
    merged = {event.seq: event for event in (*errors, *recent)}
    return [merged[seq] for seq in sorted(merged)]

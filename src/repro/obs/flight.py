"""Black-box flight recorder: a bounded ring of typed server events.

When a server misbehaves, the question is rarely "what is happening now"
— it is "what happened in the seconds *before* this error".  The flight
recorder answers it the way an aircraft black box does: every layer
appends small typed events (RPC dispatch, update delivery attempts and
retries, WAL flushes, errors) into a bounded thread-safe ring, correlated
with span ids from the tracer, and the ring is snapshotted on demand
(``admin_flight`` / ``rls flight``) or automatically when a handler
raises.  The request path stores and readers build: a finished request
is one offer of its :class:`~repro.obs.reqctx.RequestCosts`, and its
``rpc.in`` and ``rpc.out`` (or ``error``) events — ``rpc.in`` alone for
one the dispatcher still has in flight — are made when a ring is read
and placed among the others by the record's two stamps; the automatic
freeze keeps references too.

Retention is a :class:`~repro.obs.retention.TailRing`, as under the span
sink and the query log: every event lands in a **recent** ring (capacity
``capacity``) and error events *also* land in a smaller **errors** ring,
so a flood of healthy traffic can never push out the failure evidence —
the property the wrap test asserts.  Offering takes no lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.obs import tracing
from repro.obs.reqctx import RequestCosts, stamp
from repro.obs.retention import Tally, TailRing, side_capacity

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

    ``record`` is the producer entry point for events recorded as they
    happen; with ``span=None`` the event adopts the calling thread's
    current trace context (if a tracer is installed), so instrumentation
    sites get correlation for free.  Subscribed to a dispatcher
    (``RPCServer(observers=[recorder])``) it keeps each finished request's
    record — read back as ``rpc.in`` then ``rpc.out`` or ``error`` — and
    freezes when one failed.
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
            else side_capacity(capacity)
        )
        self.clock = clock
        self._lock = threading.Lock()
        # An event recorded as it happened, or a finished request's record:
        # two events, the ring counting its rpc.in and ``_second`` the other.
        self._ring = TailRing(capacity, self.error_capacity)
        self._offer = self._ring.offer
        self._second = Tally()
        self._count_second = self._second.add
        self._in_flight: Callable[[], list[RequestCosts]] = list  # see watch()
        # The last freeze, as ``[frozen, rendered]``: the (reason, t,
        # snapshot) tuple until first read, then the dict it renders to
        # (under ``_render_lock``).  One list per freeze, so a reader never
        # pairs one freeze with another's rendering.
        self._dump: list | None = None
        self._render_lock = threading.Lock()

    def watch(self, in_flight: Callable[[], list[RequestCosts]]) -> None:
        """Read the dispatcher's unfinished requests through ``in_flight``."""
        self._in_flight = in_flight

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
            seq=stamp(),
            t=self.clock(),
            kind=kind,
            detail=detail,
            trace_id=span[0] if span else None,
            span_id=span[1] if span else None,
            error=error,
            data=data,
        )
        self._offer(event, error)
        return event

    def finished(self, record: RequestCosts) -> None:
        self._count_second()
        self._offer(record, record.error is not None)
        if record.error is not None:
            # Black box: freeze the events leading up to the failure so a
            # later wrap can't erase them (references only).
            self.freeze(f"{record.method}: {record.error}")

    def _snapshot(self) -> tuple:
        """``(events, errors, now, in-flight records, error ring, recent
        ring)``.  The in-flight map is read first: the dispatcher drops a
        record from it only after its observers have it, so a request
        ending meanwhile is seen twice (and merged), never missed."""
        with self._lock:
            in_flight = self._in_flight()
            offered, errors, error_ring, recent = self._ring.snapshot()
            events = offered + self._second.read()
            return events, errors, stamp(), in_flight, error_ring, recent

    def _stats(self, snapshot: tuple) -> dict[str, Any]:
        events, errors, now, in_flight, error_ring, recent = snapshot
        # Not finished when the stamp ``now`` was drawn: rpc.in not counted.
        running = sum(1 for r in in_flight if not r.end_seq or r.end_seq > now)
        held = running + sum(2 if type(item) is RequestCosts else 1 for item in recent)
        return {
            "recorded": events + running,
            "errors": errors,
            "recent": min(held, self.capacity),
            "retained_errors": len(error_ring),
            "capacity": self.capacity,
            "error_capacity": self.error_capacity,
        }

    def _events(self, snapshot: tuple) -> list[FlightEvent]:
        """What a snapshot reads as: the last ``capacity`` events of the
        recent ring and the requests in flight, plus the error ring, in
        stamp order.  A request's times are its ``perf_counter`` readings
        moved onto ``clock`` by the two clocks' present distance."""
        in_flight, errors, recent = snapshot[3:]
        wall = self.clock() - time.perf_counter()
        window: dict[int, FlightEvent] = {}
        for item in recent:
            if type(item) is RequestCosts:
                window[item.seq] = _rpc_in(item, wall)
                window[item.end_seq] = _rpc_end(item, wall)
            else:
                window[item.seq] = item
        for record in in_flight:
            window.setdefault(record.seq, _rpc_in(record, wall))
        merged = {event.seq: event for event in _error_events(errors, wall)}
        merged.update((seq, window[seq]) for seq in sorted(window)[-self.capacity:])
        return [merged[seq] for seq in sorted(merged)]

    def events(self) -> list[FlightEvent]:
        """Union of both rings in sequence order (oldest first).

        Errors evicted from the recent ring survive via the error ring;
        the union is deduplicated by ``seq``.
        """
        return self._events(self._snapshot())

    def errors(self) -> list[FlightEvent]:
        errors = self._ring.snapshot()[2]
        return _error_events(errors, self.clock() - time.perf_counter())

    def stats(self) -> dict[str, Any]:
        return self._stats(self._snapshot())

    def to_dict(self, limit: int | None = None) -> dict[str, Any]:
        """RPC payload: stats, the event tail, and the last error dump."""
        snapshot = self._snapshot()
        events = self._events(snapshot)
        if limit is not None and limit >= 0:
            events = events[-limit:]
        return {
            "stats": self._stats(snapshot),
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
        self._dump = dump = [(reason, self.clock(), self._snapshot()), None]
        return dump

    @property
    def last_dump(self) -> dict[str, Any] | None:
        """The last freeze as a dict (rendered once, then cached)."""
        dump = self._dump
        return None if dump is None else self._render(dump)

    def _render(self, dump: list) -> dict[str, Any]:
        with self._render_lock:
            if dump[1] is None:
                reason, t, snapshot = dump[0]
                dump[1] = {
                    "reason": reason,
                    "t": t,
                    "stats": self._stats(snapshot),
                    "events": [e.to_dict() for e in self._events(snapshot)],
                }
                dump[0] = None  # the dicts replace the events, not join them
            return dump[1]

    def dump(self, reason: str) -> dict[str, Any]:
        """:meth:`freeze`, then render that freeze (not a racing one)."""
        return self._render(self.freeze(reason))

    def clear(self) -> None:
        self._ring.clear()
        self._dump = None


def _rpc_in(record: RequestCosts, wall: float) -> FlightEvent:
    return FlightEvent(
        record.seq, wall + record.start, "rpc.in", record.method,
        *(record.span or (None, None)), data={"principal": record.principal},
    )


def _rpc_end(record: RequestCosts, wall: float) -> FlightEvent:
    """A finished request's second event: ``rpc.out``, or ``error``."""
    seq, t, span = record.end_seq, wall + record.end, record.span or (None, None)
    if record.error is None:
        return FlightEvent(seq, t, "rpc.out", record.method, *span)
    return FlightEvent(
        seq, t, "error", f"{record.method}: {record.error}", *span,
        error=True, data={"message": record.message},
    )


def _error_events(errors: Iterable[Any], wall: float) -> list[FlightEvent]:
    return [_rpc_end(e, wall) if type(e) is RequestCosts else e for e in errors]

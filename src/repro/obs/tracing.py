"""Lightweight tracing: spans, a tracer, and RPC context propagation.

One client request produces a *span tree* covering every layer it crosses:

    rpc.call:lrc_add_mapping          (client side)
      rpc.handle:lrc_add_mapping      (server dispatcher)
        acl.check                     (authorization)
        sql.execute                   (each statement the LRC issues)
        wal.flush                     (the commit durability barrier)

Propagation works two ways, matching the two transports:

* **In-process** (:class:`~repro.net.transport.LocalTransport`): the
  server handler runs in the caller's thread, so the tracer's thread-local
  span stack parents server-side spans under the client span directly.
* **TCP**: the client attaches ``(trace_id, span_id)`` to the
  :class:`~repro.net.messages.Request` (a backwards-compatible optional
  wire field) and the server-side span adopts it as an explicit parent.

No tracer is installed by default: :func:`span` then returns a shared
no-op context manager, so instrumentation sites cost one function call.
Install with :func:`install_tracer` (tests, debugging, the ``stats``
surfaces) and remove with ``install_tracer(None)``.

A :class:`SpanSink` tail-samples finished spans onto a
:class:`~repro.obs.retention.TailRing`; a kept span whose trace the
tracer's store no longer holds reads as an orphan fragment.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.retention import TailRing, side_capacity

_ids = itertools.count(1)


def _next_id() -> str:
    return format(next(_ids), "x")


@dataclass
class Span:
    """One timed operation; ``parent_id`` links spans into a tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start: float = 0.0
    duration: float = 0.0
    tags: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def to_dict(self) -> dict[str, Any]:
        """Wire-safe form (the ``admin_traces`` RPC payload)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "tags": {k: str(v) for k, v in self.tags.items()},
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start=data.get("start", 0.0),
            duration=data.get("duration", 0.0),
            tags=dict(data.get("tags", {})),
            error=data.get("error"),
        )


#: Spans at or above this duration are always retained by a SpanSink.
DEFAULT_LATENCY_THRESHOLD = 0.050


class SpanSink:
    """Bounded retention with tail-based sampling.

    Head-based samplers decide at span *start* and therefore drop exactly
    the spans one wants to keep (the slow and the broken are not known to
    be slow or broken yet).  This sink decides at span *end*, on a
    :class:`~repro.obs.retention.TailRing`:

    * spans with an error, or with ``duration >= latency_threshold``, go
      to the **interesting** ring (capacity ``capacity``);
    * every span also lands in a smaller **recent** ring (context for the
      interesting ones).

    Both rings evict their own oldest entries, so a flood of fast-and-fine
    spans can never push out a retained error or slow span — the property
    the overflow test asserts.
    """

    def __init__(
        self,
        capacity: int = 512,
        latency_threshold: float = DEFAULT_LATENCY_THRESHOLD,
        recent_capacity: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.latency_threshold = latency_threshold
        self.recent_capacity = (
            recent_capacity if recent_capacity is not None
            else side_capacity(capacity)
        )
        self._ring = TailRing(self.recent_capacity, capacity)
        #: Whether the owning :class:`Tracer`'s store still holds a trace
        #: (the tracer sets it); a kept span of a trace it lost is an orphan.
        self.live: Callable[[str], bool] = lambda trace_id: True

    def interesting_reason(self, span: Span) -> str | None:
        """Why this span is tail-retained, or ``None`` if it is not."""
        if span.error is not None:
            return "error"
        if span.duration >= self.latency_threshold:
            return "slow"
        return None

    def offer(self, span: Span) -> None:
        """Consider one finished span for retention."""
        self._ring.offer(span, self.interesting_reason(span) is not None)

    def retention_reason(self, span: Span) -> str | None:
        """Why a span is retained ("error"/"slow", with an ``,orphan``
        suffix once its trace is gone from the tracer's store), or ``None``.
        Orphans stay fetchable by trace id via :meth:`trace`."""
        reason = self.interesting_reason(span)
        if reason is not None and not self.live(span.trace_id):
            return reason + ",orphan"
        return reason

    def trace(self, trace_id: str) -> list[Span]:
        """Every retained span of one trace (interesting plus recent).

        Orphan fragments — children whose root trace was evicted from the
        tracer — are still returned here, which is what lets a
        :class:`~repro.obs.assemble.TraceAssembler` fetch by trace id
        after partial eviction.
        """
        _, _, kept, recent = self._ring.snapshot()
        # A span in both rings is one object: keying by id deduplicates.
        out = {s.span_id: s for s in kept + recent if s.trace_id == trace_id}
        return sorted(out.values(), key=lambda s: s.start)

    def interesting(self) -> list[Span]:
        """Tail-retained spans (errors and slow), oldest first."""
        return list(self._ring.snapshot()[2])

    def recent(self) -> list[Span]:
        return list(self._ring.snapshot()[3])

    def stats(self) -> dict[str, Any]:
        offered, retained, kept, recent = self._ring.snapshot()
        return {
            "offered": offered,
            "retained": retained,
            "interesting": len(kept),
            "recent": len(recent),
            "capacity": self.capacity,
            "latency_threshold": self.latency_threshold,
            "orphans": sum(1 for span in kept if not self.live(span.trace_id)),
        }

    def to_dict(self, limit: int | None = None) -> dict[str, Any]:
        """RPC payload: stats plus the interesting spans (newest last).

        Each span dict carries a ``reason`` key (additive, so older
        clients ignore it): its :meth:`retention_reason`.
        """
        spans = self.interesting()
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        out = [dict(s.to_dict(), reason=self.retention_reason(s)) for s in spans]
        return {"stats": self.stats(), "spans": out}

    def clear(self) -> None:
        self._ring.clear()


class _NullSpan:
    """Shared do-nothing span for the tracer-absent fast path."""

    __slots__ = ()
    trace_id = ""
    span_id = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def set_error(self, error: str) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager that opens a span on entry and records it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def trace_id(self) -> str:
        return self._span.trace_id

    @property
    def span_id(self) -> str:
        return self._span.span_id

    def set_tag(self, key: str, value: Any) -> None:
        self._span.tags[key] = value

    def set_error(self, error: str) -> None:
        """Mark the span failed without an exception escaping the ``with``
        (dispatchers that catch and convert errors into replies)."""
        self._span.error = error

    def __enter__(self) -> "_SpanHandle":
        self._tracer._push(self._span)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.error = exc_type.__name__
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects finished spans, retaining the most recent traces.

    Thread-safe: each thread keeps its own current-span stack; finished
    spans land in a bounded per-trace store (oldest traces evicted).
    """

    def __init__(
        self, max_traces: int = 256, sink: SpanSink | None = None
    ) -> None:
        self.max_traces = max_traces
        self.sink = sink
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[Span]]" = OrderedDict()
        if sink is not None:
            sink.live = self._traces.__contains__
        # Cross-thread view of each thread's innermost open span, for
        # thread dumps (the thread-local stack is invisible from the
        # admin RPC's thread).  Plain dict ops under the GIL; entries are
        # removed when a thread's stack empties.
        self._active_by_thread: dict[int, Span] = {}

    # -- span lifecycle --------------------------------------------------

    def span(
        self,
        name: str,
        parent: tuple[str, str] | None = None,
        **tags: Any,
    ) -> _SpanHandle:
        """Open a child span of ``parent`` (explicit ``(trace_id, span_id)``
        wire context) or of the thread's current span, or a new root."""
        if parent is not None and parent[0]:
            trace_id, parent_id = parent[0], parent[1]
        else:
            current = self.current()
            if current is not None:
                trace_id, parent_id = current.trace_id, current.span_id
            else:
                trace_id, parent_id = _next_id(), None
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_next_id(),
            parent_id=parent_id,
            start=time.perf_counter(),
            tags=dict(tags) if tags else {},
        )
        return _SpanHandle(self, span)

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def context(self) -> tuple[str, str] | None:
        """Wire context ``(trace_id, span_id)`` of the current span."""
        current = self.current()
        if current is None:
            return None
        return (current.trace_id, current.span_id)

    def context_for_thread(self, ident: int) -> tuple[str, str] | None:
        """Wire context of another thread's innermost open span, if any."""
        span = self._active_by_thread.get(ident)
        if span is None:
            return None
        return (span.trace_id, span.span_id)

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)
        self._active_by_thread[threading.get_ident()] = span

    def _pop(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.start
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        ident = threading.get_ident()
        if stack:
            self._active_by_thread[ident] = stack[-1]
        else:
            self._active_by_thread.pop(ident, None)
        if self.sink is not None:
            self.sink.offer(span)
        with self._lock:
            spans = self._traces.get(span.trace_id)
            if spans is None:
                self._traces[span.trace_id] = [span]
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            else:
                spans.append(span)
                self._traces.move_to_end(span.trace_id)

    # -- inspection ------------------------------------------------------

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def spans(self, trace_id: str) -> list[Span]:
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def span_tree(self, trace_id: str) -> list[dict[str, Any]]:
        """Nested view of one trace: each node is ``{span, children}``.

        Roots are spans whose parent was never recorded locally (e.g. the
        client span of a request that arrived over TCP).
        """
        spans = self.spans(trace_id)
        nodes = {
            s.span_id: {"span": s, "children": []} for s in spans
        }
        roots: list[dict[str, Any]] = []
        for s in spans:
            node = nodes[s.span_id]
            parent = nodes.get(s.parent_id) if s.parent_id else None
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def resolve_trace(self, ref: str) -> str | None:
        """Map a trace id *or* a span id onto its trace id.

        Lets operators paste either column of ``rls slowlog`` / ``rls
        trace`` output into ``rls trace <id>``.  Scans the bounded trace
        store and, for orphaned fragments, the sink's retained spans.
        """
        with self._lock:
            if ref in self._traces:
                return ref
            for trace_id, spans in self._traces.items():
                for s in spans:
                    if s.span_id == ref:
                        return trace_id
        if self.sink is not None:
            for s in self.sink.interesting():
                if s.span_id == ref or s.trace_id == ref:
                    return s.trace_id
        return None

    def fragments(self, trace_id: str) -> list[Span]:
        """All locally-known spans of a trace: the per-trace store plus
        any sink-retained orphans, deduplicated by span id."""
        out: dict[str, Span] = {s.span_id: s for s in self.spans(trace_id)}
        if self.sink is not None:
            for s in self.sink.trace(trace_id):
                out.setdefault(s.span_id, s)
        return sorted(out.values(), key=lambda s: s.start)

    def find_spans(self, name: str) -> list[Span]:
        """Every finished span with ``name``, across retained traces."""
        with self._lock:
            return [
                s
                for spans in self._traces.values()
                for s in spans
                if s.name == name
            ]

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


def walk_tree(tree: list[dict[str, Any]]) -> Iterator[tuple[int, Span]]:
    """Depth-first (depth, span) pairs over a :meth:`Tracer.span_tree`."""
    stack = [(0, node) for node in reversed(tree)]
    while stack:
        depth, node = stack.pop()
        yield depth, node["span"]
        for child in reversed(node["children"]):
            stack.append((depth + 1, child))


def format_tree(tree: list[dict[str, Any]]) -> str:
    """Human-readable indentation view of one trace."""
    lines = []
    for depth, s in walk_tree(tree):
        tags = (
            " " + " ".join(f"{k}={v}" for k, v in s.tags.items())
            if s.tags
            else ""
        )
        lines.append(f"{'  ' * depth}{s.name} {s.duration * 1e3:.3f}ms{tags}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Module-level installation point
# ---------------------------------------------------------------------------

_tracer: Tracer | None = None


def install_tracer(tracer: Tracer | None) -> None:
    """Install (or with ``None`` remove) the process-wide tracer."""
    global _tracer
    _tracer = tracer


def current_tracer() -> Tracer | None:
    return _tracer


def current_sink() -> SpanSink | None:
    """The installed tracer's span sink, if both exist."""
    tracer = _tracer
    return tracer.sink if tracer is not None else None


def active() -> bool:
    return _tracer is not None


def span(name: str, parent: tuple[str, str] | None = None, **tags: Any):
    """Open a span on the installed tracer, or a shared no-op if none."""
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, parent=parent, **tags)


def context() -> tuple[str, str] | None:
    """Current wire context for outbound propagation (None = no tracer)."""
    tracer = _tracer
    if tracer is None:
        return None
    return tracer.context()

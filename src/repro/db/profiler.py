"""Query-level observability for the embedded database engine.

The telemetry layers (metrics, tracing) stop at the RPC/WAL boundary:
when ``lrc.query`` p95 spikes they cannot say whether the time went to an
index probe, a heap scan over dead tuples, WAL flushing, or latch
contention.  This module is the missing layer:

* :class:`QueryProfile` — one statement's execution record: chosen access
  path per operator, rows examined vs. returned, dead-index hits, and
  per-operator wall time on an injectable clock.  A SQL plan threads one
  through its operators when asked (``EXPLAIN ANALYZE`` and the profiled
  engine path).
* :class:`QueryLog` — bounded tail retention of slow/error statements
  with their profiles, normalized statement text, and the enclosing RPC
  span context (same retention idea as
  :class:`~repro.obs.tracing.SpanSink`: decide at statement *end*, keep
  the slow and the broken, plus a small recent ring for context).
* :class:`QueryProfiler` — per-database container tying the two to the
  metrics registry (``db.statements{class=...}``,
  ``db.statement_latency{class=...}``, ``db.slow_statements``), and
  :class:`StatementMeta` — the per-statement constants of that accounting
  (class label, normalized text, instruments), worked out once when the
  statement is prepared.
* :class:`TimedLatch` — a lock wrapper that observes *contended*
  acquisition waits into a histogram (``db.latch_wait{table=...}``,
  ``db.wal_lock_wait``) while keeping the uncontended fast path at one
  non-blocking acquire.

Cost model: with profiling disabled (the default for bare engines) the
per-statement cost is one attribute check in ``Database.execute``; the
latch wrappers cost one Python-level enter/exit per acquisition.  Both are gated
by ``benchmarks/check_overhead.py``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.obs import reqctx
from repro.obs.metrics import (
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    MetricsRegistry,
)

#: Statements at or above this duration (seconds) are always retained.
DEFAULT_SLOW_QUERY_THRESHOLD = 0.050

#: Default capacity of the slow/error query-log ring.
DEFAULT_QUERY_LOG_CAPACITY = 256


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}ms"


class OpStats:
    """One operator's actuals within a :class:`QueryProfile`.

    Plan operators mutate these in place (join operators accumulate
    across probe calls), so this is a plain mutable record, not a frozen
    dataclass.
    """

    __slots__ = (
        "name",
        "detail",
        "rows_examined",
        "rows_returned",
        "dead_hits",
        "elapsed",
    )

    def __init__(
        self,
        name: str,
        detail: str = "",
        rows_examined: int | None = None,
        rows_returned: int | None = None,
        dead_hits: int | None = None,
        elapsed: float | None = None,
    ) -> None:
        self.name = name
        self.detail = detail
        self.rows_examined = rows_examined
        self.rows_returned = rows_returned
        self.dead_hits = dead_hits
        self.elapsed = elapsed

    def render(self) -> str:
        """One EXPLAIN ANALYZE plan line, e.g.
        ``drive: hash index lookup t_lfn(name) (actual rows examined=3
        returned=3 dead_hits=0 time=0.041ms)``."""
        head = f"{self.name}: {self.detail}" if self.detail else self.name
        parts: list[str] = []
        if self.rows_examined is not None:
            parts.append(f"rows examined={self.rows_examined}")
        if self.rows_returned is not None:
            parts.append(f"returned={self.rows_returned}")
        if self.dead_hits is not None:
            parts.append(f"dead_hits={self.dead_hits}")
        if self.elapsed is not None:
            parts.append(f"time={_fmt_ms(self.elapsed)}")
        if not parts:
            return head
        return f"{head} (actual {' '.join(parts)})"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "detail": self.detail,
            "rows_examined": self.rows_examined,
            "rows_returned": self.rows_returned,
            "dead_hits": self.dead_hits,
            "elapsed": self.elapsed,
        }


class QueryProfile:
    """Per-statement execution record threaded through a plan's operators.

    ``clock`` is injectable so tests (and the simulator) get
    deterministic per-operator timings.
    """

    __slots__ = ("clock", "ops", "duration", "rows_returned")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.ops: list[OpStats] = []
        #: Total statement wall time; set by whoever drives execution.
        self.duration = 0.0
        #: Rows (or affected-row count) the statement produced.
        self.rows_returned = 0

    def add_op(
        self,
        name: str,
        detail: str = "",
        rows_examined: int | None = None,
        rows_returned: int | None = None,
        dead_hits: int | None = None,
        elapsed: float | None = None,
    ) -> OpStats:
        op = OpStats(name, detail, rows_examined, rows_returned, dead_hits, elapsed)
        self.ops.append(op)
        return op

    @property
    def rows_examined(self) -> int:
        """Rows fetched by access paths (drive + join probes)."""
        total = 0
        for op in self.ops:
            if op.rows_examined and (op.name == "drive" or op.name == "join"):
                total += op.rows_examined
        return total

    @property
    def dead_index_hits(self) -> int:
        total = 0
        for op in self.ops:
            if op.dead_hits:
                total += op.dead_hits
        return total

    def plan_lines(self) -> list[str]:
        """EXPLAIN ANALYZE output: one line per operator plus a total."""
        lines = [op.render() for op in self.ops]
        lines.append(
            f"total: {self.rows_returned} rows in {_fmt_ms(self.duration)}"
        )
        return lines

    def to_dict(self) -> list[dict[str, Any]]:
        return [op.to_dict() for op in self.ops]


def statement_class(stmt: Any) -> str:
    """Low-cardinality statement label: AST type plus target table.

    ``select:t_lfn``, ``insert:t_map``, ``vacuum`` — safe as a metric
    label because the statement *shape* set is small even when the SQL
    text is unique per call.
    """
    kind = type(stmt).__name__.lower()
    table = getattr(stmt, "table", None)
    if table is None:
        return kind
    name = getattr(table, "name", table)  # Select holds a TableRef
    if isinstance(name, str):
        return f"{kind}:{name}"
    return kind


def normalize_statement(sql: str) -> str:
    """Statement text with literals replaced by ``?`` placeholders.

    ``SELECT pfn FROM t WHERE lfn = 'x9'`` and ``... = 'x10'`` normalize
    to the same string, so the query log groups parameter-inlined SQL the
    way a DBA expects.  Unparseable text is returned stripped.
    """
    from repro.db.errors import SQLSyntaxError
    from repro.db.sql.lexer import EOF, NUMBER, PARAM, STRING, tokenize

    try:
        tokens = tokenize(sql)
    except SQLSyntaxError:
        return sql.strip()
    parts: list[str] = []
    for tok in tokens:
        if tok.kind == EOF:
            break
        if tok.kind in (STRING, NUMBER, PARAM):
            parts.append("?")
        else:
            parts.append(str(tok.value))
    return " ".join(parts)


class StatementMeta:
    """What statement accounting needs that never changes between
    executions of one statement: the low-cardinality class label, the
    normalized text, and the ``db.statements`` / ``db.statement_latency``
    instruments."""

    __slots__ = ("statement_class", "normalized", "counter", "latency")

    def __init__(
        self,
        statement_class: str,
        normalized: str,
        counter: Any,
        latency: Any,
    ) -> None:
        self.statement_class = statement_class
        self.normalized = normalized
        self.counter = counter
        self.latency = latency


class QueryLogEntry:
    """One retained statement with its profile and trace linkage."""

    __slots__ = (
        "seq",
        "sql",
        "statement_class",
        "duration",
        "rows_examined",
        "rows_returned",
        "dead_index_hits",
        "error",
        "trace_id",
        "span_id",
        "principal",
        "plan",
    )

    def __init__(
        self,
        seq: int,
        sql: str,
        statement_class: str,
        duration: float,
        rows_examined: int = 0,
        rows_returned: int = 0,
        dead_index_hits: int = 0,
        error: str | None = None,
        trace_id: str | None = None,
        span_id: str | None = None,
        principal: str | None = None,
        plan: "list[dict[str, Any]] | list[OpStats] | None" = None,
    ) -> None:
        self.seq = seq
        self.sql = sql
        self.statement_class = statement_class
        self.duration = duration
        self.rows_examined = rows_examined
        self.rows_returned = rows_returned
        self.dead_index_hits = dead_index_hits
        self.error = error
        self.trace_id = trace_id
        self.span_id = span_id
        #: Usage principal of the enclosing RPC (``rls slowlog`` shows
        #: who issued the statement); ``None`` outside any request.
        self.principal = principal
        #: Operators as live :class:`OpStats` (from a profile; rendered to
        #: dicts only if the entry is ever read) or already as dicts.
        self.plan = plan or []

    def to_dict(self) -> dict[str, Any]:
        """Wire-safe form (the ``admin_slow_queries`` RPC payload)."""
        return {
            "seq": self.seq,
            "sql": self.sql,
            "statement_class": self.statement_class,
            "duration": self.duration,
            "rows_examined": self.rows_examined,
            "rows_returned": self.rows_returned,
            "dead_index_hits": self.dead_index_hits,
            "error": self.error,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "principal": self.principal,
            "plan": [
                op.to_dict() if isinstance(op, OpStats) else op
                for op in self.plan
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryLogEntry":
        return cls(
            seq=data.get("seq", 0),
            sql=data.get("sql", ""),
            statement_class=data.get("statement_class", ""),
            duration=data.get("duration", 0.0),
            rows_examined=data.get("rows_examined", 0),
            rows_returned=data.get("rows_returned", 0),
            dead_index_hits=data.get("dead_index_hits", 0),
            error=data.get("error"),
            trace_id=data.get("trace_id"),
            span_id=data.get("span_id"),
            principal=data.get("principal"),
            plan=list(data.get("plan", [])),
        )


class QueryLog:
    """Bounded slow/error statement retention (tail-based, like SpanSink).

    * statements with an error, or ``duration >= slow_threshold``, go to
      the **interesting** ring (capacity ``capacity``);
    * every offered statement also lands in a smaller **recent** ring so
      a retained slow query has its surrounding traffic for context.

    Each ring evicts its own oldest entries, so fast-and-fine traffic
    can never push out a retained slow or failed statement.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_QUERY_LOG_CAPACITY,
        slow_threshold: float = DEFAULT_SLOW_QUERY_THRESHOLD,
        recent_capacity: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.slow_threshold = slow_threshold
        self.recent_capacity = (
            recent_capacity if recent_capacity is not None
            else max(16, capacity // 4)
        )
        self._lock = threading.Lock()
        self._interesting: "deque[QueryLogEntry]" = deque(maxlen=capacity)
        self._recent: "deque[QueryLogEntry]" = deque(maxlen=self.recent_capacity)
        self.offered = 0
        self.retained = 0

    def interesting_reason(self, entry: QueryLogEntry) -> str | None:
        """Why this statement is tail-retained, or ``None``."""
        if entry.error is not None:
            return "error"
        if entry.duration >= self.slow_threshold:
            return "slow"
        return None

    def offer(self, entry: QueryLogEntry) -> None:
        """Consider one finished statement for retention."""
        reason = self.interesting_reason(entry)
        with self._lock:
            self.offered += 1
            self._recent.append(entry)
            if reason is not None:
                self.retained += 1
                self._interesting.append(entry)

    def interesting(self) -> list[QueryLogEntry]:
        """Tail-retained statements (errors and slow), oldest first."""
        with self._lock:
            return list(self._interesting)

    def recent(self) -> list[QueryLogEntry]:
        with self._lock:
            return list(self._recent)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "offered": self.offered,
                "retained": self.retained,
                "interesting": len(self._interesting),
                "recent": len(self._recent),
                "capacity": self.capacity,
                "slow_threshold": self.slow_threshold,
            }

    def to_dict(self, limit: int | None = None) -> dict[str, Any]:
        """RPC payload: stats plus the retained statements (newest last)."""
        entries = self.interesting()
        if limit is not None and limit >= 0:
            entries = entries[-limit:]
        return {
            "stats": self.stats(),
            "queries": [entry.to_dict() for entry in entries],
        }

    def clear(self) -> None:
        with self._lock:
            self._interesting.clear()
            self._recent.clear()


class QueryProfiler:
    """Per-database profiling front end: config + log + metrics.

    Disabled by default (bare engines pay only the enabled-flag check);
    :class:`~repro.core.server.RLSServer` enables it from
    ``ServerConfig.profile_queries``.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        enabled: bool = False,
        slow_threshold: float = DEFAULT_SLOW_QUERY_THRESHOLD,
        capacity: int = DEFAULT_QUERY_LOG_CAPACITY,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.enabled = enabled
        self.clock = clock
        self.log = QueryLog(capacity=capacity, slow_threshold=slow_threshold)
        self._seq = itertools.count(1)
        self._m_slow = self.metrics.counter("db.slow_statements")

    @property
    def slow_threshold(self) -> float:
        return self.log.slow_threshold

    def configure(
        self,
        enabled: bool | None = None,
        slow_threshold: float | None = None,
        capacity: int | None = None,
    ) -> "QueryProfiler":
        if enabled is not None:
            self.enabled = enabled
        if slow_threshold is not None:
            self.log.slow_threshold = slow_threshold
        if capacity is not None and capacity != self.log.capacity:
            self.log = QueryLog(
                capacity=capacity, slow_threshold=self.log.slow_threshold
            )
        return self

    def describe(self, sql: str, stmt: Any) -> StatementMeta:
        """The accounting constants of one statement (see
        :class:`StatementMeta`); a prepared plan keeps them from its
        first profiled run on, so :meth:`account` does no label
        formatting, tokenizing or registry lookup per execution."""
        cls = statement_class(stmt)
        return StatementMeta(
            cls,
            normalize_statement(sql),
            self.metrics.counter("db.statements", **{"class": cls}),
            self.metrics.histogram("db.statement_latency", **{"class": cls}),
        )

    def record(
        self,
        sql: str,
        stmt: Any,
        profile: QueryProfile,
        duration: float,
        error: str | None = None,
        trace: tuple[str, str] | None = None,
    ) -> QueryLogEntry:
        """Account one finished statement that was never prepared."""
        return self.account(
            self.describe(sql, stmt), profile, duration, error, trace
        )

    def account(
        self,
        meta: StatementMeta,
        profile: QueryProfile,
        duration: float,
        error: str | None = None,
        trace: tuple[str, str] | None = None,
    ) -> QueryLogEntry:
        """Account one finished statement: metrics plus log retention."""
        meta.counter.inc()
        meta.latency.observe(duration)
        if error is None and duration >= self.log.slow_threshold:
            self._m_slow.inc()
        rows_examined = profile.rows_examined
        # Charge the enclosing request's cost context (profiled path
        # only — bare engines never reach here, so they pay nothing).
        costs = reqctx.current()
        if costs is not None:
            costs.rows_examined += rows_examined
        entry = QueryLogEntry(
            next(self._seq),
            meta.normalized,
            meta.statement_class,
            duration,
            rows_examined,
            profile.rows_returned,
            profile.dead_index_hits,
            error,
            trace[0] if trace else None,
            trace[1] if trace else None,
            costs.principal if costs is not None else None,
            profile.ops,
        )
        self.log.offer(entry)
        return entry


class TimedLatch:
    """Lock wrapper observing *contended* acquisition waits.

    Every acquisition tries a non-blocking acquire first (correct for
    RLocks too: re-entrant acquisition by the holder never blocks), so
    only genuine contention reaches the histogram at all — there the
    ``perf_counter`` pair and the observe are skipped when it is a no-op.
    Uncontended, the wrapper adds one Python-level enter/exit to the lock
    it wraps — the budget ``check_overhead`` gates.
    """

    __slots__ = ("_lock", "hist", "_clock")

    def __init__(
        self,
        hist: Any = None,
        reentrant: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._lock = threading.RLock() if reentrant else threading.Lock()
        self.hist = hist if hist is not None else NULL_HISTOGRAM
        self._clock = clock

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._lock.acquire(False):
            return True
        if not blocking:
            return False
        if self.hist.noop:
            return self._lock.acquire(True, timeout)
        start = self._clock()
        acquired = self._lock.acquire(True, timeout)
        self.hist.observe(self._clock() - start)
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "TimedLatch":
        if not self._lock.acquire(False):
            self.acquire()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._lock.release()

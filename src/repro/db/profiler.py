"""Query-level observability for the embedded database engine.

The telemetry layers (metrics, tracing) stop at the RPC/WAL boundary:
when ``lrc.query`` p95 spikes they cannot say whether the time went to an
index probe, a heap scan over dead tuples, WAL flushing, or latch
contention.  This module is the missing layer:

* :class:`QueryProfile` — one statement's execution record: chosen access
  path per operator, rows examined vs. returned, dead-index hits, and
  per-operator wall time on an injectable clock.  A SQL plan threads one
  through its operators when asked (``EXPLAIN ANALYZE`` and the profiled
  engine path); each operator writes one flat list, ``[name, detail,
  examined, returned, dead_hits, elapsed]``, that :class:`OpStats` renders.
* :class:`QueryLog` — bounded tail retention of slow/error statements
  with their profiles, normalized statement text, and the enclosing RPC
  span context, on the :class:`~repro.obs.retention.TailRing` that also
  holds the span sink's spans: decide at statement *end*, keep the slow
  and the broken, plus a small recent ring for context.  Offering takes
  no lock.  The profiler offers a tuple; :class:`QueryLogEntry` is built
  when read.
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
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import reqctx
from repro.obs.metrics import (
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.obs.retention import TailRing, side_capacity

#: Statements at or above this duration (seconds) are always retained.
DEFAULT_SLOW_QUERY_THRESHOLD = 0.050

#: Default capacity of the slow/error query-log ring.
DEFAULT_QUERY_LOG_CAPACITY = 256


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}ms"


#: Where an operator keeps its actuals in its flat list (``None`` where
#: the operator has no such figure); ``[0]`` is its name, ``[1]`` its detail.
EXAMINED, RETURNED, DEAD_HITS, ELAPSED = 2, 3, 4, 5


@dataclass(slots=True)
class OpStats:
    """One operator's actuals, as a reader sees them: built from the flat
    list the operator wrote (``OpStats(*op)``) to render an ``EXPLAIN
    ANALYZE`` line or a slow-query plan entry."""

    name: str
    detail: str = ""
    rows_examined: int | None = None
    rows_returned: int | None = None
    dead_hits: int | None = None
    elapsed: float | None = None

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
        return {name: getattr(self, name) for name in self.__slots__}


class QueryProfile:
    """Per-statement execution record threaded through a plan's operators.

    ``clock`` is injectable so tests (and the simulator) get
    deterministic per-operator timings.
    """

    __slots__ = ("clock", "ops", "duration", "rows_returned")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: One flat list per operator, in plan order (a join adds to its own).
        self.ops: list[list] = []
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
    ) -> list:
        op = [name, detail, rows_examined, rows_returned, dead_hits, elapsed]
        self.ops.append(op)
        return op

    @property
    def rows_examined(self) -> int:
        """Rows fetched by access paths (drive + join probes)."""
        total = 0
        for op in self.ops:
            if op[EXAMINED] and (op[0] == "drive" or op[0] == "join"):
                total += op[EXAMINED]
        return total

    @property
    def dead_index_hits(self) -> int:
        return sum(op[DEAD_HITS] or 0 for op in self.ops)

    def plan_lines(self) -> list[str]:
        """EXPLAIN ANALYZE output: one line per operator plus a total."""
        lines = [OpStats(*op).render() for op in self.ops]
        lines.append(
            f"total: {self.rows_returned} rows in {_fmt_ms(self.duration)}"
        )
        return lines


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


@dataclass(slots=True)
class QueryLogEntry:
    """One retained statement with its profile and trace linkage."""

    seq: int = 0
    sql: str = ""
    statement_class: str = ""
    duration: float = 0.0
    rows_examined: int = 0
    rows_returned: int = 0
    dead_index_hits: int = 0
    error: str | None = None
    trace_id: str | None = None
    span_id: str | None = None
    #: Usage principal of the enclosing RPC (``rls slowlog`` shows who
    #: issued the statement); ``None`` outside any request.
    principal: str | None = None
    #: Operators as the flat lists they wrote (from a profile) or already
    #: as dicts (off the wire).
    plan: list = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """Wire-safe form (the ``admin_slow_queries`` RPC payload)."""
        data = {name: getattr(self, name) for name in self.__slots__}
        data["plan"] = [
            op if isinstance(op, dict) else OpStats(*op).to_dict()
            for op in self.plan
        ]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryLogEntry":
        known = {name: data[name] for name in cls.__slots__ if name in data}
        known["plan"] = list(known.get("plan", ()))
        return cls(**known)


def _entry(statement: "QueryLogEntry | tuple") -> QueryLogEntry:
    """The entry a kept statement reads as (:meth:`QueryProfiler.account`
    makes the tuple)."""
    if type(statement) is not tuple:
        return statement
    seq, meta, profile, duration, examined, error, trace, principal = statement
    return QueryLogEntry(
        seq, meta.normalized, meta.statement_class, duration, examined,
        profile.rows_returned, profile.dead_index_hits, error,
        *(trace or (None, None)), principal, profile.ops,
    )


class QueryLog:
    """Bounded slow/error statement retention (tail-based, like SpanSink).

    * statements with an error, or ``duration >= slow_threshold``, go to
      the **interesting** ring (capacity ``capacity``);
    * every offered statement also lands in a smaller **recent** ring so
      a retained slow query has its surrounding traffic for context.

    Each ring evicts its own oldest entries, so fast-and-fine traffic
    can never push out a retained slow or failed statement.  Rings hold
    what was offered (an entry, or the profiler's tuple), hand out entries.
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
        if recent_capacity is None:
            recent_capacity = side_capacity(capacity)
        self._ring = TailRing(recent_capacity, capacity)

    def offer(
        self, statement: "QueryLogEntry | tuple", interesting: bool | None = None
    ) -> None:
        """Consider one finished statement for retention: an entry, or the
        profiler's tuple with its verdict (an entry's is: failed or slow)."""
        if interesting is None:
            interesting = (
                statement.error is not None
                or statement.duration >= self.slow_threshold
            )
        self._ring.offer(statement, interesting)

    def interesting(self) -> list[QueryLogEntry]:
        """Tail-retained statements (errors and slow), oldest first."""
        return [_entry(statement) for statement in self._ring.snapshot()[2]]

    def recent(self) -> list[QueryLogEntry]:
        return [_entry(statement) for statement in self._ring.snapshot()[3]]

    def stats(self) -> dict[str, Any]:
        offered, retained, kept, recent = self._ring.snapshot()
        return {
            "offered": offered,
            "retained": retained,
            "interesting": len(kept),
            "recent": len(recent),
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
        self._ring.clear()


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
        self, enabled: bool | None = None, slow_threshold: float | None = None
    ) -> "QueryProfiler":
        if enabled is not None:
            self.enabled = enabled
        if slow_threshold is not None:
            self.log.slow_threshold = slow_threshold
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
        return _entry(
            self.account(self.describe(sql, stmt), profile, duration, error, trace)
        )

    def account(
        self,
        meta: StatementMeta,
        profile: QueryProfile,
        duration: float,
        error: str | None = None,
        trace: tuple[str, str] | None = None,
    ) -> tuple:
        """Account one finished statement: metrics plus log retention.

        Returns what the log keeps of it — ``(seq, meta, profile, duration,
        rows examined, error, trace, principal)``, nothing of the statement's
        parameters; the :class:`QueryLogEntry` is built when the log is read."""
        meta.counter.inc()
        meta.latency.observe(duration)
        slow = duration >= self.log.slow_threshold
        if slow and error is None:
            self._m_slow.inc()
        examined = profile.rows_examined
        # Charge the enclosing request's cost context (profiled path
        # only — bare engines never reach here, so they pay nothing).
        costs = reqctx.current()
        principal = None
        if costs is not None:
            costs.rows_examined += examined
            principal = costs.principal
        statement = (
            next(self._seq), meta, profile, duration, examined, error, trace, principal
        )
        self.log.offer(statement, slow or error is not None)
        return statement


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

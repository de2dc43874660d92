"""Run-time half of the SQL engine: prepared plans and their operators.

:mod:`repro.db.sql.planner` turns a parsed statement into a :class:`Plan`
exactly once; :meth:`Plan.run` is then the only way a statement executes.
A plan holds everything that does not depend on the bound parameters —
``Table`` and index *objects*, column positions, predicates and
projections compiled to closures over positional rows — so running it is
index probes and closure calls, with no AST in sight:

* equality on an indexed column set probes the hash index (the hot path
  for every RLS operation), ``IN (...)`` probes it once per distinct key
  (bulk operations), ``LIKE 'prefix%'`` walks the ordered index (wildcard
  queries), anything else scans;
* joins run as nested loops, probing the inner table through a hash index
  on the join key when there is one (the LFN→map→PFN three-way join).

Plans are immutable and re-entrant: every per-execution value lives in
``run``'s locals, so any number of threads may run one plan at once.
``EXPLAIN``, ``EXPLAIN ANALYZE`` and the slow-query log render from the
same operator objects that execute (their ``describe``/``detail`` text),
and with a :class:`~repro.db.profiler.QueryProfile` threaded through,
each operator writes rows examined vs. returned, dead-index hits and
wall time into a flat list of its own (detail that depends on parameters
is resolved to text then: nothing kept of a statement refers to them).
With no profile the extra cost is a few ``is None`` checks.

NULL never equals anything here: ``=``, ``IN`` and every index probe
treat a NULL on either side as no match, which is what lets the planner
drop a conjunct its index already answers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.db.index import HashIndex, OrderedIndex
from repro.db.profiler import DEAD_HITS, ELAPSED, EXAMINED, RETURNED
from repro.db.profiler import QueryProfile, StatementMeta
from repro.db.storage import Row
from repro.db.table import Table

#: A compiled expression: (current row of each binding, by slot; params).
RowFn = Callable[[Sequence[Any], Sequence[Any]], Any]
#: A compiled row-free expression (literals and ``?`` parameters only).
ConstFn = Callable[[Sequence[Any]], Any]
Pairs = Iterable[tuple[int, Row]]

FILTER_DETAIL = "residual WHERE re-checked per row"


class ResultSet:
    """Rows plus metadata returned by :meth:`Database.execute`.

    ``generated_keys`` holds, for an INSERT into a table with an
    autoincrement column, that column's value in every inserted row, in
    ``VALUES`` order; ``lastrowid`` is the last of them.
    """

    __slots__ = ("columns", "rows", "rowcount", "generated_keys")

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple],
        rowcount: int,
        generated_keys: Sequence[int] = (),
    ) -> None:
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount
        self.generated_keys = generated_keys

    @property
    def lastrowid(self) -> int | None:
        return self.generated_keys[-1] if self.generated_keys else None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row, or ``None`` if empty."""
        if not self.rows:
            return None
        return self.rows[0][0]


# ---------------------------------------------------------------------------
# Access paths for a statement's driving table
# ---------------------------------------------------------------------------


def index_label(table: Table, positions: Sequence[int]) -> str:
    """``t_map(lfn_id, pfn_id)`` — how plan text names an index."""
    cols = ", ".join(table.schema.columns[p].name for p in positions)
    return f"{table.schema.name}({cols})"


@dataclass(slots=True)
class FullScan:
    """Every live row; ``filtered`` only words the description."""

    table: Table
    filtered: bool

    def rows(self, params: Sequence[Any]) -> Pairs:
        return self.table.scan()

    def describe(self, params: Sequence[Any]) -> str:
        suffix = " + filter" if self.filtered else ""
        return f"full scan {self.table.schema.name}{suffix}"


@dataclass(slots=True)
class HashLookup:
    """``col = const [AND ...]`` answered by one hash-index probe;
    ``key_of`` gives the key in the index's form, ``None`` for NULL."""

    table: Table
    index: HashIndex
    key_of: ConstFn
    text: str = field(init=False)

    def __post_init__(self) -> None:
        label = index_label(self.table, self.index.column_positions)
        self.text = f"hash index lookup {label}"

    def rows(self, params: Sequence[Any]) -> Pairs:
        key = self.key_of(params)
        if key is None:
            return ()
        return self.table.lookup_index_many(self.index, (key,))

    def describe(self, params: Sequence[Any]) -> str:
        return self.text


@dataclass(slots=True)
class InProbe:
    """``col IN (const, ...)``: one hash-index probe per distinct key,
    all under one latch hold."""

    table: Table
    index: HashIndex
    items_of: ConstFn

    def _keys(self, params: Sequence[Any]) -> list[Any]:
        return [k for k in dict.fromkeys(self.items_of(params)) if k is not None]

    def rows(self, params: Sequence[Any]) -> Pairs:
        return self.table.lookup_index_many(self.index, self._keys(params))

    def describe(self, params: Sequence[Any]) -> str:
        label = index_label(self.table, self.index.column_positions)
        return f"hash index IN probe {label} [{len(self._keys(params))} keys]"


@dataclass(slots=True)
class PrefixScan:
    """``col LIKE const``: ordered-index walk over the literal prefix.

    Only narrows the candidates; the LIKE itself stays in the residual.
    A pattern that turns out not to be a string cannot use the index.
    """

    table: Table
    index: OrderedIndex
    pattern_of: ConstFn

    def rows(self, params: Sequence[Any]) -> Pairs:
        pattern = self.pattern_of(params)
        if not isinstance(pattern, str):
            return self.table.scan()
        return self.table.prefix_index(self.index, like_prefix(pattern))

    def describe(self, params: Sequence[Any]) -> str:
        pattern = self.pattern_of(params)
        if not isinstance(pattern, str):
            return FullScan(self.table, filtered=True).describe(params)
        label = index_label(self.table, (self.index.column_position,))
        return f"ordered index prefix scan {label} prefix={like_prefix(pattern)!r}"


def _drive(path: Any, params: Sequence[Any], profile: QueryProfile | None) -> Pairs:
    """Candidate rows of the driving table; with a profile they are a
    list (the path's own when it returns one) and a ``drive`` operator
    records rows fetched, the dead-index-hit delta and the access-path
    wall time."""
    if profile is None:
        return path.rows(params)
    start = profile.clock()
    stats = path.table.stats
    dead_before = stats.dead_index_hits
    found = path.rows(params)
    if type(found) is not list:
        found = list(found)
    fetched, dead = len(found), stats.dead_index_hits - dead_before
    profile.ops.append(
        ["drive", path.describe(params), fetched, fetched, dead, profile.clock() - start]
    )
    return found


@dataclass(slots=True)
class JoinStep:
    """One inner table of the nested loop, reached by hash probe on the
    join key (``index``/``key_of`` set) or by full scan; ``on`` is what
    of the ON clause the probe does not already answer."""

    slot: int
    table: Table
    index: HashIndex | None
    key_of: RowFn | None
    on: RowFn | None
    detail: str = field(init=False)

    def __post_init__(self) -> None:
        probe = "full scan"
        if self.index is not None:
            column = self.table.schema.columns[self.index.column_positions[0]]
            probe = f"hash probe on {column.name}"
        self.detail = f"{self.table.schema.name} via {probe}"

    def rows(self, rows: Sequence[Any], params: Sequence[Any]) -> Pairs:
        if self.index is None:
            return self.table.scan()
        value = self.key_of(rows, params)
        if value is None:
            return ()
        return self.table.lookup_index_many(self.index, (value,))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def bind_derived(params: Sequence[Any], derived: Sequence[ConstFn]) -> Sequence[Any]:
    """``params`` extended with the per-execution values a plan derives
    from them (IN-list membership sets), so compiled predicates find
    them at fixed negative positions and the plan itself stays stateless."""
    if not derived:
        return params
    return [*params, *[fn(params) for fn in reversed(derived)]]


class Plan:
    """One statement, compiled once.

    ``epoch`` (the schema epoch it was planned under), ``kind`` (the
    ``sql.execute`` span tag) and ``source`` (SQL text and parsed
    statement) are set once by :meth:`Database._prepare` before the plan
    is published; ``meta`` (what the profiler needs: statement class,
    normalized SQL, instruments) is worked out from ``source`` on the
    plan's first profiled run, so an engine that never profiles never
    tokenizes a statement or registers a per-class series.
    """

    __slots__ = ("epoch", "kind", "source", "meta")

    epoch: int
    kind: str
    source: tuple[str, Any]
    meta: StatementMeta | None

    def run(
        self, params: Sequence[Any], profile: QueryProfile | None = None
    ) -> ResultSet:
        raise NotImplementedError

    def explain(self, params: Sequence[Any]) -> list[str]:
        """Human-readable access plan, one line per operator."""
        raise NotImplementedError


@dataclass(slots=True)
class SelectPlan(Plan):
    drive: Any
    joins: tuple[JoinStep, ...]
    residual: RowFn | None
    #: Output tuple of the current rows; when sorting on non-projected
    #: source columns, ``(output tuple, sort key values)`` instead.
    project: RowFn
    columns: list[str]
    count_star: bool
    distinct: bool
    #: ``(position, descending)`` into the output row, or into the
    #: key-value list when ``sort_on_source``.
    sort_keys: tuple[tuple[int, bool], ...]
    sort_on_source: bool
    order_text: str
    limit: int | None
    derived: tuple[ConstFn, ...]

    def run(
        self, params: Sequence[Any], profile: QueryProfile | None = None
    ) -> ResultSet:
        params = bind_derived(params, self.derived)
        candidates = _drive(self.drive, params, profile)
        residual, project, joins = self.residual, self.project, self.joins
        rows: list[Any] = [None] * (len(joins) + 1)
        out: list[Any] = []
        emit = out.append
        join_ops = filter_op = None
        if profile is not None:
            join_ops = [["join", step.detail, 0, 0, 0, 0.0] for step in joins]
            profile.ops += join_ops
            if residual is not None:
                filter_op = profile.add_op("filter", FILTER_DETAIL, 0, 0)

        if residual is None:
            def leaf() -> None:
                emit(project(rows, params))
        elif filter_op is None:
            def leaf() -> None:
                if residual(rows, params):
                    emit(project(rows, params))
        else:
            def leaf() -> None:
                filter_op[EXAMINED] += 1
                if residual(rows, params):
                    filter_op[RETURNED] += 1
                    emit(project(rows, params))

        if joins:
            for _rid, row in candidates:
                rows[0] = row
                self._join(0, rows, params, leaf, join_ops, profile)
        else:
            for _rid, row in candidates:
                rows[0] = row
                leaf()

        if self.count_star:
            return ResultSet(list(self.columns), [(len(out),)], 1)
        if self.distinct:
            out = list(dict.fromkeys(out))
        if self.sort_keys:
            start = profile.clock() if profile is not None else 0.0
            out = self._sorted(out)
            if profile is not None:
                profile.add_op(
                    "sort",
                    self.order_text,
                    rows_returned=len(out),
                    elapsed=profile.clock() - start,
                )
        if self.limit is not None:
            before = len(out)
            out = out[: self.limit]
            if profile is not None:
                profile.add_op("limit", str(self.limit), before, len(out))
        return ResultSet(list(self.columns), out, len(out))

    def _join(
        self,
        depth: int,
        rows: list[Any],
        params: Sequence[Any],
        leaf: Callable[[], None],
        ops: list[Any] | None,
        profile: QueryProfile | None,
    ) -> None:
        """Depth-first nested-loop join, index-probing each inner table."""
        step = self.joins[depth]
        if ops is None:
            probe = step.rows(rows, params)
        else:
            op = ops[depth]
            start = profile.clock()
            stats = step.table.stats
            dead_before = stats.dead_index_hits
            probe = step.rows(rows, params)
            if type(probe) is not list:
                probe = list(probe)
            op[ELAPSED] += profile.clock() - start
            op[DEAD_HITS] += stats.dead_index_hits - dead_before
            op[EXAMINED] += len(probe)
        slot, on = step.slot, step.on
        last = depth + 1 == len(self.joins)
        for _rid, row in probe:
            rows[slot] = row
            if on is None or on(rows, params):
                if ops is not None:
                    op[RETURNED] += 1
                if last:
                    leaf()
                else:
                    self._join(depth + 1, rows, params, leaf, ops, profile)

    def _sorted(self, out: list[Any]) -> list[Any]:
        """Stable multi-key sort, NULLs last."""
        on_source = self.sort_on_source
        for pos, descending in reversed(self.sort_keys):
            def key(entry: Any, pos: int = pos) -> tuple:
                value = (entry[1] if on_source else entry)[pos]
                return (value is None, value)

            out.sort(key=key, reverse=descending)
        return [pair[0] for pair in out] if on_source else out

    def explain(self, params: Sequence[Any]) -> list[str]:
        params = bind_derived(params, self.derived)
        lines = [f"drive: {self.drive.describe(params)}"]
        lines.extend(f"join: {step.detail}" for step in self.joins)
        if self.residual is not None:
            lines.append(f"filter: {FILTER_DETAIL}")
        if self.sort_keys:
            lines.append(f"sort: {self.order_text}")
        if self.limit is not None:
            lines.append(f"limit: {self.limit}")
        return lines


@dataclass(slots=True)
class MutatePlan(Plan):
    """UPDATE (``changes_of`` set) or DELETE over index-accelerated matches."""

    db: Any
    table_name: str
    drive: Any
    residual: RowFn | None
    changes_of: Callable[[Sequence[Any]], dict[str, Any]] | None
    derived: tuple[ConstFn, ...]

    @property
    def verb(self) -> str:
        return "delete" if self.changes_of is None else "update"

    def run(
        self, params: Sequence[Any], profile: QueryProfile | None = None
    ) -> ResultSet:
        params = bind_derived(params, self.derived)
        # Materialized before the first write: mutating under a live index
        # iteration would skip or revisit rows.
        matches = _drive(self.drive, params, profile)
        if type(matches) is not list:
            matches = list(matches)
        residual = self.residual
        if residual is not None:
            fetched = len(matches)
            matches = [m for m in matches if residual((m[1],), params)]
            if profile is not None:
                profile.add_op("filter", FILTER_DETAIL, fetched, len(matches))
        start = profile.clock() if profile is not None else 0.0
        db, name = self.db, self.table_name
        if self.changes_of is None:
            db.delete_rows(name, [rid for rid, _row in matches])
        else:
            changes = self.changes_of(params)
            for rid, _row in matches:
                db.update_row(name, rid, changes)
        if profile is not None:
            profile.add_op(
                self.verb,
                name,
                rows_returned=len(matches),
                elapsed=profile.clock() - start,
            )
        return ResultSet([], [], len(matches))

    def explain(self, params: Sequence[Any]) -> list[str]:
        params = bind_derived(params, self.derived)
        return [f"{self.verb} via {self.drive.describe(params)}"]


@dataclass(slots=True)
class InsertPlan(Plan):
    db: Any
    table_name: str
    #: One column→value builder per ``VALUES (...)`` row.
    rows_of: tuple[Callable[[Sequence[Any]], dict[str, Any]], ...]
    autoinc_pos: int | None

    def run(
        self, params: Sequence[Any], profile: QueryProfile | None = None
    ) -> ResultSet:
        start = profile.clock() if profile is not None else 0.0
        name, autoinc_pos = self.table_name, self.autoinc_pos
        # Lazily, so that row k's values are built after row k-1 is in.
        stored = self.db.insert_rows(
            name, (values_of(params) for values_of in self.rows_of)
        )
        if profile is not None:
            profile.add_op(
                "insert",
                name,
                rows_returned=len(stored),
                elapsed=profile.clock() - start,
            )
        keys = (
            [] if autoinc_pos is None
            else [row[autoinc_pos] for _rid, row in stored]
        )
        return ResultSet([], [], len(stored), generated_keys=keys)


@dataclass(slots=True)
class CommandPlan(Plan):
    """DDL and VACUUM: nothing to prepare, the plan is the action (which
    returns the affected-row count)."""

    action: Callable[[], int]

    def run(
        self, params: Sequence[Any], profile: QueryProfile | None = None
    ) -> ResultSet:
        return ResultSet([], [], self.action())


@dataclass(slots=True)
class ExplainPlan(Plan):
    """``EXPLAIN [ANALYZE]`` over the inner statement's own plan.

    PostgreSQL semantics: ``EXPLAIN ANALYZE UPDATE/DELETE`` performs the
    mutation.  Timings come from the profiler's injectable clock so tests
    are deterministic.
    """

    db: Any
    inner: Plan
    analyze: bool

    def run(
        self, params: Sequence[Any], profile: QueryProfile | None = None
    ) -> ResultSet:
        if self.analyze:
            clock = self.db.profiler.clock
            actuals = QueryProfile(clock=clock)
            start = clock()
            result = self.inner.run(params, actuals)
            actuals.duration = clock() - start
            actuals.rows_returned = (
                len(result.rows)
                if isinstance(self.inner, SelectPlan)
                else result.rowcount
            )
            lines = actuals.plan_lines()
        else:
            lines = self.inner.explain(params)
        return ResultSet(["plan"], [(line,) for line in lines], len(lines))


# ---------------------------------------------------------------------------
# LIKE
# ---------------------------------------------------------------------------

_LIKE_CACHE: dict[str, re.Pattern[str]] = {}


def like_to_regex(pattern: str) -> re.Pattern[str]:
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex."""
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts: list[str] = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        compiled = re.compile("".join(parts), re.DOTALL)
        if len(_LIKE_CACHE) < 4096:
            _LIKE_CACHE[pattern] = compiled
    return compiled


def like_prefix(pattern: str) -> str:
    """Literal prefix of a LIKE pattern before the first wildcard."""
    for i, ch in enumerate(pattern):
        if ch in "%_":
            return pattern[:i]
    return pattern

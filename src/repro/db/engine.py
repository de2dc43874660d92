"""The embedded database engine.

:class:`Database` ties together tables, the write-ahead log, and the SQL
front end.  The MySQL- and PostgreSQL-flavoured engines in
:mod:`repro.db.mysql_engine` / :mod:`repro.db.postgres_engine` subclass it
to select storage behaviour (eager cleanup vs. MVCC+vacuum) and flush
policy.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from itertools import groupby
from typing import Any, Iterable, Sequence

from repro.db.errors import NoSuchTableError, TableExistsError
from repro.db.profiler import QueryProfile, QueryProfiler
from repro.db.schema import TableSchema
from repro.db.sql.executor import Plan, ResultSet
from repro.db.sql.parser import parse
from repro.db.sql.planner import prepare
from repro.db.table import Table, TableStats
from repro.db.wal import (
    OP_CHECKPOINT,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    Image,
    WALRecord,
    WriteAheadLog,
)
from repro.obs import tracing
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: Default bound on the prepared-statement (SQL text → plan) LRU cache.
#: The RLS issues a small fixed statement set; user SQL with inlined
#: literals is unique per call and must not grow the cache without bound.
DEFAULT_STATEMENT_CACHE_SIZE = 512


class Database:
    """A named collection of tables with SQL access and durability logging.

    Parameters
    ----------
    name:
        Database name (used in DSNs and error messages).
    wal:
        Optional :class:`~repro.db.wal.WriteAheadLog`.  When present, every
        insert/delete/update is logged and the flush policy of the log
        determines commit durability cost.  When ``None`` the engine runs
        without durability (useful for RLI Bloom-mode tests).
    eager_index_cleanup:
        Storage flavour passed through to tables; see
        :class:`repro.db.table.Table`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When
        present, tables export ``db.table.*{table=...}`` gauges and
        ``db.latch_wait{table=...}`` histograms, and the statement cache
        counts hits/misses.
    profiler:
        Optional :class:`~repro.db.profiler.QueryProfiler` (mainly for
        clock injection in tests); one is built against ``metrics`` by
        default, disabled until something enables it.
    """

    flavor = "generic"

    def __init__(
        self,
        name: str = "db",
        wal: WriteAheadLog | None = None,
        eager_index_cleanup: bool = True,
        dead_hit_cost: float = 0.0,
        metrics: MetricsRegistry | None = None,
        profiler: QueryProfiler | None = None,
        statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE,
    ) -> None:
        self.name = name
        self.wal = wal
        self.eager_index_cleanup = eager_index_cleanup
        self.dead_hit_cost = dead_hit_cost
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._tables: dict[str, Table] = {}
        self._ddl_lock = threading.RLock()
        #: Held around every logged write's table change and its WAL
        #: append, so a checkpoint never images a row its log has not
        #: reached.  Lock order: this, the WAL's lock, a table latch.
        self._write_latch = threading.Lock()
        if wal is not None:
            wal.attach(self._write_latch, self._live_image)
        self._statement_cache: "OrderedDict[str, Plan]" = OrderedDict()
        self._statement_cache_size = statement_cache_size
        #: Bumped by every DDL route; a cached plan from an older epoch is
        #: re-prepared on its next use instead of run.
        self._schema_epoch = 0
        self._m_cache_hits = self.metrics.counter("db.stmt_cache_hits")
        self._m_cache_misses = self.metrics.counter("db.stmt_cache_misses")
        self.profiler = (
            profiler if profiler is not None
            else QueryProfiler(metrics=self.metrics)
        )

    @property
    def profiler(self) -> QueryProfiler:
        return self._profiler

    @profiler.setter
    def profiler(self, profiler: QueryProfiler) -> None:
        # Plans carry the old profiler's instruments.
        self._profiler = profiler
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        with self._ddl_lock:
            self._schema_epoch += 1

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        with self._ddl_lock:
            key = schema.name.lower()
            if key in self._tables:
                raise TableExistsError(schema.name)
            table = Table(
                schema,
                eager_index_cleanup=self.eager_index_cleanup,
                dead_hit_cost=self.dead_hit_cost,
                metrics=self.metrics,
            )
            table.on_ddl = self._invalidate_plans
            self._tables[key] = table
            self._register_table_metrics(table)
            self._invalidate_plans()
            return table

    def _register_table_metrics(self, table: Table) -> None:
        """Export TableStats and tuple counts as ``db.table.*{table=...}``.

        Gauge callbacks are sampled only at snapshot time, so the table
        hot path pays nothing.  The stats fields are monotonic counters,
        but gauge-fn sampling is the registry's only pull mechanism; a
        snapshot subtraction still sees correct interval deltas.
        """
        registry = self.metrics
        name = table.schema.name
        registry.register_gauge_fn(
            "db.table.live_tuples", lambda t=table: float(t.row_count),
            table=name,
        )
        registry.register_gauge_fn(
            "db.table.dead_tuples", lambda t=table: float(t.dead_tuple_count),
            table=name,
        )
        for field in TableStats.__slots__:
            registry.register_gauge_fn(
                f"db.table.{field}",
                lambda s=table.stats, f=field: float(getattr(s, f)),
                table=name,
            )

    def drop_table(self, name: str) -> None:
        with self._ddl_lock:
            if self._tables.pop(name.lower(), None) is None:
                raise NoSuchTableError(name)
            self._invalidate_plans()

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise NoSuchTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return [t.schema.name for t in self._tables.values()]

    # ------------------------------------------------------------------
    # Logged DML primitives (used by SQL plans and by recovery)
    # ------------------------------------------------------------------

    def insert_rows(
        self, table_name: str, rows: Iterable[dict[str, Any]]
    ) -> list[tuple[int, list]]:
        """Insert the rows of one statement: one latch hold, one WAL
        append.  If a row fails, the rows before it stay stored and are
        logged, as if each had been its own statement."""
        table = self.table(table_name)
        stored: list[tuple[int, list]] = []
        with self._write_latch:
            try:
                table.insert_many(rows, stored)
            finally:
                if self.wal is not None:
                    self.wal.log_many(
                        OP_INSERT, table.schema.name, [row for _rid, row in stored]
                    )
        return stored

    def insert_row(self, table_name: str, values: dict[str, Any]) -> tuple[int, list]:
        return self.insert_rows(table_name, (values,))[0]

    def delete_rows(self, table_name: str, rids: Iterable[int]) -> list[list]:
        """Delete the rows of one statement (see :meth:`insert_rows`);
        returns the old rows."""
        table = self.table(table_name)
        deleted: list[tuple[int, list]] = []
        with self._write_latch:
            try:
                table.delete_many(rids, deleted)
            finally:
                old = [row for _rid, row in deleted]
                if self.wal is not None:
                    self.wal.log_many(OP_DELETE, table.schema.name, old)
        return old

    def delete_row(self, table_name: str, rid: int) -> list:
        return self.delete_rows(table_name, (rid,))[0]

    def update_row(
        self, table_name: str, rid: int, changes: dict[str, Any]
    ) -> tuple[int, list]:
        table = self.table(table_name)
        with self._write_latch:
            new_rid, row = table.update_rid(rid, changes)
            if self.wal is not None:
                self.wal.log(OP_UPDATE, table.schema.name, tuple(row))
        return new_rid, row

    def _live_image(self) -> Image:
        """Every table's live rows, for a WAL checkpoint."""
        with self._ddl_lock:
            tables = list(self._tables.values())
        return [(table.schema.name, table.live_rows()) for table in tables]

    # ------------------------------------------------------------------
    # SQL front end
    # ------------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "ResultSet":
        """Run one SQL statement through its prepared plan.

        The plan is built once per SQL text and schema epoch; every
        execution after that is a cache hit plus :meth:`Plan.run`.
        """
        plan = self._statement_cache.get(sql)
        if plan is None or plan.epoch != self._schema_epoch:
            plan = self._prepare(sql)
        else:
            self._m_cache_hits.inc()
            self._statement_cache.move_to_end(sql)
        profiler = self._profiler
        if profiler.enabled:
            return self._execute_profiled(profiler, plan, params)
        if not tracing.active():
            return plan.run(params)
        with tracing.span("sql.execute", statement=plan.kind):
            return plan.run(params)

    def _prepare(self, sql: str) -> Plan:
        """Parse and plan ``sql`` and put the plan in the LRU cache."""
        self._m_cache_misses.inc()
        epoch = self._schema_epoch
        stmt = parse(sql)
        profiler = self._profiler
        start = profiler.clock() if profiler.enabled else 0.0
        try:
            plan = prepare(self, stmt)
        except Exception as exc:
            # A statement that cannot be planned (unknown table or
            # column) is a failed statement like any other in the log.
            if profiler.enabled:
                profiler.record(
                    sql, stmt, QueryProfile(clock=profiler.clock),
                    profiler.clock() - start,
                    error=f"{type(exc).__name__}: {exc}",
                    trace=tracing.context(),
                )
            raise
        plan.epoch = epoch
        plan.kind = type(stmt).__name__
        plan.source = (sql, stmt)
        plan.meta = None
        cache = self._statement_cache
        cache[sql] = plan
        cache.move_to_end(sql)
        # LRU bound: parameter-inlined user SQL is unique per call
        # and must not grow the cache forever.
        if len(cache) > self._statement_cache_size:
            cache.popitem(last=False)
        return plan

    def _execute_profiled(
        self,
        profiler: QueryProfiler,
        plan: Plan,
        params: Sequence[Any],
    ) -> "ResultSet":
        """Run one plan under a :class:`QueryProfile`.

        The enclosing trace context (the server's ``rpc.handle`` span
        when called from a request) is captured *before* opening the
        ``sql.execute`` child span, so a retained slow statement links
        back to the RPC that issued it.
        """
        meta = plan.meta
        if meta is None:  # first profiled run; racing threads build equals
            meta = plan.meta = profiler.describe(*plan.source)
        trace = tracing.context()
        clock = profiler.clock
        profile = QueryProfile(clock=clock)
        start = clock()
        try:
            if tracing.active():
                with tracing.span("sql.execute", statement=plan.kind):
                    result = plan.run(params, profile)
            else:
                result = plan.run(params, profile)
        except Exception as exc:
            profile.duration = clock() - start
            profiler.account(
                meta, profile, profile.duration,
                error=f"{type(exc).__name__}: {exc}", trace=trace,
            )
            raise
        profile.duration = clock() - start
        profile.rows_returned = (
            len(result.rows) if result.rows else result.rowcount
        )
        profiler.account(meta, profile, profile.duration, trace=trace)
        return result

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def recover_into(self, other: "Database") -> int:
        """Replay this database's durable WAL into ``other``, which must
        already contain the table schemas and no rows (DDL is not logged,
        matching the RLS practice of creating schemas at install time).
        Returns the number of records applied."""
        if self.wal is None:
            return 0
        return other.apply_records(self.wal.records())

    def apply_records(self, records: Iterable[WALRecord]) -> int:
        """Replay log records into this database's tables: the one replay,
        for crash recovery and for a shard master's mirrors.

        The tables are written directly — no SQL, no WAL — and must hold
        the schemas the records name and the state of the log just before
        the first one.  An ``OP_CHECKPOINT`` stands for every record before
        it: the tables are brought to its image (the INSERTs that follow
        it, as many as its payload counts) by :meth:`replace_rows`, then
        the records after the image are applied.  A run of INSERTs into one
        table goes in as one ``insert_many``.  Returns the records applied.
        """
        records = list(records)
        suffix = records
        for at in range(len(records) - 1, -1, -1):
            if records[at].op == OP_CHECKPOINT:
                end = at + 1 + records[at].payload[0]
                image: dict[str, list] = {}
                for record in records[at + 1 : end]:
                    image.setdefault(record.table, []).append(record.payload)
                self.replace_rows(list(image.items()))
                suffix = records[end:]
                break
        for (op, name), run in groupby(suffix, lambda r: (r.op, r.table)):
            table = self.table(name)
            names = table.schema.column_names
            rows = [dict(zip(names, record.payload)) for record in run]
            if op == OP_INSERT:
                table.insert_many(rows)
                continue
            for values in rows:  # an UPDATE logs the new row, keyed as the old
                _delete_matching(table, values)
                if op == OP_UPDATE:
                    table.insert(values)
        return len(records)

    def replace_rows(self, image: Image) -> None:
        """Make the tables hold exactly ``image``'s rows (a table it does
        not list, none), unlogged: delete each live row the image lacks,
        then insert each image row not live.  A row both hold is never
        touched, so a reader of a populated database does not miss it
        while the tables change, and a flavour that keeps deleted rows as
        dead tuples gains only the rows that really went."""
        wanted = {self.table(name).schema.name: Counter(rows) for name, rows in image}
        with self._ddl_lock:
            tables = list(self._tables.values())
        for table in tables:
            want = wanted.get(table.schema.name, Counter())
            gone = []
            for rid, row in table.scan():
                if want[row] > 0:
                    want[row] -= 1
                else:
                    gone.append(rid)
            table.delete_many(gone)
            names = table.schema.column_names
            table.insert_many(dict(zip(names, row)) for row in want.elements())

    def rebuild(self, records: Sequence[WALRecord]) -> int:
        """Make the tables the replay of ``records`` from empty tables,
        changing only the rows that differ (see :meth:`replace_rows`).

        Records that hold a checkpoint, or tables that are all empty,
        replay in place; otherwise the records replay into empty copies
        of the tables first, whose rows then replace these.  Returns the
        records applied.
        """
        with self._ddl_lock:
            tables = list(self._tables.values())
        if any(r.op == OP_CHECKPOINT for r in records) or not any(
            table.row_count for table in tables
        ):
            return self.apply_records(records)
        scratch = Database(self.name)
        for table in tables:
            scratch.create_table(table.schema)
        applied = scratch.apply_records(records)
        self.replace_rows(scratch._live_image())
        return applied

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-table operation counters (see :class:`TableStats`)."""
        return {
            t.schema.name: t.stats.snapshot() for t in self._tables.values()
        }


def _delete_matching(table: Table, values: dict[str, Any]) -> None:
    """Delete the live row matching the logged key (PK if any, else all cols)."""
    keys = table.schema.key_constraints()
    if keys:
        cols = keys[0]
        key = tuple(values[c] for c in cols)
        for rid, _row in table.lookup_equal(cols, key):
            table.delete_rid(rid)
            return
    else:
        target = [values[c] for c in table.schema.column_names]
        for rid, row in table.scan():
            if row == target:
                table.delete_rid(rid)
                return

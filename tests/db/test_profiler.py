"""Query-level observability: profiles, slow-query log, timed latches."""

from __future__ import annotations

import threading

import pytest

from repro.db.mysql_engine import MySQLEngine
from repro.db.postgres_engine import PostgresEngine
from repro.db.profiler import (
    OpStats,
    QueryLog,
    QueryLogEntry,
    QueryProfile,
    QueryProfiler,
    TimedLatch,
    normalize_statement,
    statement_class,
)
from repro.db.sql.parser import parse
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    """Deterministic clock advancing a fixed step per call."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# OpStats / QueryProfile
# ---------------------------------------------------------------------------


class TestQueryProfile:
    def test_op_render_includes_actuals(self):
        op = OpStats(
            "drive", "hash index lookup t(a)",
            rows_examined=5, rows_returned=3, dead_hits=2, elapsed=0.0015,
        )
        assert op.render() == (
            "drive: hash index lookup t(a) "
            "(actual rows examined=5 returned=3 dead_hits=2 time=1.500ms)"
        )

    def test_op_render_omits_unset_fields(self):
        op = OpStats("sort", "name", rows_returned=4)
        assert op.render() == "sort: name (actual returned=4)"

    def test_rows_examined_counts_drive_and_join_only(self):
        profile = QueryProfile()
        profile.add_op("drive", "x", rows_examined=10)
        profile.add_op("join", "y", rows_examined=7)
        profile.add_op("filter", "z", rows_examined=99)
        assert profile.rows_examined == 17

    def test_dead_hits_sum_over_all_ops(self):
        profile = QueryProfile()
        profile.add_op("drive", "x", dead_hits=4)
        profile.add_op("join", "y", dead_hits=2)
        assert profile.dead_index_hits == 6

    def test_plan_lines_end_with_total(self):
        profile = QueryProfile()
        profile.add_op("drive", "full scan t")
        profile.duration = 0.25
        profile.rows_returned = 12
        assert profile.plan_lines()[-1] == "total: 12 rows in 250.000ms"


class TestStatementClass:
    def test_select_includes_table(self):
        stmt = parse("SELECT a FROM t_lfn WHERE a = 1")
        assert statement_class(stmt) == "select:t_lfn"

    def test_insert_and_delete(self):
        assert statement_class(parse("INSERT INTO t_map (a) VALUES (1)")) == (
            "insert:t_map"
        )
        assert statement_class(parse("DELETE FROM t_pfn WHERE a = 1")) == (
            "delete:t_pfn"
        )

    def test_vacuum_has_no_table_suffix(self):
        assert statement_class(parse("VACUUM")) == "vacuum"


class TestNormalizeStatement:
    def test_literals_become_placeholders(self):
        a = normalize_statement("SELECT x FROM t WHERE a = 'one' AND b = 2")
        b = normalize_statement("SELECT x FROM t WHERE a = 'two' AND b = 99")
        assert a == b
        assert "'one'" not in a and "2" not in a

    def test_params_normalize_like_literals(self):
        assert normalize_statement(
            "SELECT x FROM t WHERE a = ?"
        ) == normalize_statement("SELECT x FROM t WHERE a = 'v'")

    def test_unparseable_text_returned_stripped(self):
        assert normalize_statement("  !! not sql !!  ") == "!! not sql !!"


# ---------------------------------------------------------------------------
# QueryLog retention
# ---------------------------------------------------------------------------


def entry(seq, duration=0.0, error=None):
    return QueryLogEntry(
        seq=seq, sql=f"q{seq}", statement_class="select:t",
        duration=duration, error=error,
    )


class TestQueryLog:
    def test_slow_and_error_statements_retained(self):
        log = QueryLog(capacity=8, slow_threshold=0.050)
        log.offer(entry(1, duration=0.001))
        log.offer(entry(2, duration=0.060))
        log.offer(entry(3, duration=0.001, error="boom"))
        kept = [e.seq for e in log.interesting()]
        assert kept == [2, 3]
        assert log.stats()["offered"] == 3
        assert log.stats()["retained"] == 2

    def test_fast_traffic_cannot_evict_slow_statements(self):
        log = QueryLog(capacity=4, slow_threshold=0.050, recent_capacity=2)
        log.offer(entry(1, duration=0.100))
        for seq in range(2, 50):
            log.offer(entry(seq, duration=0.001))
        assert [e.seq for e in log.interesting()] == [1]
        assert len(log.recent()) == 2

    def test_interesting_ring_evicts_oldest(self):
        log = QueryLog(capacity=3, slow_threshold=0.0)
        for seq in range(1, 6):
            log.offer(entry(seq, duration=1.0))
        assert [e.seq for e in log.interesting()] == [3, 4, 5]

    def test_to_dict_limit_keeps_newest(self):
        log = QueryLog(capacity=10, slow_threshold=0.0)
        for seq in range(1, 6):
            log.offer(entry(seq, duration=1.0))
        payload = log.to_dict(limit=2)
        assert [q["seq"] for q in payload["queries"]] == [4, 5]
        assert payload["stats"]["capacity"] == 10

    def test_entry_round_trips_through_dict(self):
        original = QueryLogEntry(
            seq=7, sql="SELECT ?", statement_class="select:t",
            duration=0.08, rows_examined=3, rows_returned=1,
            dead_index_hits=2, error=None, trace_id="t1", span_id="s1",
            plan=[{"name": "drive"}],
        )
        restored = QueryLogEntry.from_dict(original.to_dict())
        assert restored.to_dict() == original.to_dict()

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)


class TestQueryProfiler:
    def test_record_counts_per_class_and_slow(self):
        registry = MetricsRegistry()
        profiler = QueryProfiler(metrics=registry, slow_threshold=0.050)
        stmt = parse("SELECT a FROM t WHERE a = 1")
        profiler.record("SELECT a FROM t WHERE a = 1", stmt, QueryProfile(), 0.010)
        profiler.record("SELECT a FROM t WHERE a = 2", stmt, QueryProfile(), 0.200)
        snap = registry.snapshot()
        assert snap.counters["db.statements{class=select:t}"] == 2
        assert snap.counters["db.slow_statements"] == 1
        assert snap.histograms["db.statement_latency{class=select:t}"].count == 2

    def test_errors_retained_but_not_counted_slow(self):
        registry = MetricsRegistry()
        profiler = QueryProfiler(metrics=registry, slow_threshold=0.050)
        stmt = parse("SELECT a FROM t WHERE a = 1")
        recorded = profiler.record(
            "SELECT a FROM t WHERE a = 1", stmt, QueryProfile(), 0.300,
            error="NoSuchTableError: t",
        )
        assert recorded.error == "NoSuchTableError: t"
        assert registry.snapshot().counters["db.slow_statements"] == 0
        assert [e.seq for e in profiler.log.interesting()] == [recorded.seq]

    def test_trace_context_lands_on_entry(self):
        profiler = QueryProfiler(slow_threshold=0.0)
        stmt = parse("SELECT a FROM t WHERE a = 1")
        recorded = profiler.record(
            "SELECT a FROM t WHERE a = 1", stmt, QueryProfile(), 0.001,
            trace=("trace-1", "span-9"),
        )
        assert (recorded.trace_id, recorded.span_id) == ("trace-1", "span-9")

    def test_configure_sets_enabled_and_slow_threshold(self):
        profiler = QueryProfiler()
        log = profiler.log
        profiler.configure(enabled=True, slow_threshold=0.01)
        assert profiler.enabled
        assert profiler.log.slow_threshold == 0.01
        profiler.configure(slow_threshold=0.02)
        assert profiler.log is log  # the log (and its entries) are kept
        assert profiler.slow_threshold == 0.02


# ---------------------------------------------------------------------------
# TimedLatch
# ---------------------------------------------------------------------------


class TestTimedLatch:
    def test_uncontended_acquire_observes_nothing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("db.latch_wait", table="t")
        latch = TimedLatch(hist=hist)
        with latch:
            pass
        assert registry.snapshot().histograms[
            "db.latch_wait{table=t}"
        ].count == 0

    def test_contended_acquire_observes_wait(self):
        registry = MetricsRegistry()
        hist = registry.histogram("db.latch_wait", table="t")
        latch = TimedLatch(hist=hist, reentrant=False)
        held = threading.Event()
        release = threading.Event()

        def holder():
            with latch:
                held.set()
                release.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        held.wait(5.0)
        acquired = latch.acquire(timeout=0.01)  # times out: contended
        if acquired:  # pragma: no cover - scheduling race safety
            latch.release()
        release.set()
        thread.join(5.0)
        assert registry.snapshot().histograms[
            "db.latch_wait{table=t}"
        ].count == 1

    def test_reentrant_latch_never_blocks_holder(self):
        latch = TimedLatch(reentrant=True)
        with latch:
            with latch:
                pass

    def test_null_histogram_delegates_straight_through(self):
        latch = TimedLatch()
        assert latch.acquire()
        latch.release()


# ---------------------------------------------------------------------------
# Engine integration: statement cache, table gauges, EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def make_engine(**kwargs):
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0, **kwargs)
    engine.execute(
        "CREATE TABLE t_lfn (id INT NOT NULL AUTO_INCREMENT, "
        "name VARCHAR(250) NOT NULL, ref INT, "
        "PRIMARY KEY (id), UNIQUE (name))"
    )
    return engine


class TestStatementCache:
    def test_cache_is_bounded_lru(self):
        engine = make_engine()
        engine._statement_cache_size = 4
        for i in range(10):
            engine.execute(f"SELECT id FROM t_lfn WHERE name = 'x{i}'")
        assert len(engine._statement_cache) == 4
        # The most recent statements survive; the oldest were evicted.
        assert "SELECT id FROM t_lfn WHERE name = 'x9'" in engine._statement_cache
        assert (
            "SELECT id FROM t_lfn WHERE name = 'x0'"
            not in engine._statement_cache
        )

    def test_hit_refreshes_lru_position(self):
        engine = make_engine()
        engine._statement_cache_size = 2
        engine.execute("SELECT id FROM t_lfn WHERE name = 'a'")
        engine.execute("SELECT id FROM t_lfn WHERE name = 'b'")
        engine.execute("SELECT id FROM t_lfn WHERE name = 'a'")  # refresh a
        engine.execute("SELECT id FROM t_lfn WHERE name = 'c'")  # evicts b
        assert "SELECT id FROM t_lfn WHERE name = 'a'" in engine._statement_cache
        assert (
            "SELECT id FROM t_lfn WHERE name = 'b'"
            not in engine._statement_cache
        )

    def test_hit_and_miss_counters(self):
        registry = MetricsRegistry()
        engine = make_engine(metrics=registry)
        before = registry.snapshot()
        engine.execute("SELECT id FROM t_lfn WHERE name = ?", ["a"])
        engine.execute("SELECT id FROM t_lfn WHERE name = ?", ["b"])
        delta = registry.snapshot().delta(before)
        assert delta.counters["db.stmt_cache_misses"] == 1
        assert delta.counters["db.stmt_cache_hits"] == 1


class TestTableGauges:
    def test_table_stats_exported_with_table_label(self):
        registry = MetricsRegistry()
        engine = make_engine(metrics=registry)
        engine.execute("INSERT INTO t_lfn (name, ref) VALUES ('a', 1)")
        engine.execute("INSERT INTO t_lfn (name, ref) VALUES ('b', 1)")
        engine.execute("DELETE FROM t_lfn WHERE name = 'a'")
        gauges = registry.snapshot().gauges
        assert gauges["db.table.live_tuples{table=t_lfn}"] == 1.0
        assert gauges["db.table.inserts{table=t_lfn}"] == 2.0
        assert gauges["db.table.deletes{table=t_lfn}"] == 1.0

    def test_postgres_dead_tuples_visible_as_gauge(self):
        registry = MetricsRegistry()
        engine = PostgresEngine(fsync=False, sync_latency=0.0, metrics=registry)
        engine.execute("CREATE TABLE t (a INT, PRIMARY KEY (a))")
        engine.execute("INSERT INTO t (a) VALUES (1)")
        engine.execute("DELETE FROM t WHERE a = 1")
        gauges = registry.snapshot().gauges
        assert gauges["db.table.dead_tuples{table=t}"] == 1.0
        engine.vacuum()
        gauges = registry.snapshot().gauges
        assert gauges["db.table.dead_tuples{table=t}"] == 0.0
        assert gauges["db.table.vacuums{table=t}"] == 1.0


class TestExplainAnalyze:
    def test_actual_rows_and_deterministic_timings(self):
        engine = make_engine()
        engine.profiler = QueryProfiler(clock=FakeClock(step=0.001))
        for i in range(5):
            engine.execute(f"INSERT INTO t_lfn (name, ref) VALUES ('n{i}', 1)")
        lines = [
            r[0]
            for r in engine.execute(
                "EXPLAIN ANALYZE SELECT id FROM t_lfn WHERE name = 'n3'"
            ).rows
        ]
        assert lines[0].startswith("drive: hash index lookup t_lfn(name)")
        assert "rows examined=1 returned=1" in lines[0]
        # FakeClock steps 1 ms per reading, so every timing is an exact
        # multiple of 1 ms — no real wall time leaks in.
        assert "time=1.000ms" in lines[0]
        assert lines[-1].startswith("total: 1 rows in ")

    def test_analyze_reports_dead_index_hits(self):
        engine = PostgresEngine(fsync=False, sync_latency=0.0)
        engine.execute(
            "CREATE TABLE t (id INT NOT NULL AUTO_INCREMENT, "
            "name VARCHAR(64) NOT NULL, PRIMARY KEY (id), UNIQUE (name))"
        )
        for _ in range(3):
            engine.execute("INSERT INTO t (name) VALUES ('ghost')")
            engine.execute("DELETE FROM t WHERE name = 'ghost'")
        lines = [
            r[0]
            for r in engine.execute(
                "EXPLAIN ANALYZE SELECT id FROM t WHERE name = 'ghost'"
            ).rows
        ]
        # Each add/delete generation leaves a dead index entry the probe
        # must skip — the fig08 decay, visible per statement.
        assert "dead_hits=3" in lines[0]

    def test_analyze_executes_the_statement(self):
        engine = make_engine()
        engine.execute("INSERT INTO t_lfn (name, ref) VALUES ('gone', 1)")
        lines = [
            r[0]
            for r in engine.execute(
                "EXPLAIN ANALYZE DELETE FROM t_lfn WHERE name = 'gone'"
            ).rows
        ]
        # PostgreSQL semantics: EXPLAIN ANALYZE runs the statement.
        assert engine.execute("SELECT COUNT(*) FROM t_lfn").scalar() == 0
        assert any(line.startswith("delete") for line in lines)

    def test_profiled_path_returns_normal_results(self):
        engine = make_engine()
        engine.profiler.configure(enabled=True, slow_threshold=0.0)
        engine.execute("INSERT INTO t_lfn (name, ref) VALUES ('a', 1)")
        result = engine.execute("SELECT name FROM t_lfn WHERE name = 'a'")
        assert result.rows == [("a",)]
        classes = {
            e.statement_class for e in engine.profiler.log.interesting()
        }
        assert {"insert:t_lfn", "select:t_lfn"} <= classes

    def test_profiled_error_statement_retained(self):
        engine = make_engine()
        engine.profiler.configure(enabled=True, slow_threshold=10.0)
        with pytest.raises(Exception):
            engine.execute("SELECT id FROM t_missing")
        errors = [
            e for e in engine.profiler.log.interesting() if e.error
        ]
        assert errors and "NoSuchTableError" in errors[0].error

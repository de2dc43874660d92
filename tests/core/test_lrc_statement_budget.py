"""Statement budget of the scalar LRC operations.

The paper's Fig. 7 compares the LRC with native MySQL running *the same
SQL*; ``benchmarks/common.py::native_add`` issues four statements and
``native_delete`` five.  The LRC adds one existence check to a create and
one ``t_attribute`` read to a pruning delete, and nothing else.  This
test reads the ``db.statements`` counter around each operation on a
loaded catalog, so a statement creeping back fails here in seconds
instead of as a slower benchmark.
"""

import pytest

from repro.core.lrc import LocalReplicaCatalog
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.postgres_engine import PostgresEngine
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(params=["mysql", "postgresql"])
def lrc(request):
    registry = MetricsRegistry()
    if request.param == "mysql":
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0, metrics=registry)
    else:
        engine = PostgresEngine(
            fsync=False, sync_latency=0.0, dead_hit_cost=0.0, metrics=registry
        )
    engine.profiler.configure(enabled=True)  # db.statements counts when profiling
    # The catalog keeps its metrics out of this registry: its lrc.lfns /
    # lrc.mappings gauges are themselves SQL and would count.
    catalog = LocalReplicaCatalog(Connection(engine, "budget"))
    catalog.init_schema()
    catalog.bulk_load((f"lfn-{i}", f"pfn-{i}") for i in range(200))
    return catalog


def statements(lrc, operation) -> int:
    """SQL statements ``operation`` issued, by the engine's own count."""
    def total() -> int:
        counters = lrc.conn.database.metrics.snapshot().counters
        return sum(v for k, v in counters.items() if k.startswith("db.statements{"))

    before = total()
    operation()
    return total() - before


def test_scalar_operations_stay_within_their_statement_budget(lrc):
    assert statements(lrc, lambda: lrc.get_mappings("lfn-7")) == 1
    # create: existence SELECT + native_add's four.
    assert statements(lrc, lambda: lrc.create_mapping("new-a", "new-pfn")) <= 5
    assert statements(lrc, lambda: lrc.create_mapping("new-b", "pfn-7")) <= 5  # shared PFN
    # add: two name lookups, the t_map insert, one or two ref updates.
    assert statements(lrc, lambda: lrc.add_mapping("new-a", "pfn-8")) <= 6
    assert statements(lrc, lambda: lrc.add_mapping("new-a", "brand-new-pfn")) <= 6
    # delete that prunes nothing: native_delete's lookups and t_map
    # delete, then two ref updates.
    assert statements(lrc, lambda: lrc.delete_mapping("new-a", "pfn-8")) <= 6
    # deletes that prune: t_attribute is read once, not once per namespace.
    assert statements(lrc, lambda: lrc.delete_mapping("new-a", "brand-new-pfn")) <= 6
    assert statements(lrc, lambda: lrc.delete_mapping("new-a", "new-pfn")) <= 6  # last
    assert statements(lrc, lambda: lrc.delete_mapping("new-b", "pfn-7")) <= 6
    assert lrc.lfn_count() == 200
    assert lrc.verify_integrity() == []


def test_refused_operations_write_nothing(lrc):
    """The checks that guard the fold: a duplicate LFN or mapping is
    refused before any row is written."""
    wal = lrc.conn.database.wal
    logged = wal.records_appended
    for refused in (
        lambda: lrc.create_mapping("lfn-3", "pfn-unseen"),
        lambda: lrc.add_mapping("lfn-3", "pfn-3"),
        lambda: lrc.add_mapping("no-such-lfn", "pfn-3"),
        lambda: lrc.delete_mapping("lfn-3", "pfn-4"),
    ):
        with pytest.raises(Exception) as caught:
            refused()
        assert type(caught.value).__name__ in (
            "MappingExistsError", "MappingNotFoundError"
        )
    assert wal.records_appended == logged
    assert lrc.verify_integrity() == []


def test_bulk_operations_stay_within_their_statement_budget(lrc):
    """1000 names are four 256-key IN lists and sixteen 64-row INSERTs.

    A bulk create looks both name sets up once and then only writes: the
    ids of the rows it inserts come back from the INSERTs themselves.
    """
    pairs = [(f"bulk-lfn-{i}", f"bulk-pfn-{i}") for i in range(1000)]
    # create: 4 + 4 existence SELECTs, 16 INSERTs into each of three tables.
    assert statements(lrc, lambda: lrc.bulk_create(pairs)) == 8 + 3 * 16
    assert lrc.lfn_count() == 1200
    assert statements(lrc, lambda: lrc.bulk_query([lfn for lfn, _ in pairs])) == 4
    # delete: 4 + 4 name SELECTs, 4 t_map SELECTs, 4 DELETEs from each of
    # three tables, one t_attribute read for the pruned rows.
    assert statements(lrc, lambda: lrc.bulk_delete(pairs)) == 12 + 3 * 4 + 1
    assert lrc.lfn_count() == 200
    assert lrc.verify_integrity() == []

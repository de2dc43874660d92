"""Model-based oracle for the RLI's relational ingest.

Hypothesis runs sequences of full, incremental and expire steps, and clock
steps (some of size zero), against a ``{(lfn, lrc): updatetime}`` dict.
The name lists are empty, one name, or 1 023–1 025 names (either side of
one ``_refresh`` chunk), with duplicates inside one full and names shared
across LRCs.  After every step the index must answer ``query_wildcard``
and ``mapping_count`` as the model does, hold the model's timestamps and
keep no ``t_lfn`` row without a mapping.  At the end the RLI database's
WAL is replayed into an empty schema and must rebuild the live tables:
the proof that every write went through the logged storage primitives.
The floor between WAL checkpoints is one record here, so the gap is the
last image's row count and most runs replay across two checkpoints or
more.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rli import ReplicaLocationIndex
from repro.db import wal
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.postgres_engine import PostgresEngine
from repro.obs.metrics import MetricsRegistry
from tests.core.test_lrc_statement_budget import statements
from tests.db._log import durable_records

TIMEOUT = 60.0
LRCS = ["lrcA", "lrcB", "lrcC"]
POOL = [f"n{i}" for i in range(1100)]

ENGINES = {
    "mysql": lambda: MySQLEngine(flush_on_commit=False, sync_latency=0.0),
    "postgres": lambda: PostgresEngine(sync_latency=0.0, dead_hit_cost=0.0),
}


@pytest.fixture(autouse=True, scope="module")
def frequent_checkpoints():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wal, "CHECKPOINT_MIN_RECORDS", 1)
        yield


def _big(size: int, start: int, dup: bool) -> list[str]:
    names = POOL[start : start + size]
    # A repeat inside the first chunk and one across the chunk boundary.
    return names + names[:2] if dup else names


name_lists = st.one_of(
    st.lists(st.sampled_from(POOL[:8]), max_size=1),
    st.lists(st.sampled_from(POOL[:8]), min_size=2, max_size=4),
    st.builds(
        _big,
        st.sampled_from([1023, 1024, 1025]),
        st.integers(0, 8),
        st.booleans(),
    ),
)
lrcs = st.sampled_from(LRCS)
steps = st.one_of(
    st.tuples(st.just("full"), lrcs, name_lists),
    st.tuples(st.just("incremental"), lrcs, name_lists, name_lists),
    st.tuples(st.just("expire")),
    st.tuples(st.just("clock"), st.sampled_from([0.0, 1.0, TIMEOUT / 2, TIMEOUT])),
)


class Clock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def apply(model: dict, clock: Clock, rli: ReplicaLocationIndex, step) -> None:
    """Run ``step`` on the index and on the model."""
    kind, *args = step
    if kind == "full":
        lrc, names = args
        rli.apply_full_update(lrc, names)
        for key in [key for key in model if key[1] == lrc]:
            del model[key]
        model.update(((name, lrc), clock.now) for name in names)
    elif kind == "incremental":
        lrc, added, removed = args
        rli.apply_incremental_update(lrc, added, removed)
        model.update(((name, lrc), clock.now) for name in added)
        for name in removed:
            model.pop((name, lrc), None)
    elif kind == "expire":
        rli.expire_once()
        cutoff = clock.now - TIMEOUT
        for key in [key for key, at in model.items() if at < cutoff]:
            del model[key]
    else:
        clock.now += args[0]


def check(model: dict, rli: ReplicaLocationIndex) -> None:
    assert sorted(rli.query_wildcard("*")) == sorted(model)
    assert rli.mapping_count() == len(model)
    held = rli.conn.execute(
        "SELECT l.name, c.name, m.updatetime FROM t_map m "
        "JOIN t_lfn l ON m.lfn_id = l.id JOIN t_lrc c ON m.pfn_id = c.id"
    ).rows
    assert {(lfn, lrc): at for lfn, lrc, at in held} == model
    names = [row[0] for row in rli.conn.execute("SELECT name FROM t_lfn").rows]
    assert sorted(names) == sorted({lfn for lfn, _lrc in model}), "orphan t_lfn"


def open_rli(engine, clock: Clock | None = None) -> ReplicaLocationIndex:
    rli = ReplicaLocationIndex(
        Connection(engine, "oracle"), name="oracle", timeout=TIMEOUT,
        clock=clock or Clock(),
    )
    rli.init_schema()
    return rli


def live_rows(engine) -> dict[str, list]:
    return {
        name: sorted(row for _rid, row in engine.table(name).scan())
        for name in ("t_lfn", "t_lrc", "t_map")
    }


@settings(max_examples=100, deadline=None)
@given(
    flavour=st.sampled_from(sorted(ENGINES)),
    script=st.lists(steps, min_size=1, max_size=10),
)
# A mapping exactly ``timeout`` old is not yet expired.
@example(
    flavour="mysql",
    script=[("full", "lrcA", ["n0"]), ("clock", TIMEOUT), ("expire",)],
)
def test_ingest_matches_the_model_and_the_wal(flavour, script):
    engine = ENGINES[flavour]()
    clock = Clock()
    rli = open_rli(engine, clock)
    model: dict[tuple[str, str], float] = {}
    for step in script:
        apply(model, clock, rli, step)
        check(model, rli)
    engine.wal.flush()
    replica = ENGINES[flavour]()
    open_rli(replica)
    replica.apply_records(durable_records(engine.wal))
    assert live_rows(replica) == live_rows(engine)


def test_ingest_and_expiry_run_no_sql():
    """They run on the storage primitives, not through SQL plans."""
    engine = MySQLEngine(
        flush_on_commit=False, sync_latency=0.0, metrics=MetricsRegistry()
    )
    engine.profiler.configure(enabled=True)  # db.statements counts when profiling
    clock = Clock()
    rli = open_rli(engine, clock)

    def ingest_and_expire() -> None:
        rli.apply_full_update("lrcA", ["a", "b"])
        rli.apply_full_update("lrcA", ["b", "c"])
        rli.apply_incremental_update("lrcA", ["d"], ["b"])
        clock.now += 2 * TIMEOUT
        assert rli.expire_once() == 2

    assert statements(rli, ingest_and_expire) == 0

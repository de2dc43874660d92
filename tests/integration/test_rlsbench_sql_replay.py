"""The benchmark's SQL capture and replay over the real LRC write path.

rlsbench's ladder times ``Database.execute`` by recording the SQL an LRC
method issues and replaying it on an identically loaded twin.  The
benchmark's own copy of this test
(``benchmarks/rlsbench/tests/test_rlsbench_ladder.py::
test_captured_sql_replays_on_an_identical_twin``) also pins "an add is
seven statements"; a create is five since the write path was folded, and
that directory is frozen while a change claims a gain on it, so CI
deselects that one test.  Everything else it asserts runs here, in
tier-1, with the statement count held to the budget of
``tests/core/test_lrc_statement_budget.py`` instead of a fixed number.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import RLSServer, ServerConfig, ServerRole

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "rlsbench"


@pytest.fixture
def rlsbench(monkeypatch):
    """The benchmark's ``ladder`` and ``inputs`` modules (they import each
    other by bare name, so their directory goes on ``sys.path``)."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import inputs
    import ladder

    return ladder, inputs


def _small_lrc(name, pairs):
    server = RLSServer(ServerConfig(name=name, role=ServerRole.LRC, sync_latency=0.0))
    server.lrc.bulk_load(pairs)
    return server


def test_captured_sql_replays_on_an_identical_twin(rlsbench):
    ladder, gen = rlsbench
    inp = gen.Inputs(9)
    loaded = inp.pairs("main", 40)
    items = [("query", 0, (loaded[3][0],))]
    for k, pair in enumerate(inp.pairs("fresh", 5)):
        items += [("add", k, pair), ("delete", k, pair)]
    first = _small_lrc("sql-replay-a", loaded)
    twin = _small_lrc("sql-replay-b", loaded)
    try:
        recordings = ladder.capture_sql(first.lrc, items)
        assert first.lrc.conn is first.connection  # the real connection is back
        assert [r.transactional for r in recordings[:3]] == [False, True, True]
        query, add, delete = (len(r.statements) for r in recordings[:3])
        assert query == 1 and 1 < add <= 5 and 1 < delete <= 6
        # The capture itself ended where it started.
        assert first.lrc.lfn_count() == 40
        assert first.lrc.verify_integrity() == []
        ladder.Rung("R1", "db.sql", ladder._replayer(
            recordings, twin.engine.execute, twin.engine.wal.transaction
        )).run(ladder.Spans(), items)
        # The replay allocated the ids the capture saw: the twin went
        # through the same states and ended where it started.
        assert twin.lrc.lfn_count() == 40
        assert twin.lrc.verify_integrity() == []
        assert twin.lrc.get_mappings(loaded[3][0]) == [loaded[3][1]]
    finally:
        first.stop()
        twin.stop()

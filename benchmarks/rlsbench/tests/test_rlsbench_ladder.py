import json
from pathlib import Path

import pytest

import _env

_env.use_repo_sources()

import ladder  # noqa: E402
from repro import RLSServer, ServerConfig, ServerRole  # noqa: E402

ROOT = Path(__file__).resolve().parents[3]
LAYER_NAMES = {
    m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def test_self_times_are_differences_of_adjacent_rungs():
    rung_us = {
        "R0": {"query": 8.0},
        "R1": {"query": 60.0, "bulk_query": 20_000.0},
        "R2": {"query": 60.5, "bulk_query": 20_100.0},
        "R3": {"query": 65.0, "bulk_query": 21_000.0},
        "R4": {"query": 90.0, "bulk_query": 21_500.0},
        "C": {"query": 20.0, "bulk_query": 3_000.0},
        "R6": {"query": 200.0, "bulk_query": 26_000.0},
        "R4off": {"query": 45.0},
        "Rbatch": {"query": 80.0},
    }
    out = ladder.resolve(rung_us)
    assert out["db.table.self_us.query"] == 8.0
    assert out["db.sql.self_us.query"] == 52.0
    assert out["db.odbc.self_us.query"] == 0.5
    assert out["core.lrc.self_us.query"] == 4.5
    assert out["net.rpc.self_us.query"] == 25.0
    assert out["net.codec.self_us.query"] == 20.0
    assert out["net.transport.self_us.query"] == 90.0
    assert out["obs.tax_us.query"] == 45.0
    assert out["net.rpc.batch_self_us.query"] == 15.0
    # The layers of one op add up to what the client sees over TCP.
    layers = [v for k, v in out.items() if ".self_us.query" in k and "batch" not in k]
    assert sum(layers) == pytest.approx(rung_us["R6"]["query"])
    # Bulk ops have no hand-written table rung: db.sql carries the tables.
    assert "db.table.self_us.bulk_query" not in out
    assert out["db.sql.self_us.bulk_query"] == 20_000.0
    assert out["net.transport.self_us.bulk_query"] == 1_500.0


def test_negative_difference_is_reported_unresolved_never_clamped():
    out = ladder.resolve({
        "R1": {"query": 60.0}, "R2": {"query": 59.2},
        "R3": {"query": 66.0}, "R4": {"query": 90.0}, "R4off": {"query": 91.0},
    })
    assert out["db.odbc.self_us.query"] == pytest.approx(-0.8)
    assert ladder.unresolved("db.odbc.self_us.query", out["db.odbc.self_us.query"])
    assert ladder.unresolved("obs.tax_us.query", out["obs.tax_us.query"])
    assert ladder.unresolved("net.update_wire_s", -0.04)
    assert not ladder.unresolved("core.lrc.self_us.query", out["core.lrc.self_us.query"])
    # A counter that happens to be negative is not a rung difference.
    assert not ladder.unresolved("net.rpc.errors", -1.0)


def test_rli_and_cluster_chains():
    out = ladder.resolve({
        "Rb": {"rli_query": 23.0}, "R3": {"rli_query": 67.0},
        "R4": {"rli_query": 95.0}, "C": {"rli_query": 20.0},
        "R6": {"rli_query": 226.0}, "R4off": {"rli_query": 50.0},
    })
    assert out["core.bloom.self_us.rli_query"] == 23.0
    assert out["core.rli.self_us.rli_query"] == 44.0
    assert out["net.rpc.self_us.rli_query"] == 28.0
    assert out["net.transport.self_us.rli_query"] == 111.0
    assert out["obs.tax_us.rli_query"] == 45.0
    assert "core.lrc.self_us.rli_query" not in out
    cluster = ladder.resolve({"R6": {"query": 230.0}, "R7": {"query": 236.0}})
    assert cluster == {"cluster.combined.self_us.query": 6.0}


def test_every_ladder_name_the_report_keeps_is_in_benchmark_json():
    everything = {op: 100.0 for op in ladder.WIRE_OPS}
    lrc = {op: 100.0 for op in ladder.LRC_OPS}
    scalar = {op: 100.0 for op in ladder.SCALAR_OPS}
    out = ladder.resolve({
        "R0": scalar, "R1": lrc, "R2": lrc, "Rb": {"rli_query": 1.0},
        "R3": everything, "R4": everything, "C": everything, "R6": everything,
        "R7": {"query": 1.0, "add": 1.0, "bulk_query": 1.0},
        "R4off": {"query": 1.0, "add": 1.0, "delete": 1.0, "rli_query": 1.0},
        "Rbatch": {"query": 1.0},
    })
    assert set(out) <= LAYER_NAMES
    expected = {n for n in LAYER_NAMES if "self_us" in n or n.startswith("obs.tax_us")}
    assert set(out) == expected
    assert "trace.overhead_ratio" in LAYER_NAMES


def test_tracing_overhead_is_the_traced_wire_rung_over_the_untraced_run():
    # R6 in the ladder process against lrc_query's untraced segments, not
    # against another rung of the same process.
    rung_us = {"R6": {"query": 253.0, "add": 900.0}}
    assert ladder.overhead_ratio(rung_us, [231.0, 229.0, 230.0, 260.0, 228.0]) == pytest.approx(1.1)


def test_a_rung_records_one_child_span_per_call_under_one_per_chunk():
    spans = ladder.Spans()
    items = [("query", 0, (1,)), ("add", 0, (2,)), ("query", 1, (3,))]
    rung = ladder.Rung("R3", "core.lrc", lambda op, args: args[0] * 2)
    rung.run(spans, items)
    assert rung.results == [2, 4, 6]
    assert {op: len(v) for op, v in rung.timings.items()} == {"query": 2, "add": 1}
    chunk, *calls = spans.rows
    assert chunk[0] == "R3.core.lrc" and chunk[3] is None and chunk[2] >= chunk[1]
    assert [c[0] for c in calls] == ["R3.core.lrc.query", "R3.core.lrc.add", "R3.core.lrc.query"]
    assert all(c[3] == 0 for c in calls)  # parent is the chunk's span
    assert [c[4] for c in calls] == [0, 0, 1]  # op ids link the rungs
    assert all(chunk[1] <= c[1] <= c[2] <= chunk[2] for c in calls)


def test_rungs_filter_ops_and_group_batches():
    spans = ladder.Spans()
    items = [("query", k, (k,)) for k in range(5)] + [("add", 0, (9,))]
    batch = ladder.Rung("Rbatch", "net.rpc", lambda op, many: len(many),
                        ops=frozenset({"query"}), group=2)
    batch.run(spans, items)
    assert batch.results == [2, 2]  # five queries: two whole pairs, the rest dropped
    assert len(batch.timings["query"]) == 2 and "add" not in batch.timings


def test_rungs_take_turns_chunk_by_chunk():
    order = []
    items = (
        [("query", k, ()) for k in range(ladder.CHUNK + 4)]
        + [(op, k, ()) for k in range(3) for op in ("add", "delete")]
        + [(op, k, ()) for k in range(2) for op in ("bulk_add", "bulk_query", "bulk_delete")]
    )
    chunks = ladder.chunked(items)
    assert [len(c) for c in chunks] == [ladder.CHUNK, 4, 6, 3, 3]
    assert [item for chunk in chunks for item in chunk] == items
    rungs = [
        ladder.Rung(key, "x", lambda op, args, key=key: order.append(key))
        for key in ("A", "B")
    ]
    ladder.interleave(ladder.Spans(), rungs, items)
    turns = [k for i, k in enumerate(order) if i == 0 or order[i - 1] != k]
    assert turns == ["A", "B"] * len(chunks)


def _small_lrc(name: str, pairs):
    server = RLSServer(ServerConfig(name=name, role=ServerRole.LRC, sync_latency=0.0))
    server.lrc.bulk_load(pairs)
    return server


def test_captured_sql_replays_on_an_identical_twin():
    import inputs as gen

    inp = gen.Inputs(9)
    loaded = inp.pairs("main", 40)
    items = [("query", 0, (loaded[3][0],))]
    for k, pair in enumerate(inp.pairs("fresh", 5)):
        items += [("add", k, pair), ("delete", k, pair)]
    first, twin = _small_lrc("ladder-test-a", loaded), _small_lrc("ladder-test-b", loaded)
    try:
        recordings = ladder.capture_sql(first.lrc, items)
        assert first.lrc.conn is first.connection  # the real connection is back
        assert [r.transactional for r in recordings[:3]] == [False, True, True]
        assert len(recordings[1].statements) == 7  # an add is seven statements today
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

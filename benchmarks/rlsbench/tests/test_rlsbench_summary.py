import json
from pathlib import Path

import pytest

import _env

_env.use_repo_sources()

import summary  # noqa: E402
from workloads import Segment, scaled  # noqa: E402

ROOT = Path(__file__).resolve().parents[3]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"] + DEFINITION["per_layer"]}


def _segment(latency_us, calls=100, kind="query", cpu_s=0.01):
    seg = Segment(wall_s=calls * latency_us * 1e-6, calls=calls, names=calls)
    seg.latencies = [latency_us * 1e-6] * calls
    seg.by_kind = {kind: list(seg.latencies)}
    seg.server_cpu_s = cpu_s
    seg.client_cpu_s = cpu_s / 2
    return seg


def test_a_metric_is_the_quiet_decile_over_segments():
    calm = [_segment(200.0) for _ in range(3)]
    disturbed = calm + [_segment(us) for us in (900.0, 400.0, 350.0, 500.0, 320.0)]
    for segments in (calm, disturbed):
        found = summary.end_to_end(segments, [2.0, 2.5, 2.1], 120.0)
        assert found["latency_p50_us"]["value"] == pytest.approx(200.0)
        assert found["ops_per_s"]["value"] == pytest.approx(5000.0)
        assert found["server_cpu_us_per_op"]["value"] == pytest.approx(100.0)
        assert found["setup_s"]["value"] == pytest.approx(2.1)  # the median set-up
        assert len(found["ops_per_s"]["rounds"]) == len(segments)
    assert found["latency_p50_us"]["n"] == 800  # every timing states its sample count


def test_every_summary_name_and_unit_is_in_benchmark_json():
    segments = [_segment(200.0, kind=k) for k in ("query", "add", "delete", "rli_query")]
    segments += [_segment(5e4, calls=4, kind=k) for k in ("full_update", "bloom_update")]
    found = summary.end_to_end(segments, [1.0], 50.0)
    found.update(summary.client_side(segments, 0, [7000.0]))
    found.update(summary.layer_counts({}, {"rpc.requests{method=x}": 10.0}, 10))
    assert set(found) <= set(UNITS)
    assert all(metric["unit"] == UNITS[name] for name, metric in found.items())
    assert {m["name"] for m in DEFINITION["end_to_end"]} <= set(found)


def test_tails_need_ten_samples_beyond_them_and_wrong_answers_are_counted():
    few = summary.client_side([_segment(200.0, calls=150)], 0, [7000.0])
    assert "client.latency_p95_us" not in few and "client.latency_p99_us" not in few
    many = [_segment(200.0, calls=600), _segment(210.0, calls=600)]
    many[0].wrong, many[1].failed = 1, 3
    found = summary.client_side(many, 2, [7000.0, 7100.0])
    assert {"client.latency_p95_us", "client.latency_p99_us"} <= set(found)
    assert found["wrong_results"]["value"] == 3  # one answer + two post-run checks
    assert found["error_rate"]["value"] == pytest.approx(3 / 1200)
    assert found["client.round_spread"]["value"] == pytest.approx(
        (1 / 200e-6 - 1 / 210e-6) / ((1 / 200e-6 + 1 / 210e-6) / 2)
    )


def test_layer_counts_are_deltas_per_call_without_the_snapshot_itself():
    before = {
        "rpc.requests{method=lrc_get_mappings}": 100.0, "db.statements{class=select:t_lfn}": 100.0,
        "db.stmt_cache_hits": 90.0, "db.stmt_cache_misses": 10.0,
        "net.bytes_in{transport=tcp}": 1000.0, "net.bytes_in{transport=local}": 5.0,
        "rpc.requests{method=admin_metrics}": 0.0,
    }
    after = {
        "rpc.requests{method=lrc_get_mappings}": 300.0, "db.statements{class=select:t_lfn}": 302.0,
        "db.stmt_cache_hits": 292.0, "db.stmt_cache_misses": 10.0,
        "net.bytes_in{transport=tcp}": 21000.0, "net.bytes_in{transport=local}": 5.0,
        "rpc.requests{method=admin_metrics}": 1.0, "rpc.errors{method=lrc_get_mappings}": 4.0,
        "db.table.dead_tuples{table=t_lfn}": 3.0, "db.table.dead_tuples{table=t_map}": 2.0,
    }
    counts = summary.layer_counts(before, after, 200)
    assert counts["net.rpc.requests_per_op"]["value"] == pytest.approx(204 / 200)
    assert counts["net.rpc.errors"]["value"] == 4
    assert counts["db.sql.statements_per_op"]["value"] == pytest.approx(1.01)
    assert counts["db.sql.stmt_cache_hit_ratio"]["value"] == 1.0
    assert counts["net.transport.bytes_in_per_op"]["value"] == 100.0
    assert counts["db.table.dead_tuples"]["value"] == 5  # a level, not a delta


def test_scaled_call_counts():
    assert scaled(2_000, 0.1) == 200
    assert scaled(3_200, 0.1, 16) == 320
    assert scaled(1_400, 0.1, 20) == 140
    assert scaled(1, 0.1) == 1  # never zero calls


def test_kinds_are_split_per_segment():
    # softstate_update: one full update and three Bloom updates a segment.
    segments = []
    for fast in (50e3, 52e3, 90e3, 51e3, 49e3):
        seg = Segment(wall_s=1.0, calls=4, names=4)
        seg.latencies = [700e3 * 1e-6] + [fast * 1e-6] * 3
        seg.by_kind = {"full_update": seg.latencies[:1], "bloom_update": seg.latencies[1:]}
        segments.append(seg)
    kinds = summary.client_side(segments, 0, [7000.0])
    assert kinds["bloom_update_p50_us"]["value"] == pytest.approx(49e3)  # the best of five
    assert kinds["bloom_update_p50_us"]["rounds"] == pytest.approx([50e3, 52e3, 90e3, 51e3, 49e3])
    assert kinds["bloom_update_p50_us"]["n"] == 15
    assert kinds["full_update_p50_us"]["value"] == pytest.approx(700e3)

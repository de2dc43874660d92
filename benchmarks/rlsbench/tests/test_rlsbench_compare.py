import json

import compare

GATES = {
    "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.10},
    "latency_p50_us": {"name": "latency_p50_us", "better": "lower", "bound": 0.10},
}


def _run(ops, latency, wrong=0, error_rate=0.0):
    return {"w": {
        "ops_per_s": {"value": ops[len(ops) // 2], "rounds": ops},
        "latency_p50_us": {"value": latency[len(latency) // 2], "rounds": latency},
        "wrong_results": {"value": wrong},
        "error_rate": {"value": error_rate},
    }}


def _status(rows):
    return {row[1]: row[2] for row in rows}


def test_within_bound_is_ok_and_beyond_it_regressed():
    a = _run([1000, 1010, 1020], [200, 201, 202])
    assert _status(compare.compare([a], [_run([950, 960, 970], [210, 211, 212])], GATES)) == {
        "ops_per_s": "ok", "latency_p50_us": "ok", "error_rate": "ok", "wrong_results": "ok",
    }
    slow = _status(compare.compare([a], [_run([850, 860, 870], [230, 231, 232])], GATES))
    assert slow["ops_per_s"] == slow["latency_p50_us"] == "regressed"
    fast = _status(compare.compare([a], [_run([1500, 1510, 1520], [100, 101, 102])], GATES))
    assert fast["ops_per_s"] == fast["latency_p50_us"] == "ok"


def test_spread_wider_than_the_bound_is_unresolved_unless_a_clear_win():
    # Ten rounds: a value and its spread stand on the best two.
    rest = [260, 270, 280, 290, 300, 310, 320, 330]
    a = _run([1000, 1010, 1020], [150, 175, *rest])
    noisy = _status(compare.compare([a], [_run([1000, 1010, 1020], [160, 180, *rest])], GATES))
    assert noisy["latency_p50_us"] == "unresolved"
    assert noisy["ops_per_s"] == "ok"
    clear = _status(compare.compare([a], [_run([1000, 1010, 1020], [90, 140, *rest])], GATES))
    assert clear["latency_p50_us"] == "ok"


def test_one_run_takes_its_spread_over_the_quiet_fifth_of_its_rounds():
    # Eleven of sixteen rounds inside a neighbour's burst: the value stands
    # on the quiet fifth, and so does its spread.
    calm = [230.0 + i for i in range(5)]
    burst = [400.0 + 5 * i for i in range(11)]
    a = _run([1000] * 3, [231.0] * 8 + calm + [231.0] * 3)
    b = _run([1000] * 3, burst[:8] + calm + burst[8:])
    assert _status(compare.compare([a], [b], GATES))["latency_p50_us"] == "ok"
    mid, values = compare.samples([b], "w", "latency_p50_us", "lower")
    assert values == calm[:4]
    assert compare.samples([b], "w", "ops_per_s", "higher")[1] == [1000]


def test_any_wrong_result_or_rise_in_errors_regresses():
    a = _run([1000, 1010, 1020], [200, 201, 202])
    bad = _status(compare.compare([a], [_run([1000, 1010, 1020], [200, 201, 202], wrong=1)], GATES))
    assert bad["wrong_results"] == "regressed"
    err = _status(compare.compare([a], [_run([1000, 1010, 1020], [200, 201, 202], error_rate=0.001)], GATES))
    assert err["error_rate"] == "regressed"


def test_directories_of_runs_take_the_spread_over_runs(tmp_path, capsys):
    for side, base in (("a", 1000.0), ("b", 1005.0)):
        (tmp_path / side).mkdir()
        for i in range(10):
            run = _run([base + i] * 3, [200.0 + i] * 3)
            (tmp_path / side / f"run{i}.json").write_text(json.dumps({"workloads": run}))
    a, b = compare.load(str(tmp_path / "a")), compare.load(str(tmp_path / "b"))
    assert len(a) == len(b) == 10
    mid, values = compare.samples(a, "w", "ops_per_s")
    assert mid == 1004.5 and len(values) == 10
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "0 regressed, 0 unresolved" in capsys.readouterr().out

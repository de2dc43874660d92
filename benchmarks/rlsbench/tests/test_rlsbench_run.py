"""End-to-end checks that start real server children (about a minute)."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parents[1]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"] + DEFINITION["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _cmdlines():
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                yield int(entry), Path("/proc", entry, "cmdline").read_bytes().split(b"\0")
            except OSError:
                continue


def _children(seed: int, parent: int | None = None) -> list[int]:
    """Live ``serve.py`` children started for ``seed``, and the keep-awake
    spinners of the benchmark process ``parent``."""
    found = []
    for pid, cmdline in _cmdlines():
        if any(arg.endswith(b"serve.py") for arg in cmdline) and str(seed).encode() in cmdline:
            found.append(pid)
        elif parent is not None and b"sched_setaffinity" in b" ".join(cmdline) \
                and cmdline[-2:-1] == [str(parent).encode()]:
            found.append(pid)
    return found


def _gone(seed: int, parent: int | None = None, within: float = 30.0) -> bool:
    deadline = time.monotonic() + within
    while _children(seed, parent):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)
    return True


def test_benchmark_json_names_and_units_are_well_formed():
    names = list(UNITS)
    assert len(names) == len(set(names)) == len(DEFINITION["end_to_end"]) + len(DEFINITION["per_layer"])
    assert all(NAME.match(n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in UNITS.values())
    assert {"setup_s"} <= {m["name"] for m in DEFINITION["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in DEFINITION["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DEFINITION["workloads"])


def test_smoke_prints_only_names_from_benchmark_json(tmp_path):
    seed = 424201
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    printed = re.findall(r"^  (\S+)\s+\S+.*\bn=\d+$", done.stdout, flags=re.M)
    assert printed and all(NAME.match(n) for n in printed)
    assert set(printed) <= set(UNITS)
    report = json.loads(out.read_text())["workloads"]
    # The harness gates four of the seven; the whole benchmark runs all.
    assert len(report) == 7 and {w["name"] for w in DEFINITION["workloads"]} <= set(report)
    for workload, metrics in report.items():
        for m in DEFINITION["end_to_end"]:
            assert metrics[m["name"]]["value"] > 0, (workload, m["name"])
        assert all(metric["unit"] == UNITS[name] for name, metric in metrics.items()), workload
        assert metrics["wrong_results"]["value"] == 0
        assert metrics["error_rate"]["value"] == 0
    assert _gone(seed)


FAILING_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import run, workloads

def broken(self):
    raise RuntimeError("a check failed")

workloads.RliBloomQuery.final_wrong = broken
run.main(["--workload", "rli_bloom_query", "--seed", sys.argv[2], "--seconds", "0.2"])
"""


def test_no_child_survives_a_failing_run():
    seed = 424202
    parent = subprocess.Popen(
        [sys.executable, "-c", FAILING_RUN, str(BENCH_DIR), str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    stdout, stderr = parent.communicate(timeout=120)
    assert parent.returncode != 0
    assert "a check failed" in stderr
    assert '"correct"' not in stdout  # no result line from a failed run
    assert _gone(seed, parent.pid)


def test_a_child_that_is_not_ready_in_time_is_killed():
    sys.path.insert(0, str(BENCH_DIR))
    import serve

    read_end, write_end = os.pipe()
    try:
        with pytest.raises(TimeoutError):
            serve._read_line(read_end, 0.05)  # nothing written: no hang
        os.write(write_end, b'{"ports"')
        os.write(write_end, b": {}}\nrest")
        assert serve._read_line(read_end, 5.0) == b'{"ports": {}}'
    finally:
        os.close(read_end)
        os.close(write_end)
    seed = 424204
    with pytest.raises(TimeoutError):
        serve.ServerProcess("rli_bloom", seed, timeout=0.01)
    assert _gone(seed)


def test_children_end_when_their_parent_is_killed():
    seed = 424203
    parent = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "rli_bloom_query",
         "--seed", str(seed), "--seconds", "60"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while len(_children(seed, parent.pid)) < 2:  # a server and a spinner
            assert time.monotonic() < deadline and parent.poll() is None
            time.sleep(0.1)
    finally:
        parent.kill()
        parent.wait()
    assert _gone(seed, parent.pid)


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory that holds only the benchmark there is nothing to
    measure: no result line, non-zero exit."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "benchmarks" / "rlsbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/rlsbench/run.py", "--workload", "lrc_query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""BENCH_<name>.json trajectory artifacts (schema in docs/OBSERVABILITY.md)."""

from __future__ import annotations

import json

import pytest

from benchmarks.common import (
    ARTIFACT_DIR_ENV,
    artifact_dir,
    snapshot_p95s,
    write_bench_artifact,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    return tmp_path


class TestArtifactDir:
    def test_env_override(self, artifacts):
        assert artifact_dir() == artifacts

    def test_default(self, monkeypatch):
        monkeypatch.delenv(ARTIFACT_DIR_ENV, raising=False)
        assert artifact_dir().name == "bench_artifacts"


class TestWriteBenchArtifact:
    def test_schema(self, artifacts):
        path = write_bench_artifact(
            "unittest",
            series={"lrc.add_rate": [[0.0, 100.0], [1.0, 80.0]]},
            meta={"trials": 2},
        )
        assert path == artifacts / "BENCH_unittest.json"
        payload = json.loads(path.read_text())
        assert payload["name"] == "unittest"
        assert payload["created"] > 0
        assert isinstance(payload["scale"], float)
        assert payload["series"] == {"lrc.add_rate": [[0.0, 100.0], [1.0, 80.0]]}
        assert payload["meta"] == {"trials": 2}
        assert set(payload) == {
            "name", "created", "scale", "series", "meta", "runs",
        }

    def test_points_coerce_to_floats(self, artifacts):
        path = write_bench_artifact("ints", series={"rate": [[1, 5]]})
        payload = json.loads(path.read_text())
        assert payload["series"] == {"rate": [[1.0, 5.0]]}
        assert all(
            isinstance(v, float) for v in payload["series"]["rate"][0]
        )

    def test_creates_missing_directory(self, tmp_path, monkeypatch):
        nested = tmp_path / "a" / "b"
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(nested))
        path = write_bench_artifact("deep", series={})
        assert path.exists() and path.parent == nested


class TestRunTrajectory:
    def test_reruns_accumulate_run_records(self, artifacts):
        write_bench_artifact("traj", series={"r": [[1.0, 10.0]]}, seed=7)
        path = write_bench_artifact("traj", series={"r": [[1.0, 12.0]]}, seed=8)
        payload = json.loads(path.read_text())
        runs = payload["runs"]
        assert len(runs) == 2
        assert runs[0]["series"] == {"r": [[1.0, 10.0]]}
        assert runs[1]["series"] == {"r": [[1.0, 12.0]]}
        assert runs[0]["seed"] == 7 and runs[1]["seed"] == 8
        # Top-level keys mirror the latest run, so one-shot consumers
        # keep working.
        assert payload["series"] == {"r": [[1.0, 12.0]]}

    def test_run_record_fields(self, artifacts):
        path = write_bench_artifact(
            "fields", series={"s": [[0.0, 1.0]]}, meta={"x_axis": "t"}, seed=3
        )
        (run,) = json.loads(path.read_text())["runs"]
        assert set(run) == {
            "created", "scale", "git_sha", "seed", "series", "meta",
        }
        assert run["created"] > 0
        assert isinstance(run["git_sha"], str) and run["git_sha"]
        assert run["meta"] == {"x_axis": "t"}

    def test_seed_defaults_to_none(self, artifacts):
        path = write_bench_artifact("noseed", series={})
        (run,) = json.loads(path.read_text())["runs"]
        assert run["seed"] is None

    def test_runs_capped(self, artifacts):
        from benchmarks.common import MAX_ARTIFACT_RUNS

        path = artifacts / "BENCH_capped.json"
        stale = [{"created": float(i), "series": {}} for i in range(MAX_ARTIFACT_RUNS)]
        path.write_text(json.dumps({"name": "capped", "runs": stale}))
        write_bench_artifact("capped", series={"fresh": [[0.0, 1.0]]})
        runs = json.loads(path.read_text())["runs"]
        assert len(runs) == MAX_ARTIFACT_RUNS
        # Oldest dropped, newest appended.
        assert runs[0]["created"] == 1.0
        assert runs[-1]["series"] == {"fresh": [[0.0, 1.0]]}

    def test_corrupt_existing_artifact_starts_fresh(self, artifacts):
        path = artifacts / "BENCH_corrupt.json"
        path.write_text("{not json")
        write_bench_artifact("corrupt", series={})
        assert len(json.loads(path.read_text())["runs"]) == 1


class TestBenchHelpers:
    def test_snapshot_p95s_skips_empty_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("idle")  # registered but never observed
        registry.histogram("busy").observe(0.010)
        p95s = snapshot_p95s(registry.snapshot())
        assert set(p95s) == {"busy"}
        assert p95s["busy"] > 0

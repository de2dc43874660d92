"""BENCH_<name>.json benchmark artifacts (schema in docs/OBSERVABILITY.md)."""

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
        assert set(payload) == {"name", "created", "scale", "series", "meta"}

    def test_points_coerce_to_floats(self, artifacts):
        path = write_bench_artifact("ints", series={"rate": [[1, 5]]})
        payload = json.loads(path.read_text())
        assert payload["series"] == {"rate": [[1.0, 5.0]]}
        assert all(
            isinstance(v, float) for v in payload["series"]["rate"][0]
        )

    def test_a_rerun_keeps_the_latest_run_only(self, artifacts):
        write_bench_artifact("rerun", series={"r": [[1.0, 10.0]]})
        path = write_bench_artifact("rerun", series={"r": [[1.0, 12.0]]})
        assert json.loads(path.read_text())["series"] == {"r": [[1.0, 12.0]]}

    def test_creates_missing_directory(self, tmp_path, monkeypatch):
        nested = tmp_path / "a" / "b"
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(nested))
        path = write_bench_artifact("deep", series={})
        assert path.exists() and path.parent == nested


class TestBenchHelpers:
    def test_snapshot_p95s_skips_empty_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("idle")  # registered but never observed
        registry.histogram("busy").observe(0.010)
        p95s = snapshot_p95s(registry.snapshot())
        assert set(p95s) == {"busy"}
        assert p95s["busy"] > 0

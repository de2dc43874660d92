"""Virtual-time sharded-cluster experiments (determinism + claims)."""

from __future__ import annotations

import pytest

from repro.sim.cluster_sim import cluster_experiment


class TestScaleOut:
    def test_aggregate_rate_scales_with_shards(self):
        r1 = cluster_experiment(1, 0, duration=120.0)
        r2 = cluster_experiment(2, 0, duration=120.0)
        r4 = cluster_experiment(4, 0, duration=120.0)
        assert r2.rate > 1.6 * r1.rate
        assert r4.rate > 1.5 * r2.rate

    def test_single_shard_saturates_at_service_rate(self):
        r = cluster_experiment(1, 0, service_time=0.005, duration=120.0)
        assert r.rate == pytest.approx(200.0, rel=0.05)

    def test_mirrors_add_read_capacity(self):
        r0 = cluster_experiment(2, 0, duration=120.0)
        r2 = cluster_experiment(2, 2, duration=120.0)
        assert r2.rate > 1.5 * r0.rate
        assert r2.master_served == 0  # mirrors absorb every read
        assert r0.mirror_served == 0

    def test_deterministic(self):
        a = cluster_experiment(2, 1, duration=60.0, seed=13)
        b = cluster_experiment(2, 1, duration=60.0, seed=13)
        assert a.queries_completed == b.queries_completed
        assert a.mean_latency == b.mean_latency


class TestSLOBurn:
    def test_shard_outage_fires_fast_burn_on_that_shard_only(self):
        from repro.testing.faults import FailureSchedule

        r = cluster_experiment(
            2,
            1,
            duration=600.0,
            faults=FailureSchedule.always(),
            fault_shard="shard0",
            fault_after=200.0,
            seed=3,
        )
        assert r.queries_failed > 0
        fast = [a for a in r.slo_alerts if a["window"] == "fast"]
        assert fast, r.slo_alerts
        assert all(a["shard"] == "shard0" for a in r.slo_alerts)
        assert all(a["severity"] == "critical" for a in fast)

    def test_fault_free_run_is_quiet(self):
        r = cluster_experiment(2, 1, duration=600.0, seed=3)
        assert r.queries_failed == 0
        assert r.slo_alerts == []

    def test_unknown_fault_shard_rejected(self):
        from repro.testing.faults import FailureSchedule

        with pytest.raises(ValueError):
            cluster_experiment(
                1, 1, faults=FailureSchedule.always(), fault_shard="nope"
            )

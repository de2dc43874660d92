"""Virtual-time telemetry: sim staleness trajectories feed the detectors."""

from __future__ import annotations

from repro.core.bloom import BloomFilter, BloomParameters
from repro.obs.analyze import analyze_store, detect_staleness_burn
from repro.obs.timeseries import SeriesStore
from repro.sim.kernel import Simulator
from repro.sim.rls_sim import VirtualLink, staleness_experiment


def make_rli():
    sim = Simulator()
    return sim, VirtualLink(sim)


class TestSimRLIStalenessAge:
    """The simulator's index is the real RLI on the virtual clock."""

    def test_zero_before_any_update(self):
        sim, link = make_rli()
        assert link.rli.staleness_age() == 0.0

    def test_ages_on_the_virtual_clock(self):
        sim, link = make_rli()
        link.rli.apply_full_update("l", ["a"])
        sim.run(until=45.0)
        assert link.rli.staleness_age() == 45.0

    def test_every_apply_kind_resets_the_age(self):
        bloom = BloomFilter.from_names(["a"], BloomParameters.for_entries(1024))
        for apply in (
            lambda rli: rli.apply_full_update("l", ["a"]),
            lambda rli: rli.apply_incremental_update("l", ["a"], []),
            lambda rli: rli.apply_bloom_update(
                "l", bloom.to_bytes(), bloom.params.num_bits,
                bloom.params.num_hashes, bloom.approx_entries,
            ),
        ):
            sim, link = make_rli()
            sim.run(until=30.0)
            apply(link.rli)
            assert link.rli.staleness_age() == 0.0

    def test_crash_clears_the_age(self):
        sim, link = make_rli()
        link.rli.apply_full_update("l", ["a"])
        link.restart()
        assert link.rli.staleness_age() == 0.0
        assert link.rli.staleness_ages() == {}


class TestExperimentStore:
    def test_records_collector_compatible_keys(self):
        result = staleness_experiment(
            "full-only", catalog_size=200, duration=1800.0, full_interval=600.0
        )
        keys = result.store.keys()
        assert "rli.staleness_age" in keys
        assert "probe.stale_fraction" in keys
        series = result.store.series("rli.staleness_age")
        assert len(series) > 0
        # Samples land on the virtual clock, one per probe interval.
        times = series.times()
        assert times == sorted(times)
        assert times[-1] <= 1800.0

    def test_healthy_full_updates_stay_under_slo(self):
        """With on-schedule full updates the age sawtooths below the
        full interval, so a burn check against interval+slack is clean."""
        result = staleness_experiment(
            "full-only", catalog_size=200, duration=3600.0, full_interval=600.0
        )
        ages = result.store.series("rli.staleness_age")
        assert max(ages.values()) < 700.0
        assert detect_staleness_burn(ages, slo_seconds=700.0) == []

    def test_detector_fires_on_starved_index(self):
        """An update interval far beyond the SLO shows up as a burn — the
        exact pathology detect_staleness_burn exists to catch."""
        result = staleness_experiment(
            "full-only", catalog_size=200, duration=3600.0, full_interval=3000.0
        )
        ages = result.store.series("rli.staleness_age")
        detections = detect_staleness_burn(ages, slo_seconds=300.0)
        assert detections and detections[0].kind == "staleness_burn"
        assert detections[0].details["worst_age"] > 300.0

    def test_analyze_store_runs_on_sim_output(self):
        result = staleness_experiment(
            "full-only", catalog_size=200, duration=3600.0, full_interval=3000.0
        )
        detections = analyze_store(result.store, staleness_slo=300.0)
        assert any(d.kind == "staleness_burn" for d in detections)
        [burn] = [d for d in detections if d.kind == "staleness_burn"]
        assert burn.details["series"] == "rli.staleness_age"

    def test_result_store_defaults_to_empty(self):
        from repro.sim.rls_sim import StalenessResult

        result = StalenessResult(
            mode="full-only",
            samples=0,
            stale_fraction=0.0,
            miss_fraction=0.0,
            ghost_fraction=0.0,
            bytes_sent=0.0,
            updates_sent=0,
        )
        assert isinstance(result.store, SeriesStore)
        assert result.store.keys() == []

"""Virtual-time telemetry: the sim's index ages and goes stale on its clock."""

from __future__ import annotations

from repro.core.bloom import BloomFilter, BloomParameters
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


class TestStarvedIndex:
    def test_a_starved_index_answers_stale_more_often(self):
        """A full-update interval far beyond the churn's timescale leaves
        the index wrong on more probes than an on-schedule one."""
        healthy, starved = (
            staleness_experiment(
                "full-only",
                catalog_size=200,
                churn_per_sec=0.05,
                duration=3600.0,
                full_interval=interval,
            )
            for interval in (600.0, 3000.0)
        )
        assert healthy.samples == starved.samples > 0
        assert starved.stale_fraction > 2 * healthy.stale_fraction

"""Deployment-simulator tests: staleness and crash recovery on the real
soft-state stack (catalog, update manager, delivery engine, index)."""

import random

import pytest

from repro.core.bloom import BloomFilter, BloomParameters
from repro.core.config import ServerConfig
from repro.core.updates import UpdateManager, UpdatePolicy
from repro.sim.kernel import Simulator
from repro.sim.rls_sim import (
    RecoveryResult,
    SimLRC,
    StalenessResult,
    VirtualLink,
    recovery_experiment,
    staleness_experiment,
    start_updates,
)
from repro.testing import FailureSchedule, FaultInjected

CONFIG = ServerConfig()


def indexed(link, lfn):
    return bool(link.rli.bulk_query([lfn]))


class TestSimLRC:
    def test_churn_keeps_size_roughly_constant(self):
        sim = Simulator()
        lrc = SimLRC(sim, "l", 1000, churn_per_sec=5.0, rng=random.Random(1))
        sim.run(until=600.0)
        assert 700 < len(lrc.names) < 1300
        assert lrc.catalog.lfn_count() == len(lrc.names)

    def test_no_churn_is_static(self):
        sim = Simulator()
        lrc = SimLRC(sim, "l", 100, churn_per_sec=0.0, rng=random.Random(1))
        sim.run(until=100.0)
        assert len(lrc.names) == 100


class TestSimRLI:
    """The simulator's index: the real RLI behind a :class:`VirtualLink`."""

    def test_entries_expire(self):
        sim = Simulator()
        link = VirtualLink(sim)
        link.full_update("l", ["x"])
        sim.run(until=CONFIG.rli_timeout)
        assert indexed(link, "x")
        # The next expire pass on the virtual clock drops it.
        sim.run(until=CONFIG.rli_timeout + CONFIG.expire_interval)
        assert not indexed(link, "x")

    def test_delta_removes(self):
        """A delta sent after a full is applied after it, although its
        transfer finishes first."""
        sim = Simulator()
        link = VirtualLink(sim)
        names = [f"n{i}" for i in range(1000)]
        link.full_update("l", names)
        link.incremental_update("l", [], ["n0"])
        sim.run(until=2.0)
        assert not indexed(link, "n0") and indexed(link, "n1")

    def test_bloom_replaces(self):
        sim = Simulator()
        link = VirtualLink(sim)
        for names in (["old"], ["new"]):
            bloom = BloomFilter.from_names(names, BloomParameters.for_entries(1024))
            link.bloom_update(
                "l", bloom.to_bytes(), bloom.params.num_bits,
                bloom.params.num_hashes, bloom.approx_entries,
            )
        sim.run(until=1.0)
        assert indexed(link, "new") and not indexed(link, "old")

    def test_crash_loses_state_and_updates_ignored_while_down(self):
        sim = Simulator()
        link = VirtualLink(sim)
        link.full_update("l", ["x"])
        sim.run(until=1.0)
        link.restart()
        assert not indexed(link, "x")
        link.faults = FailureSchedule.always()  # down: every push is lost
        with pytest.raises(FaultInjected):
            link.full_update("l", ["y"])
        link.faults = None
        link.full_update("l", ["z"])
        sim.run(until=2.0)
        assert indexed(link, "z") and not indexed(link, "y")


class TestStalenessExperiment:
    @pytest.fixture(scope="class")
    def results(self):
        kwargs = dict(catalog_size=2000, churn_per_sec=1.0, duration=3600.0)
        return {
            mode: staleness_experiment(mode, **kwargs)
            for mode in ("full-only", "immediate", "bloom")
        }

    def test_immediate_mode_far_fresher_than_full_only(self, results):
        """The §3.3 claim: immediate mode reduces staleness."""
        assert (
            results["immediate"].stale_fraction
            < 0.5 * results["full-only"].stale_fraction
        )

    def test_bloom_traffic_cheapest_per_refresh_rate(self, results):
        """At the same refresh cadence, Bloom sends far fewer bytes."""
        assert results["bloom"].bytes_sent < 0.5 * results["immediate"].bytes_sent
        assert results["bloom"].updates_sent == results["immediate"].updates_sent

    def test_full_only_ghosts_dominate(self, results):
        """Under full-only updates, deletions linger until the soft-state
        timeout — ghosts, not misses, are the staleness."""
        r = results["full-only"]
        assert r.ghost_fraction > r.miss_fraction

    def test_deterministic(self):
        a = staleness_experiment("immediate", catalog_size=500, duration=600.0)
        b = staleness_experiment("immediate", catalog_size=500, duration=600.0)
        assert a.stale_fraction == b.stale_fraction
        assert a.bytes_sent == b.bytes_sent

    def test_result_fields_consistent(self, results):
        for r in results.values():
            assert isinstance(r, StalenessResult)
            assert 0 <= r.miss_fraction <= r.stale_fraction <= 1
            assert r.samples > 100

    @pytest.mark.parametrize("mode", ["immediat", "full", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown update mode"):
            staleness_experiment(mode, catalog_size=10, duration=10.0)


class TestRecoveryExperiment:
    def test_recovery_bounded_by_full_interval(self):
        """§2's soft-state rebuild: the index recovers within one full
        update interval (the last LRC's next scheduled push)."""
        result = recovery_experiment(full_interval=300.0, catalog_size=1000)
        assert isinstance(result, RecoveryResult)
        assert result.recovery_time <= 300.0 + 10.0

    def test_recovery_scales_with_interval(self):
        fast = recovery_experiment(full_interval=120.0, catalog_size=500)
        slow = recovery_experiment(full_interval=600.0, catalog_size=500)
        assert slow.recovery_time > 2 * fast.recovery_time

    def test_coverage_curve_monotone_rise(self):
        result = recovery_experiment(full_interval=200.0, catalog_size=500)
        coverages = [c for _, c in result.coverage_curve]
        assert coverages[0] < 0.5  # right after crash: mostly empty
        assert coverages[-1] >= 0.99
        # Rebuild is (weakly) monotone: coverage never decreases.
        assert all(b >= a - 1e-9 for a, b in zip(coverages, coverages[1:]))


class TestFaultInjection:
    def test_lossy_delivery_counts_failures(self):
        faults = FailureSchedule.pattern("F" * 5)  # first 5 pushes lost
        result = staleness_experiment(
            "immediate", catalog_size=500, churn_per_sec=1.0,
            duration=1800.0, faults=faults,
        )
        assert result.updates_failed == 5
        assert result.updates_sent > result.updates_failed

    def test_failed_deltas_requeue_and_converge(self):
        """A lossy update path must not lose changes permanently: once the
        faults stop, the index converges just like the reliable manager."""
        clean = staleness_experiment(
            "immediate", catalog_size=500, churn_per_sec=1.0, duration=3600.0,
        )
        lossy = staleness_experiment(
            "immediate", catalog_size=500, churn_per_sec=1.0, duration=3600.0,
            faults=FailureSchedule.pattern("FF.FF."),
        )
        assert lossy.updates_failed == 4
        # Re-queued deltas are delivered on a later cycle, so answer
        # quality degrades only modestly versus the fault-free run.
        assert lossy.stale_fraction <= clean.stale_fraction + 0.05

    def test_always_failing_full_only_goes_fully_stale(self):
        result = staleness_experiment(
            "full-only", catalog_size=200, churn_per_sec=1.0,
            duration=7200.0, full_interval=600.0,
            faults=FailureSchedule.always(),
        )
        # Every push lost and entries time out: answers go bad.
        assert result.updates_failed == result.updates_sent
        assert result.stale_fraction > 0.2


class TestDeliveryOnTheVirtualClock:
    """The update manager's own redelivery rule, run in virtual time."""

    def test_dead_rli_is_retried_on_the_backoff_capped_at_backoff_max(self):
        sim = Simulator()
        faults = FailureSchedule.always()
        lrc = SimLRC(sim, "l", 100, churn_per_sec=0.0, rng=random.Random(1))
        link = VirtualLink(sim, faults)
        policy = UpdatePolicy(immediate_mode=False, full_interval=600.0)
        start_updates(sim, lrc, link, policy)
        times = [sim.now]  # the first full push, lost
        while sim.now < 3600.0:
            calls = faults.calls
            sim.step()
            if faults.calls > calls:
                times.append(sim.now)
        retry, tick = policy.retry, CONFIG.update_poll_interval
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Exponential from backoff_base (the tick rounds a delay up) ...
        for attempt, gap in enumerate(gaps[:5]):
            nominal = retry.backoff(attempt, lambda: 0.5)
            assert nominal * (1 - retry.jitter) <= gap
            assert gap <= nominal * (1 + retry.jitter) + tick
        # ... then capped: a dead RLI is tried every ~backoff_max, not
        # once per full_interval.
        assert max(gaps) <= retry.backoff_max * (1 + retry.jitter) + tick
        assert faults.failures == link.pushes == len(times)

    @pytest.mark.parametrize("mode", ["full-only", "immediate"])
    def test_soft_state_converges_after_faults_stop(self, mode):
        """The north-star invariant: within full_interval + backoff_max of
        the faults ending, every live name is indexed and no name deleted
        before they ended is advertised — with no wait for rli_timeout or
        an expire pass, because a full is authoritative."""
        sim = Simulator()
        faults = FailureSchedule.pattern("FFF.FF.FFFF")
        lrc = SimLRC(sim, "l", 300, churn_per_sec=1.0, rng=random.Random(3))
        # A second manager, never flushed: its fold of the log holds every
        # name change from here on.
        changes = UpdateManager(lrc.catalog, lambda name: None)
        link = VirtualLink(sim, faults)
        policy = UpdatePolicy(immediate_mode=mode == "immediate", full_interval=600.0)
        start_updates(sim, lrc, link, policy)
        while faults.calls < len(faults.outcomes):
            assert sim.now < 4 * policy.full_interval, "the scripted pushes never came"
            sim.step()
        live = set(lrc.names)
        gone = sorted(lfn for lfn, present in changes.pending().items() if not present)
        retry = policy.retry
        sim.run(
            until=sim.now + policy.full_interval
            + retry.backoff_max * (1 + retry.jitter)
        )
        survivors = sorted(live.intersection(lrc.names))
        assert len(link.rli.bulk_query(survivors)) == len(survivors)
        assert gone
        assert link.rli.bulk_query(gone) == {}

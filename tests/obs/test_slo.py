"""SLO engine: SLIs, multi-window burn rates, budgets, the recorder."""

from __future__ import annotations

import pytest

from repro.cluster import CombinedClient, ShardMap
from repro.core.client import connect
from repro.core.config import ServerRole
from repro.core.errors import ReadOnlyCatalogError
from repro.core.server import OP_CLASSES
from repro.net.errors import RemoteError
from repro.obs.metrics import BUCKET_BOUNDS, MetricsRegistry, split_metric_key
from repro.obs.slo import (
    BUDGET_WINDOW,
    DEFAULT_LATENCY_THRESHOLDS,
    FAST_WINDOW,
    OPERATION_CLASSES,
    SLIRecorder,
    SLITracker,
    SLOW_WINDOW,
    slow_observations,
)
from repro.testing.faults import FailureSchedule


#: Table 1's operation taxonomy, method by method, written out by hand: the
#: oracle for the ``op_class`` column of ``core.server.CATALOG_METHODS``.
EXPECTED_CLASSES = {
    "lrc_create_mapping": "add",
    "lrc_add_mapping": "add",
    "lrc_delete_mapping": "add",
    "lrc_attr_define": "add",
    "lrc_attr_undefine": "add",
    "lrc_attr_add": "add",
    "lrc_attr_modify": "add",
    "lrc_attr_remove": "add",
    "lrc_get_mappings": "query",
    "lrc_get_lfns": "query",
    "lrc_exists": "query",
    "lrc_lfn_count": "query",
    "lrc_mapping_count": "query",
    "lrc_attr_get": "query",
    "rli_query": "query",
    "rli_lrc_list": "query",
    "lrc_bulk_create": "bulk",
    "lrc_bulk_add": "bulk",
    "lrc_bulk_delete": "bulk",
    "lrc_bulk_query": "bulk",
    "lrc_attr_bulk_add": "bulk",
    "rli_bulk_query": "bulk",
    "lrc_query_wildcard": "wildcard",
    "rli_query_wildcard": "wildcard",
    "lrc_attr_query": "wildcard",
}


class TestClassifyMethod:
    def test_classes_cover_table1_operations(self):
        assert OP_CLASSES == EXPECTED_CLASSES

    def test_every_class_is_an_slo_class(self):
        assert set(OP_CLASSES.values()) <= set(OPERATION_CLASSES)

    def test_internal_traffic_is_unclassified(self):
        for method in (
            "admin_stats",
            "admin_slo",
            "mirror_ship",
            "lrc_mirror_add",
            "lrc_rli_add",
            "rli_full_update",
            "rli_bloom_update",
        ):
            assert method not in OP_CLASSES

    def test_a_write_rejected_on_a_mirror_is_charged_to_add(self, make_server):
        mirror = make_server(ServerRole.LRC, mirror_of="slo-master").start()
        with connect(mirror.config.name) as client:
            with pytest.raises(ReadOnlyCatalogError):
                client.create("lfn", "pfn://lfn")
            add = client.usage()["principals"]["anonymous"]["add"]
        assert add["requests"] == 1 and add["errors"] == 1

    def test_every_class_has_a_latency_threshold(self):
        for cls in OPERATION_CLASSES:
            assert DEFAULT_LATENCY_THRESHOLDS[cls] > 0


class TestSlowObservations:
    def test_boundary_threshold_is_exact(self):
        # On a log-2 bucket boundary the count of strictly-slower
        # observations is exact; at-threshold requests are on time.
        threshold = BUCKET_BOUNDS[16]  # 65.536 ms
        registry = MetricsRegistry()
        hist = registry.histogram("x")
        for v in (threshold * 0.9, threshold, threshold * 1.1, 0.500):
            hist.observe(v)
        counts = registry.snapshot().histograms["x"].counts
        assert slow_observations(counts, threshold) == 2

    def test_mid_bucket_threshold_undercounts_conservatively(self):
        registry = MetricsRegistry()
        hist = registry.histogram("x")
        hist.observe(0.060)  # same bucket as the 50ms default threshold
        hist.observe(0.500)
        counts = registry.snapshot().histograms["x"].counts
        # 0.050 is mid-bucket: only buckets entirely above it are certain.
        assert slow_observations(counts, 0.050) == 1

    def test_overflow_bucket_counts(self):
        registry = MetricsRegistry()
        hist = registry.histogram("x")
        hist.observe(BUCKET_BOUNDS[-1] * 10)
        counts = registry.snapshot().histograms["x"].counts
        assert slow_observations(counts, 0.050) == 1


class TestSLITracker:
    def test_no_traffic_means_undefined_sli_and_zero_burn(self):
        tracker = SLITracker()
        assert tracker.availability(300.0, now=1000.0) is None
        assert tracker.latency_sli(300.0, now=1000.0) is None
        assert tracker.burn_rate(300.0, 1000.0, "availability") == 0.0
        assert tracker.alerts(now=1000.0) == []

    def test_availability_and_burn(self):
        tracker = SLITracker()
        tracker.record(100.0, requests=1000, errors=10)
        assert tracker.availability(300.0, now=200.0) == 1.0 - 10 / 1000
        burn = tracker.burn_rate(300.0, 200.0, "availability")
        assert abs(burn - 10.0) < 1e-9  # 1% errors / 0.1% budget

    def test_window_cutoff_excludes_old_records(self):
        tracker = SLITracker()
        tracker.record(0.0, requests=100, errors=100)
        tracker.record(1000.0, requests=100, errors=0)
        # 5m window at t=1100 sees only the clean record.
        assert tracker.availability(300.0, now=1100.0) == 1.0
        # 1h window still sees the outage.
        assert tracker.availability(3600.0, now=1100.0) == 0.5

    def test_fast_alert_needs_both_windows(self):
        # Errors only in the last 5 minutes: short burn huge, 1h burn
        # diluted below 14.4 -> the fast page must NOT fire.
        tracker = SLITracker()
        for i in range(60):
            t = i * 60.0
            errors = 100 if t > 3300.0 else 0
            tracker.record(t, requests=1000, errors=errors)
        fast = [
            a for a in tracker.alerts(now=3600.0) if a["window"] == "fast"
        ]
        assert fast == []

    def test_sustained_burn_fires_fast_and_slow(self):
        tracker = SLITracker()
        for i in range(61):
            tracker.record(i * 60.0, requests=1000, errors=100)
        alerts = tracker.alerts(now=3600.0)
        windows = {a["window"] for a in alerts}
        assert "fast" in windows and "slow" in windows
        fast = next(a for a in alerts if a["window"] == "fast")
        assert fast["severity"] == "critical"
        assert fast["burn_short"] >= FAST_WINDOW.threshold
        assert fast["burn_long"] >= FAST_WINDOW.threshold
        slow = next(a for a in alerts if a["window"] == "slow")
        assert slow["severity"] == "warning"
        assert slow["burn_short"] >= SLOW_WINDOW.threshold

    def test_latency_sli_separate_from_availability(self):
        tracker = SLITracker()
        tracker.record(10.0, requests=100, errors=0, slow=50)
        assert tracker.availability(300.0, now=20.0) == 1.0
        assert tracker.latency_sli(300.0, now=20.0) == 0.5
        assert abs(tracker.burn_rate(300.0, 20.0, "latency") - 50.0) < 1e-9

    def test_budget_accounting(self):
        tracker = SLITracker()
        tracker.record(10.0, requests=10_000, errors=5, slow=50)
        budget = tracker.budget(now=20.0)
        # 5 errors of 10 allowed; 50 slow of 100 allowed.
        assert abs(budget["availability_budget_remaining"] - 0.5) < 1e-9
        assert abs(budget["latency_budget_remaining"] - 0.5) < 1e-9
        exhausted = SLITracker()
        exhausted.record(10.0, requests=1000, errors=500)
        assert exhausted.budget(20.0)["availability_budget_remaining"] == 0.0

    def test_horizon_trims_records(self):
        tracker = SLITracker()
        tracker.record(0.0, requests=1, errors=0)
        tracker.record(BUDGET_WINDOW + 100.0, requests=1, errors=0)
        assert len(tracker._records) == 1

    def test_to_dict_window_keys(self):
        tracker = SLITracker()
        tracker.record(10.0, requests=10, errors=1)
        d = tracker.to_dict(now=20.0)
        assert set(d["windows"]) == {
            "fast_short", "fast_long", "slow_short", "slow_long"
        }
        assert d["windows"]["fast_short"]["requests"] == 10
        assert "budget" in d and "alerts" in d


def _gauges_named(registry, name):
    out = {}
    for key, value in registry.snapshot().gauges.items():
        base, labels = split_metric_key(key)
        if base == name:
            out[tuple(sorted(labels.items()))] = value
    return out


class TestSLIRecorder:
    def _clock(self, start=0.0):
        state = {"now": start}

        def clock():
            return state["now"]

        return state, clock

    def test_tick_classifies_and_records(self):
        state, clock = self._clock()
        registry = MetricsRegistry()
        recorder = SLIRecorder(
            registry, shard="s0", endpoint="s0", clock=clock,
            classes=OP_CLASSES,
        )
        recorder.tick()  # priming
        registry.counter("rpc.requests", method="lrc_get_mappings").inc(95)
        registry.counter("rpc.errors", method="lrc_get_mappings").inc(5)
        hist = registry.histogram("rpc.latency", method="lrc_get_mappings")
        for _ in range(90):
            hist.observe(0.001)
        for _ in range(10):
            hist.observe(0.200)  # above the 50ms query threshold
        # Internal traffic must not pollute any class.
        registry.counter("rpc.requests", method="admin_stats").inc(50)
        state["now"] = 60.0
        recorder.tick()
        tracker = recorder.trackers["query"]
        # Denominator is successes + errors.
        assert tracker._records[-1] == (60.0, 100, 5, 10)
        for cls in ("add", "bulk", "wildcard"):
            assert recorder.trackers[cls].availability(300.0, 60.0) is None
        assert recorder.ticks == 1

    def test_tick_exports_gauges(self):
        state, clock = self._clock()
        registry = MetricsRegistry()
        recorder = SLIRecorder(
            registry, endpoint="e0", clock=clock, classes=OP_CLASSES
        )
        recorder.tick()
        registry.counter("rpc.requests", method="lrc_create_mapping").inc(90)
        registry.counter("rpc.errors", method="lrc_create_mapping").inc(10)
        state["now"] = 60.0
        recorder.tick()
        avail = _gauges_named(registry, "slo.availability")
        key = (("class", "add"), ("endpoint", "e0"))
        assert abs(avail[key] - 0.9) < 1e-9
        burns = _gauges_named(registry, "slo.burn_rate")
        fast_key = (("class", "add"), ("endpoint", "e0"), ("window", "fast"))
        assert burns[fast_key] > 14.4
        budgets = _gauges_named(registry, "slo.budget_remaining")
        assert budgets[key] == 0.0  # 10% errors vs 0.1% budget
        # Self-metering rides the same registry.
        snapshot = registry.snapshot()
        assert snapshot.counters["obs.slo.ticks"] == 2

    def test_alerts_and_to_dict(self):
        state, clock = self._clock()
        registry = MetricsRegistry()
        recorder = SLIRecorder(
            registry, shard="s1", clock=clock, classes=OP_CLASSES
        )
        recorder.tick()
        for i in range(1, 62):
            registry.counter(
                "rpc.requests", method="lrc_get_mappings"
            ).inc(90)
            registry.counter("rpc.errors", method="lrc_get_mappings").inc(10)
            state["now"] = i * 60.0
            recorder.tick()
        alerts = recorder.alerts()
        assert any(
            a["window"] == "fast" and a["class"] == "query" for a in alerts
        )
        assert all(a["shard"] == "s1" for a in alerts)
        payload = recorder.to_dict()
        assert payload["enabled"] is True
        assert set(payload["classes"]) == set(OPERATION_CLASSES)
        assert payload["alerts"] == alerts


class TestShardOutage:
    """On real servers: a shard whose queries fail pages fast/critical on
    availability through its own ``admin_slo``; its healthy peer and a
    fault-free run page nobody."""

    SHARDS = ("outage-s0", "outage-s1")

    def _run(self, make_server, faulted):
        smap = ShardMap(shards=self.SHARDS)
        servers = [
            make_server(ServerRole.LRC, name=name, cluster=smap).start()
            for name in smap.shards
        ]
        if faulted:
            lrc, schedule = servers[0].lrc, FailureSchedule.always()

            def failing(ctx, args):
                schedule.check("lrc_get_mappings")
                return lrc.get_mappings(*args)

            servers[0].rpc.register(
                "lrc_get_mappings", failing, OP_CLASSES["lrc_get_mappings"]
            )
        failed = 0
        with CombinedClient(smap) as cc:
            lfns = [f"outage-lfn{i}" for i in range(20)]
            assert cc.bulk_create([(lfn, "pfn://" + lfn) for lfn in lfns]) == []
            # Enough queries that a few stray slow ones stay under the 1 %
            # latency budget of the slow window.
            for lfn in lfns * 50:
                try:
                    assert cc.get_mappings(lfn) == ["pfn://" + lfn]
                except RemoteError:  # the faulted shard's answer
                    failed += 1
        alerts = {}
        for name in smap.shards:
            with connect(name) as client:
                alerts[name] = client.slo()["alerts"]
        return failed, alerts

    def test_shard_outage_fires_fast_burn_on_that_shard_only(self, make_server):
        failed, alerts = self._run(make_server, faulted=True)
        assert 0 < failed < 1000  # both shards own some of the names
        fast = [a for a in alerts["outage-s0"] if a["window"] == "fast"]
        assert fast, alerts
        assert all(
            a["kind"] == "availability" and a["severity"] == "critical"
            and a["shard"] == "outage-s0"
            for a in fast
        )
        assert alerts["outage-s1"] == []

    def test_fault_free_run_is_quiet(self, make_server):
        failed, alerts = self._run(make_server, faulted=False)
        assert failed == 0
        assert alerts == {"outage-s0": [], "outage-s1": []}

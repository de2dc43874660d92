"""StaticMembership and hierarchical RLI propagation tests."""

import time

import pytest

from repro.core.client import connect
from repro.core.config import ServerConfig, ServerRole
from repro.core.errors import UpdateTargetError
from repro.core.hierarchy import HierarchicalUpdater
from repro.core.membership import (
    DEFAULT,
    MemberAddress,
    StaticMembership,
    resolve_sink,
)
from repro.core.server import RLSServer
from repro.core.updates import DirectSink


class TestStaticMembership:
    def test_register_and_lookup(self):
        membership = StaticMembership()
        membership.register_local("site-a")
        assert membership.lookup("site-a").kind == "local"

    def test_unknown_member_raises(self):
        with pytest.raises(UpdateTargetError):
            StaticMembership().lookup("ghost")

    def test_members_sorted(self):
        membership = StaticMembership()
        membership.register_local("zeta")
        membership.register_local("alpha")
        assert [m.name for m in membership.members()] == ["alpha", "zeta"]

    def test_unregister(self):
        membership = StaticMembership()
        membership.register_local("x")
        membership.unregister("x")
        with pytest.raises(UpdateTargetError):
            membership.lookup("x")

    def test_register_tcp_address(self):
        membership = StaticMembership()
        membership.register_tcp("remote", "10.0.0.1", 3900)
        addr = membership.lookup("remote")
        assert addr == MemberAddress("remote", "tcp", "10.0.0.1", 3900)

    def test_connect_local_member(self, make_server):
        server = make_server(ServerRole.BOTH)
        membership = StaticMembership()
        membership.register_local(server.config.name)
        client = membership.connect(server.config.name)
        assert client.call("admin_ping") == "pong"
        client.close()

    def test_resolve_sink_fallback_to_local_registry(self, make_server):
        """resolve_sink finds in-process servers without membership entries."""
        server = make_server(ServerRole.RLI)
        sink = resolve_sink(server.config.name)
        sink.full_update("some-lrc", ["lfn1"])
        assert server.rli.query("lfn1") == ["some-lrc"]


class TestCrossServerUpdates:
    def test_lrc_updates_separate_rli_server(self, make_server):
        """Two servers: LRC pushes soft state to a distinct RLI via RPC."""
        rli_server = make_server(ServerRole.RLI)
        lrc_server = make_server(ServerRole.LRC)
        client = connect(lrc_server.config.name)
        client.create("dist-lfn", "dist-pfn")
        client.add_rli(rli_server.config.name)
        client.trigger_full_update()
        rli_client = connect(rli_server.config.name)
        assert rli_client.rli_query("dist-lfn") == [lrc_server.config.name]
        client.close()
        rli_client.close()

    def test_bloom_across_servers(self, make_server):
        rli_server = make_server(ServerRole.RLI)
        lrc_server = make_server(ServerRole.LRC)
        client = connect(lrc_server.config.name)
        client.bulk_create([(f"b{i}", f"p{i}") for i in range(20)])
        client.add_rli(rli_server.config.name, bloom=True)
        client.rebuild_bloom()
        client.trigger_full_update()
        rli_client = connect(rli_server.config.name)
        assert rli_client.rli_query("b7") == [lrc_server.config.name]
        assert rli_server.rli.bloom_filter_count() == 1
        client.close()
        rli_client.close()


class TestHierarchy:
    def test_relational_state_forwarded(self, make_server):
        """LRC -> local RLI -> parent RLI, attribution preserved (§7)."""
        parent = make_server(ServerRole.RLI)
        child = make_server(ServerRole.RLI)
        child.rli.apply_full_update("lrc-leaf", ["h-lfn1", "h-lfn2"])
        updater = HierarchicalUpdater(
            child.rli, resolve_sink, parents=[parent.config.name]
        )
        updater.forward_once()
        assert parent.rli.query("h-lfn1") == ["lrc-leaf"]
        assert updater.stats.names_forwarded == 2

    def test_bloom_state_forwarded(self, make_server):
        from repro.core.bloom import BloomFilter, BloomParameters

        parent = make_server(ServerRole.RLI)
        child = make_server(ServerRole.RLI)
        params = BloomParameters.for_entries(100)
        bf = BloomFilter.from_names(["bloom-lfn"], params)
        child.rli.apply_bloom_update(
            "lrc-b", bf.to_bytes(), params.num_bits, params.num_hashes, 1
        )
        updater = HierarchicalUpdater(
            child.rli, resolve_sink, parents=[parent.config.name]
        )
        updater.forward_once()
        assert parent.rli.query("bloom-lfn") == ["lrc-b"]
        assert updater.stats.bloom_filters_forwarded == 1

    def test_two_level_tree(self, make_server):
        """Multiple leaf RLIs aggregating into one root."""
        root = make_server(ServerRole.RLI)
        leaves = [make_server(ServerRole.RLI) for _ in range(3)]
        for i, leaf in enumerate(leaves):
            leaf.rli.apply_full_update(f"lrc{i}", [f"tree-lfn{i}", "tree-common"])
            HierarchicalUpdater(
                leaf.rli, resolve_sink, parents=[root.config.name]
            ).forward_once()
        assert sorted(root.rli.query("tree-common")) == ["lrc0", "lrc1", "lrc2"]
        assert root.rli.query("tree-lfn1") == ["lrc1"]

    def test_direct_sink_parent(self, make_server):
        child = make_server(ServerRole.RLI)
        parent = make_server(ServerRole.RLI)
        child.rli.apply_full_update("lrcX", ["d-lfn"])
        updater = HierarchicalUpdater(
            child.rli, lambda name: DirectSink(parent.rli), parents=["ignored"]
        )
        updater.forward_once()
        assert parent.rli.query("d-lfn") == ["lrcX"]


class TestParentIsolation:
    """Each parent is a target of the shared delivery engine: a dead one is
    isolated, backed off and visible, and the others are served."""

    @staticmethod
    def setup(make_server, metrics=None):
        from repro.core.bloom import BloomFilter, BloomParameters

        child = make_server(ServerRole.RLI)
        first = make_server(ServerRole.RLI)
        second = make_server(ServerRole.RLI)
        child.rli.apply_full_update("lrc-rel", ["iso-lfn"])
        params = BloomParameters.for_entries(100)
        bloom = BloomFilter.from_names(["iso-bloom"], params)
        child.rli.apply_bloom_update(
            "lrc-bloom", bloom.to_bytes(), params.num_bits, params.num_hashes, 1
        )
        down = {"first": True}

        def resolver(name):
            if name == "first" and down["first"]:
                raise ConnectionError("first parent unreachable")
            return DirectSink(first.rli if name == "first" else second.rli)

        clock = {"now": 0.0}
        updater = HierarchicalUpdater(
            child.rli,
            resolver,
            parents=["first", "second"],
            clock=lambda: clock["now"],
            rng=lambda: 0.5,
            metrics=metrics,
        )
        return updater, first, second, down, clock

    def test_dead_first_parent_does_not_starve_the_second(self, make_server):
        updater, first, second, down, clock = self.setup(make_server)
        with pytest.raises(ConnectionError):
            updater.forward_once()  # raised once every parent was attempted
        # Parent commit: forward_once stopped at the first failing parent.
        assert second.rli.query("iso-lfn") == ["lrc-rel"]
        assert second.rli.query("iso-bloom") == ["lrc-bloom"]
        health = updater.target_health()
        assert health["second"]["healthy"]
        assert not health["first"]["healthy"]
        assert health["first"]["needs_full"]
        assert "ConnectionError" in health["first"]["last_error"]
        assert updater.stats.forward_passes == 1
        assert updater.stats.names_forwarded == 1
        assert updater.stats.bloom_filters_forwarded == 1

    def test_backoff_then_convergence_after_recovery(self, make_server):
        updater, first, second, down, clock = self.setup(make_server)

        def failures():
            return updater.target_health()["first"]["consecutive_failures"]

        with pytest.raises(ConnectionError):
            updater.forward_once()  # first fails: 2 s backoff
        clock["now"] = 1.0
        updater.forward_once()  # first is inside its window: not attempted
        assert failures() == 1
        clock["now"] = 2.5
        with pytest.raises(ConnectionError):
            updater.forward_once()  # attempted, fails again: 4 s
        assert failures() == 2
        down["first"] = False
        clock["now"] = 3.0
        updater.forward_once()  # recovered, but still benched
        assert failures() == 2
        clock["now"] = 7.0
        updater.forward_once()
        assert first.rli.query("iso-lfn") == ["lrc-rel"]
        assert first.rli.query("iso-bloom") == ["lrc-bloom"]
        health = updater.target_health()["first"]
        assert health["healthy"] and not health["needs_full"]
        assert health["consecutive_failures"] == 0

    def test_a_parent_outage_is_counted_once_not_as_a_task_error(self, make_server):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        updater, first, second, down, clock = self.setup(make_server, metrics)
        task = updater.task(interval=0.01).start()
        try:
            deadline = time.monotonic() + 5.0
            while updater.stats.forward_passes < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            assert task.stop()
        assert task.errors == 0  # the engine counted it; the task ran fine
        snap = metrics.snapshot()
        assert snap.counters["obs.selfcheck.task_errors{task=hierarchy}"] == 0
        assert snap.counters["hierarchy.errors"] == 1  # then benched (fake clock)
        assert snap.gauges["hierarchy.target_healthy{target=first}"] == 0.0
        assert snap.gauges["hierarchy.target_healthy{target=second}"] == 1.0
        assert snap.gauges["hierarchy.targets_unhealthy"] == 1.0

    def test_a_pass_that_cannot_read_state_is_counted_on_the_task(self, make_server):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        updater, first, second, down, clock = self.setup(make_server, metrics)
        broken = {"left": 1}
        read_state = updater._relational_state

        def flaky_state():
            if broken["left"]:
                broken["left"] -= 1
                raise RuntimeError("catalog unreadable")
            return read_state()

        updater._relational_state = flaky_state
        down["first"] = False
        task = updater.task(interval=0.01).start()
        try:
            deadline = time.monotonic() + 5.0
            while updater.stats.forward_passes < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            assert task.stop()
        assert task.errors == 1 and "RuntimeError" in task.last_error
        snap = metrics.snapshot()
        assert snap.counters["obs.selfcheck.task_errors{task=hierarchy}"] == 1
        assert snap.counters["hierarchy.errors"] == 0
        assert first.rli.query("iso-lfn") == ["lrc-rel"]  # the next pass ran

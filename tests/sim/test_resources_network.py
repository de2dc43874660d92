"""Resource queueing and shared-link bandwidth model tests."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.network import (
    NetworkPath,
    SharedLink,
    lan_path,
    tcp_window_cap_bps,
    wan_path,
)
from repro.sim.resources import Resource


class TestResource:
    def test_capacity_one_serializes(self):
        sim = Simulator()
        res = Resource(sim, 1)
        finish = []

        def job(tag):
            yield res.acquire()
            try:
                yield sim.timeout(10)
            finally:
                res.release()
            finish.append((tag, sim.now))

        for tag in ("a", "b", "c"):
            sim.process(job(tag))
        sim.run()
        assert finish == [("a", 10), ("b", 20), ("c", 30)]

    def test_capacity_n_parallelism(self):
        sim = Simulator()
        res = Resource(sim, 3)
        finish = []

        def job():
            yield res.acquire()
            try:
                yield sim.timeout(10)
            finally:
                res.release()
            finish.append(sim.now)

        for _ in range(3):
            sim.process(job())
        sim.run()
        assert finish == [10, 10, 10]

    def test_fifo_order(self):
        sim = Simulator()
        res = Resource(sim, 1)
        order = []

        def job(tag, start_delay):
            yield sim.timeout(start_delay)
            yield res.acquire()
            order.append(tag)
            try:
                yield sim.timeout(5)
            finally:
                res.release()

        sim.process(job("first", 0))
        sim.process(job("second", 1))
        sim.process(job("third", 2))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            Resource(Simulator(), 1).release()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), 0)

    def test_wait_statistics(self):
        sim = Simulator()
        res = Resource(sim, 1)

        def job():
            yield res.acquire()
            try:
                yield sim.timeout(10)
            finally:
                res.release()

        sim.process(job())
        sim.process(job())
        sim.run()
        assert res.total_acquisitions == 2
        assert res.total_wait_time == pytest.approx(10.0)  # 0 + 10

    def test_use_helper(self):
        sim = Simulator()
        res = Resource(sim, 1)
        sim.run(res.use(7.0))
        assert sim.now == 7.0 and res.in_use == 0


class TestSharedLink:
    def test_single_transfer_time(self):
        sim = Simulator()
        link = SharedLink(sim, bandwidth_bps=8e6)  # 1 MB/s
        sim.run(link.transfer(1_000_000))
        assert sim.now == pytest.approx(1.0)

    def test_two_flows_share_bandwidth(self):
        sim = Simulator()
        link = SharedLink(sim, bandwidth_bps=8e6)
        e1 = link.transfer(1_000_000)
        e2 = link.transfer(1_000_000)
        sim.run(sim.all_of([e1, e2]))
        assert sim.now == pytest.approx(2.0)  # half rate each

    def test_late_joiner_slows_first_flow(self):
        sim = Simulator()
        link = SharedLink(sim, bandwidth_bps=8e6)
        done = {}

        def first():
            event = link.transfer(1_000_000)
            yield event
            done["first"] = sim.now

        def second():
            yield sim.timeout(0.5)
            event = link.transfer(1_000_000)
            yield event
            done["second"] = sim.now

        sim.process(first())
        sim.process(second())
        sim.run()
        # First: 0.5 MB at full rate, then shares; finishes at 1.5 s.
        # Second: 0.5 MB while sharing (0.5-1.5 s), 0.5 MB alone -> 2.0 s.
        assert done["first"] == pytest.approx(1.5)
        assert done["second"] == pytest.approx(2.0)

    def test_per_flow_cap(self):
        sim = Simulator()
        link = SharedLink(sim, bandwidth_bps=100e6, per_flow_cap_bps=8e6)
        sim.run(link.transfer(1_000_000))
        assert sim.now == pytest.approx(1.0)  # capped, not 0.08 s

    def test_zero_byte_transfer_completes_immediately(self):
        sim = Simulator()
        link = SharedLink(sim, bandwidth_bps=1e6)
        sim.run(link.transfer(0))
        assert sim.now == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SharedLink(Simulator(), 1e6).transfer(-1)

    def test_bytes_accounted(self):
        sim = Simulator()
        link = SharedLink(sim, 1e6)
        sim.run(link.transfer(500))
        assert link.bytes_carried == 500
        assert link.completed_transfers == 1

    def test_back_to_back_transfers(self):
        """Regression: residual float bits must not stall virtual time."""
        sim = Simulator()
        path = NetworkPath(rtt=0.0002, link=SharedLink(sim, 100e6))

        def seq():
            for _ in range(5):
                yield sim.process(path.send(80_000))

        sim.run(sim.process(seq()))
        assert sim.now == pytest.approx(5 * (0.0002 + 80_000 * 8 / 100e6))


class TestPaths:
    def test_tcp_window_cap(self):
        cap = tcp_window_cap_bps(64 * 1024, 0.0638)
        assert cap == pytest.approx(8.2e6, rel=0.01)

    def test_wan_single_bloom_update_near_paper(self):
        """One 5M-entry filter (50 Mb) over the WAN ≈ 6.2 s transfer."""
        sim = Simulator()
        path = wan_path(sim)
        sim.run(sim.process(path.send(50e6 / 8)))
        assert 5.5 < sim.now < 7.0

    def test_lan_transfer_fast(self):
        sim = Simulator()
        path = lan_path(sim)
        sim.run(sim.process(path.send(1_000_000)))
        assert sim.now < 0.2

"""Multi-RLI update fan-out tests.

Targets are pushed one after another; these check that a failing target
neither skips the rest nor hides its error, and that relational and
Bloom targets are served by the same pass.
"""

import pytest

from repro.core.errors import UpdateTargetError
from repro.core.lrc import LocalReplicaCatalog
from repro.core.updates import UpdateManager
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection


class CountingSink:
    """Sink that records the size of every full or Bloom push."""

    def __init__(self):
        self.updates = []

    def full_update(self, lrc_name, lfns):
        self.updates.append(len(lfns))

    def incremental_update(self, *a):
        pass

    def bloom_update(self, *a):
        self.full_update("x", [])


class FailingSink:
    def full_update(self, *a):
        raise ConnectionError("rli down")

    def incremental_update(self, *a):
        pass

    def bloom_update(self, *a):
        raise ConnectionError("rli down")


def make_manager(sinks):
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    lrc = LocalReplicaCatalog(Connection(engine, "pu"), name="pu")
    lrc.init_schema()
    manager = UpdateManager(lrc, lambda name: sinks[name])
    return lrc, manager


class TestParallelFanout:
    def test_one_failure_does_not_skip_others(self):
        good = CountingSink()
        sinks = {"good1": good, "bad": FailingSink(), "good2": good}
        lrc, manager = make_manager(sinks)
        for name in sinks:
            lrc.add_rli(name)
        lrc.create_mapping("x", "p")
        with pytest.raises(ConnectionError):
            manager.send_full_update()
        assert len(good.updates) == 2  # both healthy targets got pushed

    def test_no_targets_still_raises(self):
        _, manager = make_manager({})
        with pytest.raises(UpdateTargetError):
            manager.send_full_update()

    def test_mixed_bloom_and_full_parallel(self):
        sink = CountingSink()
        sinks = {"full-rli": sink, "bloom-rli": sink}
        lrc, manager = make_manager(sinks)
        lrc.add_rli("full-rli")
        lrc.add_rli("bloom-rli", bloom=True)
        lrc.create_mapping("x", "p")
        manager.send_full_update()
        assert len(sink.updates) == 2

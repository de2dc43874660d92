"""The hierarchy forwarder under its periodic task (``forward_once`` is
covered elsewhere; the task's own lifecycle is tests/obs/test_periodic.py)."""

import time

from repro.core.config import ServerRole
from repro.core.hierarchy import HierarchicalUpdater
from repro.core.membership import resolve_sink


class TestHierarchyThread:
    def test_periodic_forwarding_keeps_parent_fresh(self, make_server):
        parent = make_server(ServerRole.RLI, rli_timeout=0.3)
        child = make_server(ServerRole.RLI)
        child.rli.apply_full_update("leaf", ["fresh-lfn"])
        updater = HierarchicalUpdater(
            child.rli, resolve_sink, parents=[parent.config.name]
        )
        thread = updater.task(interval=0.05)
        thread.start()
        try:
            ok = 0
            for _ in range(8):
                time.sleep(0.1)
                parent.rli.expire_once()
                try:
                    if parent.rli.query("fresh-lfn"):
                        ok += 1
                except Exception:
                    pass
            assert ok >= 6  # refreshed faster than it expires
            assert updater.stats.forward_passes >= 5
        finally:
            thread.stop()

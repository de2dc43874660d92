"""Background daemon tests: expire thread and update scheduler thread."""

import time

import pytest

from repro.core.client import connect
from repro.core.config import ServerRole
from repro.core.errors import MappingNotFoundError
from repro.core.updates import UpdatePolicy, tick_task
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection


def wait_until(predicate, timeout=5.0, interval=0.02) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestExpireThread:
    """RLI expiry under the server's periodic task (the task's own
    lifecycle — start twice, stop twice — is tests/obs/test_periodic.py)."""

    def test_expires_in_background(self, make_server):
        server = make_server(
            ServerRole.RLI, rli_timeout=0.1, expire_interval=0.05
        ).start()
        server.rli.apply_full_update("lrcA", ["ephemeral"])
        assert wait_until(lambda: server.rli.mapping_count() == 0)

    def test_expiry_survives_a_raising_expire_once(self, make_server):
        """One failing pass must not end soft-state expiry for the life of
        the server, and must not be silent."""
        server = make_server(
            ServerRole.RLI, rli_timeout=0.1, expire_interval=0.02
        )
        real = server.rli.expire_once
        failures = {"left": 1}

        def expire_once():
            if failures["left"]:
                failures["left"] -= 1
                raise ConnectionError("database briefly away")
            return real()

        server.rli.expire_once = expire_once  # start() binds the task to it
        server.start()
        server.rli.apply_full_update("lrcA", ["ephemeral"])
        assert wait_until(lambda: server.rli.mapping_count() == 0)
        task = server._tasks["expire"]
        assert failures["left"] == 0
        assert task.errors == 1
        assert task.last_error == "ConnectionError: database briefly away"
        counters = server.metrics.snapshot().counters
        assert counters["obs.selfcheck.task_errors{task=expire}"] == 1


class TestUpdateThreadIntegration:
    def test_immediate_mode_propagates_in_background(self, make_server):
        """A started BOTH server pushes recent changes to its RLI without
        any explicit trigger — the paper's immediate mode end to end."""
        server = make_server(
            ServerRole.BOTH,
            updates=UpdatePolicy(
                immediate_interval=0.05,
                immediate_count_threshold=10_000,
                full_interval=3600.0,
                bloom_expected_entries=1024,
            ),
        )
        server.config.update_poll_interval = 0.02
        server.start()
        assert server._tasks["updates"].running
        client = connect(server.config.name)
        client.add_rli(server.config.name)
        client.create("bg-lfn", "bg-pfn")

        def indexed():
            try:
                return client.rli_query("bg-lfn") == [server.config.name]
            except MappingNotFoundError:
                return False

        assert wait_until(indexed), "update thread never propagated the change"
        client.close()

    def test_periodic_full_update_refreshes_expiring_state(self, make_server):
        """Full updates on full_interval keep soft state alive even though
        the RLI keeps expiring it (the soft-state contract, §3.2)."""
        server = make_server(
            ServerRole.BOTH,
            rli_timeout=0.4,
            expire_interval=0.1,
            updates=UpdatePolicy(
                immediate_mode=False,
                full_interval=0.15,
                bloom_expected_entries=1024,
            ),
        )
        server.config.update_poll_interval = 0.02
        server.start()
        client = connect(server.config.name)
        client.add_rli(server.config.name)
        client.create("steady-lfn", "p")
        client.trigger_full_update()
        # Observe over ~1 second (several expire+refresh cycles).
        ok_checks = 0
        for _ in range(10):
            time.sleep(0.1)
            try:
                if client.rli_query("steady-lfn"):
                    ok_checks += 1
            except MappingNotFoundError:
                pass
        assert ok_checks >= 8, "soft state did not stay refreshed"
        client.close()

    def test_update_thread_survives_sink_errors(self):
        """A failing RLI target must not kill the scheduler thread."""
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
        from repro.core.lrc import LocalReplicaCatalog
        from repro.core.updates import UpdateManager

        lrc = LocalReplicaCatalog(Connection(engine, "x"), name="x")
        lrc.init_schema()
        lrc.add_rli("unreachable-rli")

        def resolver(name):
            raise ConnectionError("target down")

        manager = UpdateManager(
            lrc,
            resolver,
            policy=UpdatePolicy(immediate_interval=0.01,
                                bloom_expected_entries=1024),
        )
        thread = tick_task(manager, poll_interval=0.01)
        thread.start()
        try:
            lrc.create_mapping("a", "p")
            time.sleep(0.1)
            # Thread alive and still ticking despite resolver failures.
            assert thread._thread.is_alive()
        finally:
            thread.stop()


class TestStopLeaksNoThread:
    """North-star invariant: ``stop()`` under load leaks no thread."""

    def test_stop_under_tcp_writes_leaves_no_server_thread(self, make_server):
        import threading

        from repro.core.client import connect_tcp_server

        before = set(threading.enumerate())
        mirror = make_server(ServerRole.LRC, name="leak-mirror", mirror_of="leak-master")
        mirror.start()
        server = make_server(
            ServerRole.BOTH,
            name="leak-master",
            tcp=True,
            mirrors=("leak-mirror",),
            mirror_push_interval=0.01,
            update_poll_interval=0.01,
            expire_interval=0.01,
            profile_hz=200.0,
            updates=UpdatePolicy(immediate_interval=0.01),
        ).start()
        server.lrc.add_rli("leak-master")
        server.lrc.add_rli("leak-master-bloom-twin", bloom=True)  # unreachable
        started = set(threading.enumerate()) - before
        roles = {t.name.split("-leak")[0] for t in started}
        assert {"rli-expire", "lrc-updates"} <= roles
        assert "obs-profiler" in {t.name for t in started}

        written = [0, 0, 0, 0]
        halt = threading.Event()

        def writer(slot: int) -> None:
            client = connect_tcp_server(*server.tcp_address)
            try:
                while not halt.is_set():
                    client.create(f"leak-{slot}-{written[slot]}", "pfn")
                    written[slot] += 1
            except Exception:  # noqa: BLE001 - the server went away, as intended
                pass
            finally:
                client.close()

        writers = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in writers:
            thread.start()
        try:
            assert wait_until(lambda: min(written) >= 20)
            assert wait_until(lambda: mirror.lrc.lfn_count() > 0)
            server.stop()  # raises if a task's thread did not exit
        finally:
            halt.set()
            for thread in writers:
                thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in writers)
        mirror.stop()
        assert wait_until(
            lambda: not (set(threading.enumerate()) - before - set(writers)),
            timeout=2.0,
        ), sorted(t.name for t in set(threading.enumerate()) - before)
        assert server._tasks == {}

    def test_start_after_a_stuck_stop_keeps_the_held_thread(self, make_server):
        """A task ``stop()`` could not join stays the server's: a restart
        must not replace the handle and lose the thread."""
        import threading

        from repro.obs.periodic import Periodic

        server = make_server(ServerRole.RLI, expire_interval=0.01)
        entered, release = threading.Event(), threading.Event()
        server.rli.expire_once = lambda: (entered.set(), release.wait(10.0))
        server.start()
        task = server._tasks["expire"]
        task.stop = lambda: Periodic.stop(task, 0.05)  # do not wait 5 s
        try:
            assert entered.wait(5.0)
            with pytest.raises(RuntimeError, match="expire"):
                server.stop()
            server.start()
            assert server._tasks["expire"] is task
        finally:
            release.set()
        server.stop()
        assert server._tasks == {}
        assert task.name not in {t.name for t in threading.enumerate()}

"""The one periodic background task.

This is the lifecycle contract every daemon in the tree used to restate in
its own ``start``/``_loop``/``stop`` (update scheduler, RLI expiry,
hierarchy forwarder, profiler, SLI recorder): what
they *do* on a tick is tested where they live, driven directly; what the
loop around it guarantees is tested here, once.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.periodic import Periodic
from repro.obs.profile import current_role, registered_threads


def wait_until(predicate, timeout=5.0, interval=0.005) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_calls_fn_every_interval_on_a_named_daemon_thread():
    seen = []
    task = Periodic(
        "t-periodic", 0.01, lambda: seen.append(threading.current_thread()),
        role="test",
    ).start()
    try:
        assert wait_until(lambda: len(seen) >= 3)
    finally:
        assert task.stop()
    assert {t.name for t in seen} == {"t-periodic"}
    assert all(t.daemon for t in seen)
    assert len({t.ident for t in seen}) == 1


def test_start_twice_is_a_noop():
    task = Periodic("t-twice", 10.0, lambda: None, role="test")
    assert not task.running
    task.start()
    first = task._thread
    task.start()
    assert task._thread is first and task.running
    assert task.stop()
    assert sum(t.name == "t-twice" for t in threading.enumerate()) == 0


def test_stop_is_idempotent_and_joins():
    task = Periodic("t-stop", 10.0, lambda: None, role="test")
    assert task.stop()  # never started: nothing to join
    task.start()
    thread = task._thread
    assert task.stop()  # wakes the 10 s wait, joins
    assert not thread.is_alive() and not task.running
    assert task.stop()  # again: no raise


def test_can_be_started_again_after_stop():
    calls = []
    task = Periodic("t-again", 0.01, lambda: calls.append(1), role="test")
    task.start()
    assert wait_until(lambda: calls)
    assert task.stop()
    seen = len(calls)
    task.start()
    try:
        assert wait_until(lambda: len(calls) > seen)
    finally:
        assert task.stop()


def test_survives_and_counts_an_exception():
    metrics = MetricsRegistry()
    reported = []
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] <= 2:
            raise RuntimeError(f"boom {calls['n']}")

    task = Periodic(
        "t-errors", 0.01, flaky, role="test",
        on_error=reported.append, metrics=metrics,
    ).start()
    try:
        assert wait_until(lambda: calls["n"] >= 4)  # ran on after raising
    finally:
        assert task.stop()
    assert task.errors == 2
    assert task.last_error == "RuntimeError: boom 2"
    assert [str(exc) for exc in reported] == ["boom 1", "boom 2"]
    counters = metrics.snapshot().counters
    assert counters["obs.selfcheck.task_errors{task=test}"] == 2


def test_a_raising_error_reporter_cannot_kill_the_task():
    calls = {"n": 0}

    def always_raises():
        calls["n"] += 1
        raise ValueError("fn")

    def bad_reporter(exc):
        raise KeyError("reporter")

    task = Periodic(
        "t-reporter", 0.01, always_raises, role="test", on_error=bad_reporter
    ).start()
    try:
        assert wait_until(lambda: calls["n"] >= 3)
    finally:
        assert task.stop()
    assert task.errors >= 2 * 3  # fn's failure and the reporter's, each time


def test_role_registered_while_running_and_unregistered_after():
    idents = []
    task = Periodic(
        "t-role", 0.01, lambda: idents.append(threading.get_ident()),
        role="periodic-role-test",
    ).start()
    try:
        assert wait_until(lambda: idents)
        assert current_role(idents[0]) == "periodic-role-test"
    finally:
        assert task.stop()
    assert idents[0] not in registered_threads()


def test_stop_reports_a_thread_that_did_not_exit_and_keeps_it():
    release = threading.Event()
    entered = threading.Event()

    def stuck():
        entered.set()
        release.wait(10.0)

    task = Periodic("t-stuck", 0.01, stuck, role="test").start()
    assert entered.wait(5.0)
    thread = task._thread
    try:
        assert task.stop(timeout=0.05) is False  # visible, not dropped
        assert task.running and task._thread is thread
        task.start()  # no second thread beside the stuck one
        assert task._thread is thread
        assert sum(t.name == "t-stuck" for t in threading.enumerate()) == 1
    finally:
        release.set()
    assert task.stop() is True  # the handle was kept: joined now
    assert not thread.is_alive()


def test_rejects_a_non_positive_interval():
    with pytest.raises(ValueError):
        Periodic("t-bad", 0.0, lambda: None, role="test")


class TestHoldersCountWhatTheySwallow:
    """The profiler keeps its public ``start()``/``stop()`` and delegates
    the loop: a failing pass used to be swallowed uncounted, now it is on
    ``.task``."""

    class FailsAfter:
        """A callable that works ``ok`` times, then raises forever."""

        def __init__(self, ok, result):
            self.ok = ok
            self.result = result
            self.calls = 0

        def __call__(self, *args):
            self.calls += 1
            if self.calls > self.ok:
                raise OSError("source went away")
            return self.result() if callable(self.result) else self.result

    @staticmethod
    def run_until_counted(holder):
        holder.start()
        try:
            assert wait_until(lambda: holder.task.errors >= 2)
            assert holder.task._thread.is_alive()  # and it keeps going
        finally:
            assert holder.stop() is True
        assert holder.task.last_error == "OSError: source went away"
        assert not holder.task.running

    def test_profiler(self):
        from repro.obs.profile import SamplingProfiler

        metrics = MetricsRegistry()
        profiler = SamplingProfiler(
            hz=200.0, frames=self.FailsAfter(0, None), metrics=metrics
        )
        self.run_until_counted(profiler)
        counters = metrics.snapshot().counters
        assert counters["obs.selfcheck.task_errors{task=profiler}"] >= 2

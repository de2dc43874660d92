"""The one periodic background task: "call ``fn`` every ``interval``
seconds until told to stop", for every scheduler, sweeper and sampler in
this tree.  An exception raised by ``fn`` never ends the task and is never
silent, the thread carries a profiler role, ``start()`` twice is one
thread, and ``stop()`` joins and says so when the thread did not exit.

There is deliberately no clock in here (DESIGN.md §5, decision 10): what a
task does on a tick is a plain method that tests drive directly under
their own fake clock; the loop only decides *when* real time calls it.
``run_once()`` is one tick, error accounting included, so the simulator's
virtual-time loop runs a task exactly as the thread does.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY


class Periodic:
    """Calls ``fn()`` every ``interval`` seconds on a daemon thread."""

    def __init__(
        self,
        name: str,
        interval: float,
        fn: Callable[[], Any],
        role: str,
        on_error: Callable[[BaseException], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.name = name
        self.interval = interval
        self.fn = fn
        self.role = role
        self.on_error = on_error
        #: Exceptions that escaped ``fn`` (the task keeps running).
        self.errors = 0
        self.last_error: str | None = None
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_errors = registry.counter("obs.selfcheck.task_errors", task=role)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        """True from ``start()`` until a ``stop()`` that saw the thread exit."""
        return self._thread is not None

    def start(self) -> "Periodic":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name=self.name, daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        # Imported here: the profiler module is itself a Periodic holder.
        from repro.obs.profile import register_thread, unregister_thread

        register_thread(self.role)
        try:
            while not self._stop.wait(self.interval):
                self.run_once()
        finally:
            unregister_thread()

    def run_once(self) -> None:
        """One tick: call ``fn``, counting an exception instead of raising."""
        try:
            self.fn()
        except Exception as exc:
            self._record_error(exc)

    def _record_error(self, exc: Exception) -> None:
        self.errors += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        self._m_errors.inc()
        if self.on_error is not None:
            try:
                self.on_error(exc)
            except Exception:
                self.errors += 1  # a failing reporter is one more failure

    def stop(self, timeout: float = 5.0) -> bool:
        """Signal the loop, join the thread; ``False`` if it is still alive.

        A thread that outlives ``timeout`` (``fn`` is stuck) stays the
        task's thread: ``running`` remains true, ``start()`` will not put a
        second one beside it, and a later ``stop()`` joins it again.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                return False
            self._thread = None
        return True

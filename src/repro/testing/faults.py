"""Scriptable failure schedules and flaky transport/sink wrappers.

A :class:`FailureSchedule` is a deterministic script of which operations
fail: ``FailureSchedule.pattern("FF.")`` fails the first two attempts and
lets every later one through — exactly the "RLI failing 2 of 3 pushes"
scenario the acceptance tests replay.  Wrappers consume one schedule slot
per operation and raise :class:`FaultInjected` (a ``ConnectionError``, so
the retry layer classifies it as transient) on scheduled failures.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

from repro.net.messages import Request, Response
from repro.net.transport import Channel


class FaultInjected(ConnectionError):
    """The scripted failure raised by flaky wrappers.

    Subclasses ``ConnectionError`` so production retry/health logic treats
    injected faults exactly like real transport failures.
    """


class FailureSchedule:
    """A deterministic script of per-operation failures.

    ``outcomes[i]`` decides operation ``i`` (True = fail); operations past
    the end of the script use ``default`` (False = succeed).  Thread-safe:
    concurrent callers each consume a distinct slot.
    """

    def __init__(
        self, outcomes: Sequence[bool] = (), default: bool = False
    ) -> None:
        self.outcomes = list(outcomes)
        self.default = default
        self.calls = 0
        self.failures = 0
        self._lock = threading.Lock()

    @classmethod
    def pattern(cls, text: str, default: bool = False) -> "FailureSchedule":
        """Build from a compact script: ``F`` fails, ``.`` (or ``S``) succeeds."""
        return cls([ch in "Ff" for ch in text], default=default)

    @classmethod
    def fail_first(cls, n: int) -> "FailureSchedule":
        """Fail the first ``n`` operations, then succeed forever."""
        return cls([True] * n)

    @classmethod
    def always(cls) -> "FailureSchedule":
        """Every operation fails (a dead target)."""
        return cls(default=True)

    def next_outcome(self) -> bool:
        """Consume one slot; True means this operation must fail."""
        with self._lock:
            index = self.calls
            self.calls += 1
            fail = (
                self.outcomes[index]
                if index < len(self.outcomes)
                else self.default
            )
            if fail:
                self.failures += 1
            return fail

    def check(self, what: str = "operation") -> None:
        """Consume one slot, raising :class:`FaultInjected` on failure."""
        if self.next_outcome():
            raise FaultInjected(f"injected fault: {what} #{self.calls - 1}")


class FlakyChannel(Channel):
    """A :class:`Channel` whose requests fail on schedule.

    By default a scheduled failure raises *before* the request reaches the
    inner channel (the network ate it).  ``fail_after=True`` instead
    forwards the request and then raises — the reply was lost, so the
    server state changed but the client cannot know.  Both modes matter:
    retry logic must survive either.
    """

    def __init__(
        self,
        inner: Channel,
        schedule: FailureSchedule,
        fail_after: bool = False,
        make_error: Callable[[str], BaseException] | None = None,
    ) -> None:
        self.inner = inner
        self.schedule = schedule
        self.fail_after = fail_after
        self.make_error = make_error or (lambda msg: FaultInjected(msg))
        self.requests_seen = 0

    def request(self, request: Request) -> Response:
        self.requests_seen += 1
        fail = self.schedule.next_outcome()
        if fail and not self.fail_after:
            raise self.make_error(f"request dropped: {request.method}")
        response = self.inner.request(request)
        if fail:
            raise self.make_error(f"reply lost: {request.method}")
        return response

    def close(self) -> None:
        self.inner.close()


class _FlakyPush:
    """Fault decision shared by the flaky sinks: one schedule slot per
    push; a scheduled failure drops the push before it reaches ``inner``
    unless ``fail_after=True``, which applies it and then loses the
    acknowledgement (the :class:`FlakyChannel` modes)."""

    def __init__(
        self, inner, schedule: FailureSchedule, fail_after: bool = False
    ) -> None:
        self.inner = inner
        self.schedule = schedule
        self.fail_after = fail_after

    @contextmanager
    def _slot(self, what: str):
        fail = self.schedule.next_outcome()
        if fail and not self.fail_after:
            raise FaultInjected(f"push dropped: {what}")
        yield
        if fail:
            raise FaultInjected(f"acknowledgement lost: {what}")


class FlakySink(_FlakyPush):
    """An :class:`~repro.core.updates.UpdateSink` wrapper failing on schedule.

    Records every *delivered* update (same shape as the test suite's
    recording sinks) so assertions can distinguish "pushed and failed"
    from "pushed and landed".  One schedule slot is consumed per push,
    whatever its flavour.
    """

    def __init__(self, inner, schedule, fail_after: bool = False) -> None:
        super().__init__(inner, schedule, fail_after)
        self.full: list[tuple] = []
        self.incremental: list[tuple] = []
        self.bloom: list[tuple] = []

    def full_update(self, lrc_name, lfns) -> None:
        with self._slot("full_update"):
            self.inner.full_update(lrc_name, lfns)
            self.full.append((lrc_name, list(lfns)))

    def incremental_update(self, lrc_name, added, removed) -> None:
        with self._slot("incremental_update"):
            self.inner.incremental_update(lrc_name, added, removed)
            self.incremental.append((lrc_name, list(added), list(removed)))

    def bloom_update(
        self, lrc_name, bitmap, num_bits, num_hashes, approx_entries
    ) -> None:
        with self._slot("bloom_update"):
            self.inner.bloom_update(
                lrc_name, bitmap, num_bits, num_hashes, approx_entries
            )
            self.bloom.append((lrc_name, num_bits, num_hashes, approx_entries))


class FlakyMirrorSink(_FlakyPush):
    """The :class:`~repro.cluster.mirror.MirrorSink` face of
    :class:`FlakySink`: delivered ships land in ``ships`` as (master,
    after, data, applied LSN)."""

    def __init__(self, inner, schedule, fail_after: bool = False) -> None:
        super().__init__(inner, schedule, fail_after)
        self.ships: list[tuple] = []

    def ship(self, master, after, data) -> int:
        with self._slot("ship"):
            applied = self.inner.ship(master, after, data)
            self.ships.append((master, after, data, applied))
        return applied


class NullSink:
    """A sink that accepts and discards everything (for pure-failure tests)."""

    def full_update(self, lrc_name, lfns) -> None:
        pass

    def incremental_update(self, lrc_name, added, removed) -> None:
        pass

    def bloom_update(
        self, lrc_name, bitmap, num_bits, num_hashes, approx_entries
    ) -> None:
        pass

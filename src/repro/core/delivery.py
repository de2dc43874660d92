"""The soft-state delivery rule, written once (DESIGN.md §5, decision 10).

What happens to one target after one push attempt — its acknowledged log
position, needs-full escalation, ``RetryPolicy`` backoff, health metrics
and flight events — for LRC→RLI updates (:mod:`repro.core.updates`),
master→mirror log shipping (:mod:`repro.cluster.mirror`) and RLI→parent
forwarding (:mod:`repro.core.hierarchy`).  The first two read one change
feed, the write-ahead log, each target through its own
:class:`~repro.db.wal.LogReader`, and a target is owed what was logged
after its position; the hierarchy's pushes are wholesale.  Owners supply the payload
(a ``send()`` that raises on failure and returns the position the target
then holds) and keep their schedule and payload statistics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.net.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY


@dataclass
class TargetDeliveryState:
    """Per-target delivery bookkeeping: position, health and retry schedule."""

    name: str
    healthy: bool = True
    consecutive_failures: int = 0
    #: The next delivery must be a fresh full (a full failed, or the log no
    #: longer holds what follows its position).
    needs_full: bool = False
    last_error: str | None = None
    #: Clock time before which the target is not redelivered to.
    next_retry_at: float = 0.0
    #: Redelivery attempts made for this target.
    retries: int = 0
    #: Its reader of the log its feed reads (None: a feed with no log),
    #: whose position the target holds: it is owed what was logged after.
    reader: Any = None

    def to_dict(self) -> dict:
        """``backlog`` is the records logged after the reader's position
        (0 for a feed with no log)."""
        return {
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "backlog": 0 if self.reader is None else self.reader.backlog,
            "needs_full": self.needs_full,
            "last_error": self.last_error,
            "retries": self.retries,
        }


class DeliveryEngine:
    """Per-target delivery state and the rule that updates it.

    ``family`` prefixes the metric names, ``event`` the flight event kinds.
    ``stats`` (optional) is the owner's counter object, whose ``errors`` and
    ``retries`` are kept here.  ``error_kinds`` lists the push kinds with
    their own ``<family>.errors{kind=}`` series (none: one unlabelled
    counter).  ``lock`` guards all target state; owners share it so a flush
    reads their log position and the targets' in one critical section.
    ``reader`` (optional) opens the log reader each target gets when first
    seen: a target's backlog is the records it is behind.
    """

    def __init__(
        self,
        family: str,
        event: str,
        retry: RetryPolicy,
        clock: Callable[[], float],
        rng: Callable[[], float],
        metrics: MetricsRegistry | None = None,
        flight: Any = None,
        stats: Any = None,
        error_kinds: Sequence[str] = (),
        reader: Callable[[], Any] | None = None,
    ) -> None:
        self.family = family
        self.event = event
        self.retry = retry
        self.clock = clock
        self.rng = rng
        self.flight = flight
        self.stats = stats
        self.lock = threading.RLock()
        #: name -> state; read and written under ``lock``.
        self.targets: dict[str, TargetDeliveryState] = {}
        self._reader = reader
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        counter = self.metrics.counter
        self._m_errors = {
            kind: counter(f"{family}.errors", kind=kind) for kind in error_kinds
        } or counter(f"{family}.errors")
        self._m_retries = counter(f"{family}.retries")
        self.metrics.register_gauge_fn(f"{family}.retry_backlog", self.backlog)
        self.metrics.register_gauge_fn(
            f"{family}.targets_unhealthy", self.unhealthy
        )

    # -- targets ---------------------------------------------------------

    def target(self, name: str) -> TargetDeliveryState:
        """The state for ``name``, created healthy on first sight."""
        with self.lock:
            state = self.targets.get(name)
            if state is None:
                reader = self._reader and self._reader()
                state = self.targets[name] = TargetDeliveryState(name, reader=reader)
                self.metrics.register_gauge_fn(
                    f"{self.family}.target_healthy",
                    lambda: 1.0 if state.healthy else 0.0,
                    target=name,
                )
        return state

    def forget(self, name: str) -> None:
        """Drop a target that no longer exists, its health series included."""
        with self.lock:
            if self.targets.pop(name, None) is not None:
                self.metrics.unregister_gauge_fn(
                    f"{self.family}.target_healthy", target=name
                )

    def health(self) -> dict[str, dict]:
        with self.lock:
            return {n: s.to_dict() for n, s in sorted(self.targets.items())}

    def backlog(self) -> float:
        """Log records the targets are behind, summed."""
        return float(sum(h["backlog"] for h in self.health().values()))

    def unhealthy(self) -> float:
        with self.lock:
            return float(sum(not s.healthy for s in self.targets.values()))

    # -- one push attempt --------------------------------------------------

    def push(
        self,
        name: str,
        send: Callable[[], int | None],
        kind: str = "full",
        delta: bool = False,
        **detail: Any,
    ) -> Exception | None:
        """One push attempt; returns the failure, if any.  ``send()`` returns
        the log position the target then holds (None: it keeps its own).
        A full replaces the target's state wholesale, so one that fails
        leaves it owed a full; a failed delta leaves it where it was.
        A target :meth:`forget` dropped is not pushed to, nor brought back.
        ``detail`` goes into the attempt's flight event."""
        state = self.targets.get(name)
        if state is None:
            return None
        self._record(
            f"{self.event}.attempt", f"{kind}->{name}", target=name, **detail
        )
        try:
            acked = send()
        except Exception as exc:
            self._failed(state, kind, exc, needs_full=not delta)
            return exc
        with self.lock:
            if acked is not None:
                state.reader.position = acked
            if not delta:
                state.needs_full = False
            self._succeeded(state)
        return None

    # -- redelivery --------------------------------------------------------

    def ready(self) -> list[TargetDeliveryState]:
        """Targets not inside a backoff window, as of now."""
        now = self.clock()
        with self.lock:
            return [s for s in self.targets.values() if now >= s.next_retry_at]

    def due(self) -> list[TargetDeliveryState]:
        """The ready targets that are owed a delivery."""
        return [s for s in self.ready() if not s.healthy or s.needs_full]

    def redeliver(
        self,
        state: TargetDeliveryState,
        send_full: Callable[[], int | None],
        push_changes: Callable[[], Any] | None = None,
        full_kind: str = "full",
    ) -> str:
        """Deliver to one due target; returns its ``"retry:<name>"`` marker.

        A target owed a full — or one whose state is only ever replaced
        wholesale (``push_changes`` is None) — gets a full push, any other
        what was logged after its position: ``push_changes()`` makes that
        push through :meth:`push`.  Only a delivery that follows a failure
        counts as a retry: a target's first full push is just its first
        push.
        Failures re-arm the backoff; nothing raises.
        """
        if state.consecutive_failures:
            with self.lock:
                state.retries += 1
                if self.stats is not None:
                    self.stats.retries += 1
            self._m_retries.inc()
            self._record(
                f"{self.event}.retry",
                state.name,
                target=state.name,
                consecutive_failures=state.consecutive_failures,
            )
        if state.needs_full or push_changes is None:
            self.push(state.name, send_full, full_kind)
        else:
            push_changes()
        return f"retry:{state.name}"

    # -- outcomes ----------------------------------------------------------

    def _record(self, kind: str, detail: str, error: bool = False, **data) -> None:
        if self.flight is not None:
            self.flight.record(kind, detail=detail, error=error, **data)

    def _failed(
        self,
        state: TargetDeliveryState,
        kind: str,
        exc: Exception,
        needs_full: bool = False,
    ) -> None:
        name = type(exc).__name__
        self._record(
            "error",
            f"{self.event} {kind}->{state.name}: {name}",
            error=True,
            target=state.name,
        )
        with self.lock:
            state.healthy = False
            state.consecutive_failures += 1
            state.last_error = f"{name}: {exc}"
            state.needs_full = state.needs_full or needs_full
            # The attempt index is capped so a long outage plateaus at
            # backoff_max instead of overflowing the exponent.
            attempt = min(state.consecutive_failures - 1, 16)
            state.next_retry_at = self.clock() + self.retry.backoff(
                attempt, self.rng
            )
            if self.stats is not None:
                self.stats.errors += 1
        errors = self._m_errors
        (errors[kind] if isinstance(errors, dict) else errors).inc()

    def _succeeded(self, state: TargetDeliveryState) -> None:
        state.healthy = True
        state.consecutive_failures = 0
        state.last_error = None
        state.next_retry_at = 0.0

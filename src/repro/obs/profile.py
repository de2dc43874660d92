"""Wall-clock sampling profiler and thread-state introspection.

The paper measures the RLS from the outside (rates vs. client threads);
PRs 1–4 added metrics, traces and per-statement profiles.  This module
answers the remaining production question — *where is every server thread
spending its time right now?* — without requiring the workload to be
re-run under a tracing harness:

* a **thread registry** maps thread idents to named roles
  (:func:`register_thread` is called by RPC worker threads, the update
  scheduler, the RLI expiry task, …; :func:`thread_role` temporarily
  re-labels a thread for the duration of a phase such as a WAL flush);
* :class:`SamplingProfiler` walks ``sys._current_frames()`` at
  ``ServerConfig.profile_hz`` and aggregates samples into a
  :class:`StackProfile` of folded-stack counts (the FlameGraph input
  format), attributed per role;
* :meth:`SamplingProfiler.thread_dump` is the point-in-time view: every
  thread's role, current span (from the tracer), and top frames;
* a **stuck-thread detector** (:func:`detect_stuck_threads`, read by
  ``admin_threads``) fires when a thread shows the same non-idle
  top frame across ``STUCK_MIN_SAMPLES`` consecutive samples while RPC
  requests are in flight.

Everything is injectable — ``frames`` (the frame source) and ``clock`` —
so the profiler's aggregation, attribution and stuck detection are tested
deterministically with synthetic frames, no real threads involved.  The
profiler self-meters: its walk time and duty cycle land in
``obs.profiler.*`` metrics, and ``benchmarks/check_overhead.py`` gates
the duty cycle at 25 Hz and the disabled-path guard cost.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.periodic import Periodic

#: Frames whose top function is one of these are considered idle — parked
#: in a wait/IO primitive, not burning CPU.  The stuck-thread detector
#: ignores them (a worker blocked in ``recv`` between requests is normal).
IDLE_FRAME_NAMES = frozenset(
    {
        "wait",
        "accept",
        "select",
        "poll",
        "sleep",
        "recv",
        "recvfrom",
        "_recv_exact_into",
        "readinto",
        "get",
        "acquire",
        "join",
    }
)

#: Maximum frames folded per stack (deeper stacks are truncated at root).
MAX_STACK_DEPTH = 64

#: Consecutive identical non-idle top frames before a thread is "stuck".
STUCK_MIN_SAMPLES = 5


# ---------------------------------------------------------------------------
# Thread registry
# ---------------------------------------------------------------------------

_registry_lock = threading.Lock()
#: ident -> role stack (last entry is the effective role).
_thread_roles: dict[int, list[str]] = {}


def register_thread(role: str, ident: int | None = None) -> None:
    """Register the calling thread (or ``ident``) under a named role.

    Re-registering replaces the thread's base role.  Roles attribute
    profiler samples and label thread dumps; unregistered threads appear
    as ``"other"``.
    """
    if ident is None:
        ident = threading.get_ident()
    with _registry_lock:
        _thread_roles[ident] = [role]


def unregister_thread(ident: int | None = None) -> None:
    """Remove the calling thread (or ``ident``) from the registry."""
    if ident is None:
        ident = threading.get_ident()
    with _registry_lock:
        _thread_roles.pop(ident, None)


def current_role(ident: int) -> str:
    """Effective role of one thread (``"other"`` when unregistered)."""
    with _registry_lock:
        stack = _thread_roles.get(ident)
        return stack[-1] if stack else "other"


def registered_threads() -> dict[int, str]:
    """Snapshot of the registry: ident -> effective role."""
    with _registry_lock:
        return {
            ident: stack[-1] for ident, stack in _thread_roles.items() if stack
        }


class thread_role:
    """Temporarily override the calling thread's role (context manager).

    Used by phase-shaped work running on a borrowed thread — e.g. the WAL
    wraps its device sync in ``thread_role("wal.flush")`` so samples taken
    mid-flush are attributed to the flush, not to whichever RPC worker
    happened to trigger it.
    """

    __slots__ = ("role", "_ident")

    def __init__(self, role: str) -> None:
        self.role = role
        self._ident = 0

    def __enter__(self) -> "thread_role":
        self._ident = threading.get_ident()
        with _registry_lock:
            _thread_roles.setdefault(self._ident, ["other"]).append(self.role)
        return self

    def __exit__(self, *exc: object) -> None:
        with _registry_lock:
            stack = _thread_roles.get(self._ident)
            if stack and stack[-1] == self.role:
                stack.pop()
            # A thread that was never register_thread()ed reverts to
            # unregistered rather than lingering as "other".
            if stack == ["other"]:
                del _thread_roles[self._ident]


# ---------------------------------------------------------------------------
# Folded stacks
# ---------------------------------------------------------------------------


def frame_label(frame: Any) -> str:
    """``module:function`` label for one frame (FlameGraph convention)."""
    code = frame.f_code
    filename = code.co_filename
    # Trim to the module stem: ".../repro/db/wal.py" -> "wal".
    slash = max(filename.rfind("/"), filename.rfind("\\"))
    stem = filename[slash + 1 :]
    if stem.endswith(".py"):
        stem = stem[:-3]
    return f"{stem}:{code.co_name}"


def fold_stack(frame: Any, role: str, max_depth: int = MAX_STACK_DEPTH) -> str:
    """Semicolon-joined root→leaf stack, prefixed with the thread role."""
    labels: list[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        labels.append(frame_label(frame))
        frame = frame.f_back
        depth += 1
    labels.append(role)
    labels.reverse()
    return ";".join(labels)


class StackProfile:
    """Aggregated folded-stack sample counts, mergeable like a snapshot.

    ``stacks`` maps a folded stack (``role;mod:fn;mod:fn…``) to its sample
    count.  Profiles :meth:`merge` across servers and :meth:`delta`
    across time windows — the same algebra as
    :class:`~repro.obs.metrics.MetricsSnapshot` — so ``rls profile
    --seconds N`` can subtract two cumulative snapshots into a window.
    """

    __slots__ = ("stacks", "samples")

    def __init__(
        self, stacks: Mapping[str, int] | None = None, samples: int = 0
    ) -> None:
        self.stacks: dict[str, int] = dict(stacks or {})
        self.samples = samples

    def add(self, folded: str, count: int = 1) -> None:
        self.stacks[folded] = self.stacks.get(folded, 0) + count
        self.samples += count

    def merge(self, other: "StackProfile") -> "StackProfile":
        merged = StackProfile(self.stacks, self.samples)
        for folded, count in other.stacks.items():
            merged.stacks[folded] = merged.stacks.get(folded, 0) + count
        merged.samples += other.samples
        return merged

    def delta(self, earlier: "StackProfile") -> "StackProfile":
        """Samples accumulated since ``earlier`` (clamped at zero)."""
        out = StackProfile()
        for folded, count in self.stacks.items():
            diff = count - earlier.stacks.get(folded, 0)
            if diff > 0:
                out.stacks[folded] = diff
                out.samples += diff
        return out

    def by_role(self) -> dict[str, int]:
        """Sample counts aggregated by the role prefix of each stack."""
        roles: dict[str, int] = {}
        for folded, count in self.stacks.items():
            role = folded.split(";", 1)[0]
            roles[role] = roles.get(role, 0) + count
        return roles

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` hottest stacks, most-sampled first."""
        ranked = sorted(self.stacks.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def render_folded(self) -> str:
        """FlameGraph input: one ``stack count`` line per folded stack."""
        return "\n".join(
            f"{folded} {count}" for folded, count in sorted(self.stacks.items())
        )

    def to_dict(self) -> dict[str, Any]:
        return {"stacks": dict(self.stacks), "samples": self.samples}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StackProfile":
        return cls(
            {str(k): int(v) for k, v in data.get("stacks", {}).items()},
            samples=int(data.get("samples", 0)),
        )

    def __len__(self) -> int:
        return len(self.stacks)

    def __bool__(self) -> bool:
        return bool(self.stacks)


# ---------------------------------------------------------------------------
# Stuck-thread detection
# ---------------------------------------------------------------------------


@dataclass
class Detection:
    """One detected pathology, plain data for RPC replies."""

    kind: str
    summary: str
    severity: str = "warning"
    start: float = 0.0
    end: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "summary": self.summary,
            "severity": self.severity,
            "start": self.start,
            "end": self.end,
            "details": dict(self.details),
        }


def detect_stuck_threads(
    threads: Sequence[dict[str, Any]],
    min_samples: int = STUCK_MIN_SAMPLES,
    inflight: float = 0.0,
) -> list[Detection]:
    """Fire for threads pinned on one non-idle frame while work is queued.

    ``threads`` is the profiler's per-thread run bookkeeping
    (:meth:`SamplingProfiler.thread_states`): dicts
    with ``role``, ``top_frame``, ``consecutive`` (identical top-frame
    samples in a row) and ``idle``.  A thread parked in a wait primitive
    is never stuck, and with ``inflight == 0`` nothing fires — an idle
    server legitimately shows unchanging stacks.
    """
    if inflight <= 0:
        return []
    detections: list[Detection] = []
    for state in threads:
        if state.get("idle"):
            continue
        run = int(state.get("consecutive", 0))
        if run < min_samples:
            continue
        role = state.get("role", "other")
        top = state.get("top_frame", "?")
        detections.append(
            Detection(
                kind="stuck_thread",
                severity="critical" if run >= 2 * min_samples else "warning",
                summary=(
                    f"thread role={role} pinned on {top} for {run} "
                    f"consecutive samples with {inflight:g} requests in flight"
                ),
                details={
                    "ident": state.get("ident"),
                    "role": role,
                    "top_frame": top,
                    "consecutive": run,
                    "inflight": inflight,
                },
            )
        )
    return detections


# ---------------------------------------------------------------------------
# The sampling profiler
# ---------------------------------------------------------------------------


class SamplingProfiler:
    """Background wall-clock sampler over ``sys._current_frames()``.

    Parameters
    ----------
    hz:
        Sampling rate; ``0`` (the default) disables the background thread
        entirely, so a server with ``profile_hz=0`` pays only an
        ``enabled`` attribute check (gated by ``check_overhead.py``).
    frames:
        Injectable frame source returning ``{ident: frame}``.  Tests pass
        synthetic frames to reproduce exact folded-stack counts without
        real threads.
    clock:
        Injectable monotonic clock for duty-cycle accounting.
    metrics:
        Registry for ``obs.profiler.*`` self-metering (samples taken,
        walk latency, duty cycle).
    inflight:
        Zero-argument callable returning the number of RPC requests
        currently in handlers; the stuck-thread detector only fires while
        this is positive.
    """

    def __init__(
        self,
        hz: float = 0.0,
        frames: Callable[[], Mapping[int, Any]] = sys._current_frames,
        clock: Callable[[], float] = time.perf_counter,
        metrics: MetricsRegistry | None = None,
        inflight: Callable[[], float] | None = None,
        max_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        if hz < 0:
            raise ValueError("hz must be non-negative")
        self.hz = hz
        self.frames = frames
        self.clock = clock
        self.inflight = inflight
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._profile = StackProfile()
        #: ident -> (top frame label, consecutive identical samples, idle).
        self._top_runs: dict[int, tuple[str, int, bool]] = {}
        registry = metrics if metrics is not None else NULL_REGISTRY
        #: The sampling loop (none at hz=0); a torn frame snapshot is
        #: counted on it and the next tick retries.
        self.task: Periodic | None = None
        if hz > 0:
            self.task = Periodic(
                "obs-profiler", 1.0 / hz, self.sample_once,
                role="profiler", metrics=registry,
            )
        self._m_samples = registry.counter("obs.profiler.samples")
        self._m_walk = registry.histogram("obs.profiler.walk_latency")
        self._m_duty = registry.gauge("obs.profiler.duty_cycle")
        self.last_walk_seconds = 0.0

    @property
    def enabled(self) -> bool:
        """True when configured to sample (``hz > 0``)."""
        return self.hz > 0

    @property
    def interval(self) -> float:
        return 1.0 / self.hz if self.hz > 0 else 0.0

    # -- sampling --------------------------------------------------------

    def sample_once(self) -> int:
        """Walk every thread's stack once; returns threads sampled.

        Synchronous and side-effect-complete: the background loop is just
        this on a timer, so deterministic tests drive it directly.
        """
        start = self.clock()
        own = threading.get_ident()
        snapshot = self.frames()
        sampled = 0
        with self._lock:
            for ident, frame in snapshot.items():
                if ident == own or frame is None:
                    continue
                role = current_role(ident)
                self._profile.add(fold_stack(frame, role, self.max_depth))
                top = frame_label(frame)
                prev = self._top_runs.get(ident)
                run = prev[1] + 1 if prev is not None and prev[0] == top else 1
                self._top_runs[ident] = (
                    top,
                    run,
                    frame.f_code.co_name in IDLE_FRAME_NAMES,
                )
                sampled += 1
            # Threads that exited since the last sample drop out of the
            # stuck-run bookkeeping.
            for ident in list(self._top_runs):
                if ident not in snapshot:
                    del self._top_runs[ident]
        walk = self.clock() - start
        self.last_walk_seconds = walk
        self._m_samples.inc(sampled)
        if not self._m_walk.noop:
            self._m_walk.observe(walk)
        if self.hz > 0:
            self._m_duty.set(min(1.0, walk * self.hz))
        return sampled

    def profile(self) -> StackProfile:
        """Copy of the cumulative profile accumulated so far."""
        with self._lock:
            return StackProfile(self._profile.stacks, self._profile.samples)

    def reset(self) -> None:
        with self._lock:
            self._profile = StackProfile()
            self._top_runs.clear()

    # -- thread-state introspection --------------------------------------

    def thread_dump(self, tracer: Any = None, top: int = 8) -> list[dict]:
        """Point-in-time dump: role, current span and top frames per thread.

        ``tracer`` defaults to the installed process-wide tracer; span
        context comes from its per-thread active-span map, so a dump taken
        from the admin RPC sees what *other* threads are doing.
        """
        if tracer is None:
            from repro.obs import tracing

            tracer = tracing.current_tracer()
        names = {t.ident: t.name for t in threading.enumerate()}
        own = threading.get_ident()
        dump: list[dict] = []
        with self._lock:
            runs = dict(self._top_runs)
        for ident, frame in sorted(self.frames().items()):
            if frame is None:
                continue
            labels: list[str] = []
            cursor = frame
            while cursor is not None and len(labels) < top:
                labels.append(frame_label(cursor))
                cursor = cursor.f_back
            context = (
                tracer.context_for_thread(ident) if tracer is not None else None
            )
            run = runs.get(ident)
            dump.append(
                {
                    "ident": ident,
                    "name": names.get(ident, ""),
                    "role": "profiler" if ident == own else current_role(ident),
                    "frames": labels,
                    "trace_id": context[0] if context else None,
                    "span_id": context[1] if context else None,
                    "idle": frame.f_code.co_name in IDLE_FRAME_NAMES,
                    "consecutive_top": run[1] if run else 0,
                }
            )
        return dump

    def thread_states(self) -> list[dict]:
        """Per-thread stuck-run bookkeeping, detector-input shaped."""
        with self._lock:
            runs = dict(self._top_runs)
        return [
            {
                "ident": ident,
                "role": current_role(ident),
                "top_frame": top,
                "consecutive": run,
                "idle": idle,
            }
            for ident, (top, run, idle) in sorted(runs.items())
        ]

    def detections(self) -> list[Detection]:
        """Stuck-thread detections from the accumulated sample runs."""
        inflight = float(self.inflight()) if self.inflight is not None else 0.0
        return detect_stuck_threads(self.thread_states(), inflight=inflight)

    # -- background operation --------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Sample every ``1/hz`` seconds on a daemon thread."""
        if self.task is None:
            raise ValueError("cannot start a profiler with hz=0")
        self.task.start()
        return self

    def stop(self) -> bool:
        return self.task is None or self.task.stop()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- exposure --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """``admin_profile`` payload (wire-safe)."""
        profile = self.profile()
        return {
            "enabled": self.enabled,
            "hz": self.hz,
            "samples": profile.samples,
            "duty_cycle": self._m_duty.value,
            "roles": profile.by_role(),
            "profile": profile.to_dict(),
        }

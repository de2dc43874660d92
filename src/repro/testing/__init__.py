"""Fault injection for tests, experiments, and the simulator.

One shared vocabulary of failure modes: a scriptable
:class:`FailureSchedule` decides *when* to fail, and the
:class:`FlakyChannel` / :class:`FlakySink` / :class:`FlakyMirrorSink`
wrappers decide *where* — the RPC transport, the soft-state update path
or a mirror feed.  Unit tests, the
integration suite, and :mod:`repro.sim.rls_sim` experiments all drive
the same schedules, so a failure shape proven in a fast unit test is the
same shape the simulator replays over hours of virtual time.
"""

from repro.testing.faults import (
    FailureSchedule,
    FaultInjected,
    FlakyChannel,
    FlakyMirrorSink,
    FlakySink,
)

__all__ = [
    "FailureSchedule",
    "FaultInjected",
    "FlakyChannel",
    "FlakyMirrorSink",
    "FlakySink",
]

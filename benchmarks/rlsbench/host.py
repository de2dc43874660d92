"""What the benchmark does about the machine it runs on.

The reference machine is a two-core virtual machine on a shared host,
and two things about it decide the numbers more than the program does
(the measurements are in README.md, "Noise findings"):

* When both virtual CPUs go idle between a request and its reply, the
  hypervisor takes them away and a wake-up costs tens of microseconds —
  or milliseconds when the host is busy.  Whether that happens flips
  between runs, moving a 220 us round trip by 25% and, on a busy host, by
  10x.  :class:`KeepAwake` keeps one idle-priority spinner on every CPU,
  so the CPUs never halt and a woken thread preempts the spinner at once.
* Neighbours take CPU time away (``steal`` in ``/proc/stat``).  It is
  recorded around every segment so a disturbed run can be seen for what
  it is.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")

_SPIN = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = int(sys.argv[2])
while os.getppid() == parent:  # ends with the benchmark, however it ends
    for _ in range(200000):
        pass
"""


class KeepAwake:
    """One lowest-priority busy loop per CPU for the duration of a run."""

    def __init__(self) -> None:
        self._spinners: list[subprocess.Popen] = []

    def __enter__(self) -> "KeepAwake":
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._spinners.append(subprocess.Popen(
                    [sys.executable, "-c", _SPIN, str(cpu), str(os.getpid())]
                ))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        for proc in self._spinners:
            proc.kill()
        for proc in self._spinners:
            proc.wait()
        self._spinners = []


def steal_seconds() -> float:
    """CPU time the hypervisor gave to someone else, summed over CPUs."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / _CLK_TCK


def calibrate() -> float:
    """A fixed pure-Python loop, in microseconds: a slow machine shows
    here before it shows anywhere else."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i & 0xFF
    return (time.perf_counter() - start) * 1e6

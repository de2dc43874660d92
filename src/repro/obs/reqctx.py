"""The per-request telemetry record (thread-local while its handler runs).

The RPC dispatcher creates one :class:`RequestCosts` per request, the
*only* telemetry object it has: the dispatcher fills in who and what,
deep subsystems — the SQL profiler, the WAL — charge costs to it while
the handler runs, the dispatcher stamps the outcome and publishes the
record to the server's observers (``docs/OBSERVABILITY.md``).

While the handler runs the record is the thread's *current* one, so the
charging sites need no context argument:

* **Bare paths stay bare.**  Code that merely *might* run under a
  request (``WriteAheadLog.log``, ``QueryProfiler.record``) guards with
  a single ``current()`` call — one thread-local attribute read — and
  pays nothing else when no record is active (embedded engines, tests,
  background threads).
* **Nesting is safe.**  A record remembers the one it displaced and
  ``deactivate`` restores it, so a handler that locally re-enters the
  RPC layer (e.g. the combined client inside a server process) never
  corrupts its caller's attribution.
* **No locking.**  The record is thread-local by construction;
  transports run one request per connection thread at a time.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Callable

_tls = threading.local()

#: Draws the next number of the process-wide order of telemetry events: a
#: request is stamped when its record is made and when it ends, the flight
#: recorder stamps each event it records, and a ring is read back in order.
stamp = itertools.count(1).__next__

#: Stable principal for unauthenticated or unmapped connections.
ANONYMOUS_PRINCIPAL = "anonymous"
#: Bounded label for requests naming a method the server doesn't have.
#: Using the client-supplied name would let a hostile or typo'd client
#: mint unbounded ``rpc.errors{method=...}`` label cardinality.
UNKNOWN_METHOD_LABEL = "<unknown>"


@dataclass(slots=True, eq=False)
class RequestCosts:
    """Everything telemetry knows about one request."""

    method: str  #: bounded label: the method's name, or ``<unknown>``
    op_class: str | None  #: SLO operation class; ``None`` for admin/internal
    principal: str = ANONYMOUS_PRINCIPAL  #: the connection's accounting label
    args: InitVar[tuple] = ()
    #: Time spent decoded but unserviced (batch items behind their
    #: predecessors in the frame).
    queue_wait: float = 0.0
    lfn: str | None = None  #: the sampled LFN argument, see below
    span: tuple[str, str] | None = None  #: rpc.handle ``(trace_id, span_id)``
    start: float = field(default_factory=time.perf_counter)
    end: float = 0.0
    #: :data:`stamp` drawn when the record was made, and when it ended
    #: (0 until then).
    seq: int = field(default_factory=stamp)
    end_seq: int = 0
    rows_examined: int = 0  #: charged by the statement profiler
    wal_bytes: int = 0  #: charged by the WAL
    #: Outcome: ``None`` for a value, else the error's type name and text.
    error: str | None = None
    message: str = ""
    enclosing: RequestCosts | None = None  #: the record this one displaced

    def __post_init__(self, args: tuple) -> None:
        # Namespace heat: sample the LFN argument of classified calls
        # (add/query/wildcard lead with the name; bulk payloads are
        # lists and are skipped rather than walked on the hot path).
        if self.op_class is not None and args and type(args[0]) is str:
            self.lfn = args[0]


def describe(method: str, op_class: str | None) -> Callable[..., RequestCosts]:
    """What every record of one method shares — its bounded label and op
    class — bound once; returns the factory for that method's records,
    called with ``(principal, args, queue_wait)``."""
    return partial(RequestCosts, method, op_class)


def activate(record: RequestCosts) -> RequestCosts:
    """Make ``record`` the current thread's; pair with :func:`deactivate`
    (in a ``finally``) to restore the one it displaced."""
    record.enclosing = getattr(_tls, "ctx", None)
    _tls.ctx = record
    return record


def deactivate() -> None:
    """Remove the active record, restoring any enclosing one."""
    _tls.ctx = _tls.ctx.enclosing


def current() -> RequestCosts | None:
    """The active record, or ``None`` outside any request."""
    return getattr(_tls, "ctx", None)

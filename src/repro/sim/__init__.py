"""Discrete-event simulation substrate.

The paper's soft-state update experiments ran on a 100 Mb/s LAN and on a
Los Angeles → Chicago WAN path (63.8 ms mean RTT).  Neither testbed is
available here, so these experiments run on a deterministic discrete-event
simulator: a virtual clock (:mod:`repro.sim.kernel`), FIFO resources for
serialized RLI ingest (:mod:`repro.sim.resources`), a processor-sharing
bandwidth link with a TCP window throughput cap (:mod:`repro.sim.network`),
and the experiment models themselves (:mod:`repro.sim.models`).

Real compute costs that *are* measurable on this machine (Bloom filter
generation/compression times) are measured for real and fed into the
models — see :mod:`repro.sim.models`.  The deployment experiments of
:mod:`repro.sim.rls_sim` run the real catalog, update manager and index
on the virtual clock; only the wire between them is modelled.
"""

from repro.sim.kernel import Process, Simulator, Timeout
from repro.sim.resources import Resource
from repro.sim.network import SharedLink, NetworkPath
from repro.sim.rls_sim import (
    RecoveryResult,
    StalenessResult,
    recovery_experiment,
    staleness_experiment,
)

__all__ = [
    "NetworkPath",
    "Process",
    "RecoveryResult",
    "Resource",
    "SharedLink",
    "Simulator",
    "StalenessResult",
    "Timeout",
    "recovery_experiment",
    "staleness_experiment",
]

"""Network models: processor-sharing links and TCP-capped paths.

Two effects dominate the paper's wide-area numbers:

* the shared bottleneck link — concurrent soft-state updates divide the
  available bandwidth (processor sharing), which is why 6 LRCs pushing
  full updates to one RLI take ~6x longer each (Figure 12);
* the TCP window / RTT throughput cap — on the 63.8 ms LA→Chicago path a
  single TCP stream with an early-2000s 64 KiB window moves only ~8 Mb/s
  regardless of the 100 Mb/s link, which is why one 5 M-entry Bloom filter
  (≈50 Mb) takes ~6.5 s (Table 3, Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import Event, Simulator


class SharedLink:
    """A link whose bandwidth is fairly shared by concurrent transfers.

    Implements ideal processor sharing with an optional per-flow rate cap
    (the TCP window limit).  Each transfer is an :class:`Event` that
    triggers when its last byte clears the link.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        per_flow_cap_bps: float | None = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.per_flow_cap_bps = per_flow_cap_bps
        self._flows: dict[int, _Flow] = {}
        self._next_flow_id = 0
        self._last_update = 0.0
        self._wakeup_generation = 0
        self.bytes_carried = 0.0
        self.completed_transfers = 0

    # -- public API --------------------------------------------------------

    def transfer(self, size_bytes: float) -> Event:
        """Start a transfer of ``size_bytes``; returns its completion event."""
        if size_bytes < 0:
            raise ValueError("negative transfer size")
        self._advance()
        event = Event(self.sim)
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        self._flows[flow_id] = _Flow(
            remaining_bits=size_bytes * 8.0, event=event
        )
        self.bytes_carried += size_bytes
        if size_bytes == 0:
            self._complete(flow_id)
        else:
            self._reschedule()
        return event

    def current_rate_per_flow(self) -> float:
        """Bits/s each active flow currently receives."""
        n = len(self._flows)
        if n == 0:
            return 0.0
        share = self.bandwidth_bps / n
        if self.per_flow_cap_bps is not None:
            share = min(share, self.per_flow_cap_bps)
        return share

    # -- internals -----------------------------------------------------------

    def _advance(self) -> None:
        """Charge elapsed time against every active flow."""
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        rate = self.current_rate_per_flow()
        drained = rate * elapsed
        for flow in self._flows.values():
            flow.remaining_bits = max(0.0, flow.remaining_bits - drained)

    def _reschedule(self) -> None:
        """Schedule a wakeup at the next flow completion time."""
        self._wakeup_generation += 1
        generation = self._wakeup_generation
        if not self._flows:
            return
        rate = self.current_rate_per_flow()
        min_remaining = min(f.remaining_bits for f in self._flows.values())
        delay = min_remaining / rate if rate > 0 else float("inf")

        def wakeup() -> None:
            if generation != self._wakeup_generation:
                return  # superseded by a newer flow arrival/departure
            self._advance()
            # Complete flows with less than half a bit left: below the
            # resolution of any real transfer, and guards against float
            # residues scheduling wakeup delays smaller than the clock's
            # ulp (which would stall virtual time).
            finished = [
                fid
                for fid, flow in self._flows.items()
                if flow.remaining_bits <= 0.5
            ]
            for fid in finished:
                self._complete(fid)
            self._reschedule()

        self.sim.schedule(delay, wakeup)

    def _complete(self, flow_id: int) -> None:
        flow = self._flows.pop(flow_id)
        self.completed_transfers += 1
        flow.event.succeed()


@dataclass
class _Flow:
    remaining_bits: float
    event: Event


@dataclass(frozen=True)
class NetworkPath:
    """End-to-end path parameters between an LRC site and an RLI site."""

    rtt: float  # seconds, round-trip
    link: SharedLink

    def send(self, size_bytes: float):
        """Process generator: propagate + transfer ``size_bytes``.

        Models one request/transfer exchange: half an RTT of propagation
        for the first byte, then the (shared, capped) bulk transfer, then
        half an RTT for the acknowledgement — adding up to one full RTT of
        fixed cost per update, matching a blocking RPC over TCP.
        """
        sim = self.link.sim
        yield sim.timeout(self.rtt / 2.0)
        yield self.link.transfer(size_bytes)
        yield sim.timeout(self.rtt / 2.0)


def tcp_window_cap_bps(window_bytes: float, rtt: float) -> float:
    """Classic TCP throughput bound: one window per round trip."""
    if rtt <= 0:
        return float("inf")
    return window_bytes * 8.0 / rtt


def lan_path(sim: Simulator, bandwidth_bps: float = 100e6, rtt: float = 0.2e-3) -> NetworkPath:
    """The paper's 100 Mb/s Ethernet LAN (sub-millisecond RTT)."""
    return NetworkPath(rtt=rtt, link=SharedLink(sim, bandwidth_bps))


def wan_path(
    sim: Simulator,
    bandwidth_bps: float = 100e6,
    rtt: float = 0.0638,
    tcp_window_bytes: float = 64 * 1024,
) -> NetworkPath:
    """The paper's LA→Chicago WAN path: 63.8 ms mean RTT, TCP-window capped."""
    cap = tcp_window_cap_bps(tcp_window_bytes, rtt)
    return NetworkPath(rtt=rtt, link=SharedLink(sim, bandwidth_bps, per_flow_cap_bps=cap))

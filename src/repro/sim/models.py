"""Simulation models of the paper's soft-state update experiments.

These models replace the paper's physical testbed (LAN cluster, LA→Chicago
WAN path) with the discrete-event kernel, while keeping every quantity
that the experiments actually vary — update sizes, link bandwidth, RTT,
number of concurrent LRCs, serialized RLI ingest — explicit and calibrated:

* **LAN / uncompressed (Figure 12).**  An uncompressed update ships the
  LRC's full logical-name list and the RLI inserts each entry into its
  relational store behind an exclusive latch.  Calibration: the paper
  measures 831 s for one 1 M-entry update on an idle RLI ⇒ an ingest rate
  of ~1200 entries/s, which we adopt.  With k LRCs updating continuously
  the latch serializes them and per-update time grows ~k× — the paper's
  5102 s for 6 LRCs.
* **WAN / Bloom (Table 3, Figure 13).**  A Bloom update ships the packed
  bitmap (10 bits/mapping) over the WAN path; a single TCP stream on a
  63.8 ms RTT with an era-appropriate 64 KiB window is capped at ~8.2 Mb/s,
  which alone reproduces Table 3's 1.67 s (1 M) and 6.8 s (5 M) update
  times.  Filter *generation* time is a real measured cost of our Bloom
  code, not a simulation constant.  Continuous updates from many clients
  additionally contend on the shared link and on serialized RLI filter
  ingest (Figure 13's rise past ~7 clients).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.bloom import BloomFilter, BloomParameters
from repro.sim.kernel import Simulator
from repro.sim.network import NetworkPath, SharedLink, tcp_window_cap_bps
from repro.sim.resources import Resource


@dataclass
class LANCalibration:
    """Constants for the Figure 12 (uncompressed, LAN) experiment."""

    bandwidth_bps: float = 100e6  # 100 Mb/s Ethernet
    rtt: float = 0.2e-3
    #: Wire bytes per logical name in an uncompressed update (name + framing).
    bytes_per_entry: float = 80.0
    #: RLI relational ingest rate, entries/s (831 s per 1M entries, §5.5).
    rli_ingest_entries_per_sec: float = 1_000_000 / 831.0


@dataclass
class WANCalibration:
    """Constants for the Table 3 / Figure 13 (Bloom, WAN) experiments."""

    bandwidth_bps: float = 100e6
    rtt: float = 0.0638  # LA -> Chicago mean RTT (§5.5)
    tcp_window_bytes: float = 64 * 1024
    bloom_bits_per_entry: int = 10
    #: RLI-side cost to receive+install one filter, seconds per MiB.
    #: Calibrated from Figure 13 via the interactive response-time law:
    #: at saturation R = N*S, and the paper's 14 clients / 11.5 s mean
    #: update time gives S ≈ 0.82 s per 5M-entry (5.96 MiB) filter.
    ingest_seconds_per_mib: float = 0.1375
    #: Relative jitter (±fraction, seeded) on ingest service times.  A
    #: deterministic closed loop self-synchronizes into a D/D/1 system with
    #: zero queueing; the real server's service-time variability is what
    #: produces the contention the paper sees past ~7 clients (§5.5).
    service_jitter: float = 0.5
    jitter_seed: int = 20040607


@dataclass
class UpdateTimesResult:
    """Per-client mean update times from a continuous-update simulation."""

    num_lrcs: int
    entries_per_lrc: int
    mean_update_time: float
    per_update_times: list[float] = field(repr=False, default_factory=list)
    update_bytes: float = 0.0


def push(path: NetworkPath, ingest: Resource, size: float, service: float):
    """Process generator for one soft-state push: send ``size`` bytes over
    ``path``, then hold the RLI's serialized ``ingest`` for ``service``
    seconds.  The figure models and :mod:`repro.sim.rls_sim` both charge
    a push this way."""
    sim = path.link.sim
    yield sim.process(path.send(size))
    yield ingest.acquire()
    try:
        yield sim.timeout(service)
    finally:
        ingest.release()


def _run_continuous_updates(
    sim: Simulator,
    path: NetworkPath,
    ingest: Resource,
    num_clients: int,
    update_bytes: float,
    ingest_service_time: float,
    rounds: int,
    service_jitter: float = 0.0,
    jitter_seed: int = 0,
) -> list[float]:
    """Clients send updates back-to-back; returns steady-state durations.

    "Each LRC sends wide area ... updates continuously (i.e., a new update
    begins as soon as the previous update completes)" (§5.5).  The first
    round is warm-up (clients start synchronized, which is unrealistically
    pessimal); later rounds reflect steady state.  ``service_jitter``
    spreads ingest times uniformly by ±fraction with a fixed seed, so runs
    stay exactly reproducible.
    """
    import random

    rng = random.Random(jitter_seed)
    durations: list[float] = []

    def client() -> object:
        for round_no in range(rounds):
            start = sim.now
            service = ingest_service_time
            if service_jitter > 0:
                service *= 1.0 + service_jitter * (2.0 * rng.random() - 1.0)
            yield sim.process(push(path, ingest, update_bytes, service))
            if round_no > 0:  # skip the synchronized-start warm-up round
                durations.append(sim.now - start)

    processes = [sim.process(client()) for _ in range(num_clients)]
    sim.run(sim.all_of(processes))
    return durations


def uncompressed_update_times(
    entries_per_lrc: int,
    num_lrcs: int,
    rounds: int = 3,
    calib: LANCalibration | None = None,
) -> UpdateTimesResult:
    """Figure 12 model: full uncompressed updates to one RLI over the LAN."""
    calib = calib or LANCalibration()
    sim = Simulator()
    path = NetworkPath(rtt=calib.rtt, link=SharedLink(sim, calib.bandwidth_bps))
    ingest = Resource(sim, capacity=1)  # exclusive relational-store latch
    update_bytes = entries_per_lrc * calib.bytes_per_entry
    service = entries_per_lrc / calib.rli_ingest_entries_per_sec
    durations = _run_continuous_updates(
        sim, path, ingest, num_lrcs, update_bytes, service, rounds
    )
    return UpdateTimesResult(
        num_lrcs=num_lrcs,
        entries_per_lrc=entries_per_lrc,
        mean_update_time=sum(durations) / len(durations),
        per_update_times=durations,
        update_bytes=update_bytes,
    )


def bloom_filter_size_bits(entries: int, bits_per_entry: int = 10) -> int:
    """Paper sizing: ~10 bits per LRC mapping (Table 3 column 4)."""
    return BloomParameters.for_entries(entries, bits_per_entry).num_bits


def bloom_update_times_wan(
    entries_per_lrc: int,
    num_clients: int,
    rounds: int = 10,
    calib: WANCalibration | None = None,
) -> UpdateTimesResult:
    """Figure 13 model: continuous Bloom updates over the WAN."""
    calib = calib or WANCalibration()
    sim = Simulator()
    cap = tcp_window_cap_bps(calib.tcp_window_bytes, calib.rtt)
    path = NetworkPath(
        rtt=calib.rtt,
        link=SharedLink(sim, calib.bandwidth_bps, per_flow_cap_bps=cap),
    )
    ingest = Resource(sim, capacity=1)
    update_bytes = bloom_filter_size_bits(
        entries_per_lrc, calib.bloom_bits_per_entry
    ) / 8.0
    service = (update_bytes / (1024 * 1024)) * calib.ingest_seconds_per_mib
    durations = _run_continuous_updates(
        sim,
        path,
        ingest,
        num_clients,
        update_bytes,
        service,
        rounds,
        service_jitter=calib.service_jitter,
        jitter_seed=calib.jitter_seed,
    )
    return UpdateTimesResult(
        num_lrcs=num_clients,
        entries_per_lrc=entries_per_lrc,
        mean_update_time=sum(durations) / len(durations),
        per_update_times=durations,
        update_bytes=update_bytes,
    )


@dataclass
class BloomUpdateRow:
    """One row of Table 3."""

    entries: int
    update_time: float  # simulated WAN soft-state update, single client
    generation_time: float  # REAL measured filter build on this machine
    filter_bits: int


def bloom_table3_row(
    entries: int,
    measure_generation: bool = True,
    generation_sample: int | None = None,
    calib: WANCalibration | None = None,
) -> BloomUpdateRow:
    """Compute one Table 3 row.

    ``generation_time`` builds a real filter over ``entries`` names (or a
    ``generation_sample`` subset, linearly extrapolated, to keep huge rows
    affordable); ``update_time`` is the simulated single-client WAN push.
    """
    calib = calib or WANCalibration()
    result = bloom_update_times_wan(entries, num_clients=1, rounds=2, calib=calib)
    generation_time = float("nan")
    if measure_generation:
        sample = min(entries, generation_sample or entries)
        params = BloomParameters.for_entries(entries, calib.bloom_bits_per_entry)
        names = (f"lfn{i:09d}" for i in range(sample))
        start = time.perf_counter()
        BloomFilter.from_names(names, params)
        measured = time.perf_counter() - start
        generation_time = measured * (entries / sample)
    return BloomUpdateRow(
        entries=entries,
        update_time=result.mean_update_time,
        generation_time=generation_time,
        filter_bits=bloom_filter_size_bits(entries, calib.bloom_bits_per_entry),
    )

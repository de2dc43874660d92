"""Sharded-cluster simulation in virtual time.

Models the cluster subsystem's queueing claims on the deterministic
simulation kernel, free of wall-clock noise:

* **Scale-out** — each shard master (and each mirror) is one
  single-server queue (:class:`~repro.sim.resources.Resource` with a
  fixed service time, the §6 saturation model); clients hash queries onto
  shards and prefer mirrors, so aggregate throughput grows with the
  endpoint count until client concurrency is exhausted.
* **SLO burn under faults** — a :class:`~repro.testing.faults.FailureSchedule`
  can fail queries against one shard (each failed query still consumes
  its service time — the server did the work, then errored).  A per-shard
  :class:`~repro.obs.slo.SLITracker` runs on the *virtual* clock, and the
  multi-window alerts firing at the end of the run land in
  ``result.slo_alerts``.

Mirror staleness is not modelled: real mirrors replay their master's log,
and :class:`~repro.cluster.mirror.MirrorIngest` gauges the age as
``mirror.staleness_age``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.ring import HashRing
from repro.obs.slo import SLITracker
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.testing.faults import FailureSchedule


@dataclass
class ClusterResult:
    """Outcome of one :func:`cluster_experiment` run."""

    shards: int
    mirrors_per_shard: int
    duration: float
    queries_completed: int
    #: Queries served by a mirror vs the shard master.
    mirror_served: int
    master_served: int
    #: Mean time a query spent queued+in service.
    mean_latency: float
    #: Queries that consumed service time but failed (injected faults).
    queries_failed: int = 0
    #: Multi-window burn-rate alerts firing at end of run, per shard.
    slo_alerts: list[dict] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.queries_completed / self.duration if self.duration else 0.0


def cluster_experiment(
    num_shards: int,
    mirrors_per_shard: int = 0,
    num_clients: int = 32,
    service_time: float = 0.005,
    duration: float = 300.0,
    faults: FailureSchedule | None = None,
    fault_shard: str | None = None,
    fault_after: float = 0.0,
    sli_sample_every: float = 15.0,
    seed: int = 7,
) -> ClusterResult:
    """Drive closed-loop clients against a simulated sharded cluster.

    ``num_clients`` closed-loop clients each issue one query at a time:
    hash an LFN onto its owning shard, queue on the least-loaded mirror of
    that shard (the master when no mirror is up), and think 0 s between
    queries — so endpoint capacity is the only limiter, as in Figure 6's
    saturated region.

    ``faults`` fails queries on schedule once ``sim.now >= fault_after``
    (restricted to ``fault_shard`` when given; failed queries still
    occupy the endpoint for their full service time so a dying shard does
    not magically free capacity).  Per-shard SLI trackers sample every
    ``sli_sample_every`` virtual seconds; the alerts firing at end of run
    land in ``result.slo_alerts``.
    """
    sim = Simulator()
    rng = random.Random(seed)
    shards = tuple(f"shard{i}" for i in range(num_shards))
    ring = HashRing(shards)
    masters = {s: Resource(sim, capacity=1) for s in shards}
    mirrors = {
        s: [Resource(sim, capacity=1) for _ in range(mirrors_per_shard)]
        for s in shards
    }
    result = ClusterResult(
        shards=num_shards,
        mirrors_per_shard=mirrors_per_shard,
        duration=duration,
        queries_completed=0,
        mirror_served=0,
        master_served=0,
        mean_latency=0.0,
    )
    latency_total = 0.0

    # --- per-shard SLIs on the virtual clock ---
    if fault_shard is not None and fault_shard not in masters:
        raise ValueError(f"unknown shard {fault_shard!r}")
    trackers = {s: SLITracker() for s in shards}
    window_counts = {s: [0, 0] for s in shards}  # [requests, errors]

    def sli_sampler():
        while True:
            yield sim.timeout(sli_sample_every)
            for shard in shards:
                requests, errors = window_counts[shard]
                window_counts[shard] = [0, 0]
                trackers[shard].record(sim.now, requests, errors)

    sim.process(sli_sampler())

    # --- closed-loop query clients ---
    def client_proc():
        nonlocal latency_total
        while True:
            lfn = f"lfn-{rng.randrange(1_000_000)}"
            shard = ring.owner(lfn)
            candidates = mirrors[shard]
            if candidates:
                # Least-queued mirror: the combined client's per-client
                # shuffle approximates this spread in expectation.
                resource = min(candidates, key=lambda r: r.queue_length)
                served_by_mirror = True
            else:
                resource = masters[shard]
                served_by_mirror = False
            fail = (
                faults is not None
                and sim.now >= fault_after
                and (fault_shard is None or shard == fault_shard)
                and faults.next_outcome()
            )
            start = sim.now
            # A failed query still holds the endpoint for its service
            # time — the server did the work, then errored.
            yield resource.use(service_time)
            latency_total += sim.now - start
            window_counts[shard][0] += 1
            if fail:
                window_counts[shard][1] += 1
                result.queries_failed += 1
                continue
            result.queries_completed += 1
            if served_by_mirror:
                result.mirror_served += 1
            else:
                result.master_served += 1

    for _ in range(num_clients):
        sim.process(client_proc())
    sim.run(until=duration)
    if result.queries_completed or result.queries_failed:
        completed = result.queries_completed + result.queries_failed
        result.mean_latency = latency_total / completed
    for shard in shards:
        for alert in trackers[shard].alerts(sim.now):
            alert["shard"] = shard
            alert["class"] = "query"
            result.slo_alerts.append(alert)
    return result

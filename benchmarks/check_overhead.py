"""Assert that disabled instrumentation and background telemetry are cheap.

The first budget is ``MAX_OVERHEAD_FRACTION`` of an add: every hot path
carries metric and tracing hooks; with no registry and no tracer installed
those hooks degenerate into attribute checks and no-op method calls.
Quantified on the tightest loop in the system — LRC adds against an
in-memory engine — against the measured per-add time.  The disabled query
profiler, the disabled sampler and partition routing are held to the same
share, and the sampling profiler to the same duty cycle of one core.

What ships switched on is priced where it runs, in absolute time: request
telemetry on ``RPCServer.handle`` (``MAX_TELEMETRY_SECONDS``) and the
statement profiler on one ``get_mappings`` against a 20 000-name catalog
(``MAX_PROFILED_QUERY_SECONDS``), beside a printed reading of the whole
``lrc_get_mappings`` request with shipping defaults and with them off.

Two more gates are ratios rather than shares of an add, both with shipping
defaults: an ``rli_query`` that raises ``MappingNotFoundError`` may cost at
most ``MAX_MISS_TO_HIT_RATIO`` times one that hits, at ``RPCServer.handle``;
and three request threads must complete at least ``MIN_THREAD_SCALING`` of
the ``rli_query`` rate one thread does (the paper's Fig. 10 is flat across
clients; request threads that share a telemetry lock are not).

The last gate is about size, not time on the request path: a loaded
catalog may cost at most ``MAX_BYTES_PER_MAPPING`` of heap per mapping, and
a full garbage collection (it holds the GIL, so it stops every connection)
may spend on the catalog at most ``MAX_GC_SHARE`` of what it spends on the
12 containers per mapping the catalog held when every index key owned a
``set`` and every row was a ``list``.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/check_overhead.py

Every gate runs and prints ``OK:`` or ``FAIL:``; the exit status is 1 when
any gate failed.

The comparisons are deterministic by construction: rather than racing two
separately-timed loops (noisy on shared CI runners), each measures unit
costs in isolation and compares the products.
"""

from __future__ import annotations

import sys
import time

from repro.core.lrc import LocalReplicaCatalog
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.obs import tracing
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: Disabled instrumentation must cost less than this fraction of an add.
MAX_OVERHEAD_FRACTION = 0.05

#: Cap, in seconds, on the codec round trip, paid once per RPC.  It was
#: gated at 5% of the bare LRC add when that add cost ~320 us; prepared
#: plans made the add ~3x cheaper without touching the codec, so the budget
#: is kept as the absolute time it was — a share of the new add would
#: either fail unchanged code or, with the share rescaled, let a 3x
#: regression pass.
MAX_PER_REQUEST_SECONDS = 0.05 * 320e-6

#: Cap on request telemetry (flight recorder + usage accounting, measured
#: on ``RPCServer.handle`` of a no-op handler): the reading plus a third.
#: 10.6-11.1 us as inlined call sites, 7.9-8.4 us as observers of two
#: moments that each built ``FlightEvent``s, 1.7-2.2 us now that a finished
#: request is one ``deque.append`` and one shard update — 3 us when a
#: neighbouring container is busy, which is the reading the third is on.
MAX_TELEMETRY_SECONDS = 4.0e-6

#: Cap on what the statement profiler (on by default) adds to one
#: ``lrc.get_mappings`` — one three-way join — on a 20 000-name catalog:
#: the reading plus a third.  8.6-9.2 us when every operator built an
#: ``OpStats`` and every statement a ``QueryLogEntry``; 6.0-6.6 us with flat
#: actuals and the entry built on read (7.5 with a busy neighbour).
MAX_PROFILED_QUERY_SECONDS = 8.5e-6

#: Upper bound on no-op hook invocations per lrc.add_mapping call:
#: counter incs (LRC + WAL + queue gauge), tracing.active() checks in the
#: engine/WAL, the RPC-layer latency ``noop`` test, plus the query-level
#: observability hooks — per statement a cache hit/miss counter inc and a
#: ``profiler.enabled`` check, per latch/WAL-lock acquisition a histogram
#: ``noop`` check (an add touches t_lfn/t_pfn/t_map several times), and
#: the request-context ``getattr`` probes on the WAL/profiler paths
#: (``reqctx.current`` costs one thread-local getattr when no request
#: record is active).
#: Counted generously; overestimating only makes the check stricter.
HOOKS_PER_ADD = 44

ADDS = 3_000
NOOP_CALLS = 200_000


def time_adds(n: int) -> float:
    """Seconds per add on a bare LRC with no registry installed."""
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    lrc = LocalReplicaCatalog(Connection(engine, "ovh"), name="ovh")
    lrc.init_schema()
    lfns = [f"ovh-{i}" for i in range(n)]
    start = time.perf_counter()
    for lfn in lfns:
        lrc.create_mapping(lfn, f"pfn://{lfn}")
    return (time.perf_counter() - start) / n


def time_noop_hook(n: int) -> float:
    """Seconds per disabled-instrumentation hook invocation."""
    counter = NULL_REGISTRY.counter("x")
    histogram = NULL_REGISTRY.histogram("y")
    active = tracing.active
    start = time.perf_counter()
    for _ in range(n):
        counter.inc()
        if not histogram.noop:
            histogram.observe(0.0)
        if active():
            pass
    return (time.perf_counter() - start) / (3 * n)


def count_profiler_guards() -> tuple[int, int]:
    """``(statements, latch acquisitions)`` of the add :func:`time_adds`
    times, a ``create_mapping`` of a fresh LFN and PFN, counted on the
    write path as it is: statements from the engine's own
    ``db.statements`` counter, acquisitions by wrapping
    ``TimedLatch.__enter__`` (table latches and the WAL lock).  Each is
    one disabled-profiler guard: a ``profiler.enabled`` check per
    statement, a TimedLatch enter/exit per acquisition.  (A create on a
    shared PFN and ``add_mapping`` make more of both and cost
    correspondingly more than the add priced here.)
    """
    from repro.db.profiler import TimedLatch
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0, metrics=registry)
    engine.profiler.configure(enabled=True)  # db.statements counts when profiling
    lrc = LocalReplicaCatalog(Connection(engine, "guards"), name="guards")
    lrc.init_schema()
    lrc.create_mapping("guards-warm", "pfn://guards-warm")  # plans prepared

    def statements() -> int:
        counters = registry.snapshot().counters
        return sum(v for k, v in counters.items() if k.startswith("db.statements{"))

    acquisitions = 0
    enter = TimedLatch.__enter__

    def counting_enter(latch):
        nonlocal acquisitions
        acquisitions += 1
        return enter(latch)

    before = statements()
    TimedLatch.__enter__ = counting_enter
    try:
        lrc.create_mapping("guards-new", "pfn://guards-new")
    finally:
        TimedLatch.__enter__ = enter
    return statements() - before, acquisitions


def time_profiler_guard(n: int) -> float:
    """Seconds per disabled query-profiler guard.

    The query-observability layer's whole disabled-path cost is (a) the
    ``profiler.enabled`` attribute check in ``Database.execute`` and (b)
    a :class:`TimedLatch` acquire/release around a no-op histogram;
    measure one of each per iteration, in isolation.
    """
    from repro.db.profiler import QueryProfiler, TimedLatch

    profiler = QueryProfiler()
    assert not profiler.enabled, "profiler must default to disabled"
    latch = TimedLatch()
    start = time.perf_counter()
    for _ in range(n):
        if profiler.enabled:
            pass
        with latch:
            pass
    return (time.perf_counter() - start) / (2 * n)


TELEMETRY_CALLS = 5_000
TELEMETRY_ROUNDS = 7


def time_request_telemetry(calls: int) -> tuple[float, float]:
    """Seconds per ``RPCServer.handle`` of a no-op handler: (with the
    shipping observers subscribed, with none).

    The observers are the ones ``RLSServer`` subscribes by default — a
    256-event flight recorder and a usage accountant on a live registry —
    and the request is a classified one with an LFN argument, so both
    sketches are offered to.  Their cost is the difference; each side is
    the fastest of ``TELEMETRY_ROUNDS`` rounds, which a burst from a
    neighbouring container cannot lower.
    """
    from repro.net.messages import PROTOCOL_VERSION, Hello, Request
    from repro.net.rpc import RPCServer
    from repro.obs.flight import FlightRecorder
    from repro.obs.usage import UsageAccountant

    requests = [
        Request("lrc_get_mappings", (f"/grid/data/f{i % 100:03d}",))
        for i in range(calls)
    ]
    perf_counter = time.perf_counter
    handlers = []
    for observed in (True, False):
        registry = MetricsRegistry()
        observers = (
            [FlightRecorder(capacity=256), UsageAccountant(metrics=registry)]
            if observed
            else []
        )
        server = RPCServer(metrics=registry, observers=observers)
        server.register("lrc_get_mappings", lambda ctx, args: None, op_class="query")
        ctx = server.handshake(Hello(version=PROTOCOL_VERSION), peer="check_overhead")
        handlers.append((server.handle, ctx))
    best = [float("inf"), float("inf")]
    for _ in range(TELEMETRY_ROUNDS):  # interleaved: both see the same box
        for n, (handle, ctx) in enumerate(handlers):
            start = perf_counter()
            for request in requests:
                handle(ctx, request)
            best[n] = min(best[n], (perf_counter() - start) / calls)
    return best[0], best[1]


QUERY_NAMES = 20_000
QUERY_CALLS = 4_000
QUERY_ROUNDS = 7


def time_lrc_query_layers() -> tuple[float, float, float, float]:
    """Seconds per ``lrc_get_mappings`` on a ``QUERY_NAMES``-name catalog:
    (``RPCServer.handle`` with shipping defaults, the same with query
    profiling, flight recording and usage accounting off, ``get_mappings``
    itself profiled, and unprofiled).

    Rounds of the four are interleaved in one process and the fastest of
    each kept: this box drifts by +-15 % between processes, which is more
    than the profiler costs.
    """
    from repro.core.config import ServerConfig, ServerRole
    from repro.core.server import RLSServer
    from repro.net.messages import PROTOCOL_VERSION, Hello, Request

    off = dict(profile_queries=False, flight_capacity=0, usage_accounting=False)
    servers = [
        RLSServer(ServerConfig(
            name=f"overhead-query-{label}", role=ServerRole.LRC, sync_latency=0.0,
            **fields,
        ))
        for label, fields in (("on", {}), ("off", off))
    ]
    try:
        lfns = [f"lfn://overhead/run{i % 7}/f{i:06d}" for i in range(QUERY_NAMES)]
        for server in servers:
            server.lrc.bulk_load([(lfn, f"pfn://site/{lfn[6:]}") for lfn in lfns])
        asked = [lfns[(i * 7919) % QUERY_NAMES] for i in range(QUERY_CALLS)]
        requests = [Request("lrc_get_mappings", (lfn,), id=n) for n, lfn in enumerate(asked)]
        profiler = servers[0].engine.profiler
        get_mappings = servers[0].lrc.get_mappings

        def handled(server):
            ctx = server.rpc.handshake(Hello(version=PROTOCOL_VERSION), peer="check")
            handle = server.rpc.handle
            return lambda: [handle(ctx, request) for request in requests]

        def queried(profiled):
            def run():
                profiler.enabled = profiled
                try:
                    for lfn in asked:
                        get_mappings(lfn)
                finally:
                    profiler.enabled = True
            return run

        runs = [handled(servers[0]), handled(servers[1]), queried(True), queried(False)]
        best = [float("inf")] * len(runs)
        for _ in range(QUERY_ROUNDS):
            for n, run in enumerate(runs):
                start = time.perf_counter()
                run()
                best[n] = min(best[n], (time.perf_counter() - start) / QUERY_CALLS)
    finally:
        for server in servers:
            server.stop()
    return best[0], best[1], best[2], best[3]


#: Three in-process client threads against one: the Fig. 10 shape (flat
#: or rising from 1 to 10 clients) in its smallest form.  Python threads
#: share one interpreter lock, so 1.0 is the ceiling; what pulls the
#: ratio down is request threads queueing on a lock of their own — the
#: flight ring's and the usage accountant's read 0.28-0.48 here before
#: those became lock-free per-thread writes (0.74-1.06 after).  A ratio
#: inside one process on one box, not a wall-clock threshold.
MIN_THREAD_SCALING = 0.6
SCALING_NAMES = 2_000
SCALING_CALLS = 6_000
SCALING_TRIALS = 6


def measure_thread_scaling(trials: int) -> tuple[float, float, float]:
    """``rli_query`` on a one-filter Bloom RLI through the in-process
    transport, shipping defaults: (median 3-thread / 1-thread ratio over
    ``trials`` back-to-back pairs, median 1-thread rate, median 3-thread
    rate)."""
    from statistics import median

    from repro.workload.driver import LoadDriver
    from repro.workload.scenarios import loaded_rli_server_bloom

    server, lfns = loaded_rli_server_bloom(
        SCALING_NAMES, num_filters=1, name="overhead-scaling"
    )
    operation = LoadDriver.rli_query_op(lfns)

    def rate(threads: int) -> float:
        result = LoadDriver(
            server_name=server.config.name,
            clients=1,
            threads_per_client=threads,
            total_operations=SCALING_CALLS,
        ).run(operation)
        assert not result.errors
        return result.rate

    try:
        rate(1)  # warm-up
        pairs = [(rate(1), rate(3)) for _ in range(trials)]
    finally:
        server.stop()
    return (
        median(three / one for one, three in pairs),
        median(one for one, _ in pairs),
        median(three for _, three in pairs),
    )


CODEC_ROUNDS = 3_000
#: Requests per batch frame in the codec gate (matches the pipelined
#: hot path: UpdateManager chunks and CombinedClient scatters).
CODEC_BATCH = 16


def time_codec_roundtrip(rounds: int) -> float:
    """Seconds per request for a full wire round trip through the codec.

    Encodes a pipelined batch of representative requests into a reused
    frame buffer, decodes it back, then does the same for the response
    batch — the exact per-request serialization work a busy server
    connection performs.  This must stay a small fraction of the add it
    transports, or the RPC layer eats the gains of request batching.
    """
    from repro.net.messages import (
        Batch,
        Request,
        Response,
        encode_message_into,
        message_from_bytes,
    )

    requests = Batch(
        tuple(
            Request(
                "lrc_add_mapping",
                (f"lfn-{i:06d}", f"pfn://host.example/path/{i:06d}"),
                None,
                i + 1,
            )
            for i in range(CODEC_BATCH)
        )
    )
    responses = Batch(
        tuple(Response(True, None, "", "", i + 1) for i in range(CODEC_BATCH))
    )
    buf = bytearray()
    encode_message_into(buf, requests)
    req_frame = bytes(buf)
    buf.clear()
    encode_message_into(buf, responses)
    resp_frame = bytes(buf)
    message_from_bytes(req_frame)  # priming pass
    start = time.perf_counter()
    for _ in range(rounds):
        buf.clear()
        encode_message_into(buf, requests)
        message_from_bytes(req_frame)
        buf.clear()
        encode_message_into(buf, responses)
        message_from_bytes(resp_frame)
    return (time.perf_counter() - start) / (rounds * CODEC_BATCH)


SAMPLE_ROUNDS = 200

#: The wall-clock sampler gate runs at this rate (the documented
#: "diagnostics on" setting from docs/OPERATIONS.md).
SAMPLER_HZ = 25.0


def time_sampler_walk(rounds: int) -> tuple[float, int]:
    """(Seconds per frame-walk pass, threads walked) at a realistic
    thread population.

    Spins up a handful of registered busy threads so the sampler walks
    stacks comparable to a live server (RPC workers + updater + RLI
    expiry), then times ``sample_once`` in isolation.  Duty cycle is the
    product walk_time x SAMPLER_HZ, the same figure the profiler
    self-reports as ``obs.profiler.duty_cycle``.
    """
    from repro.obs.profile import SamplingProfiler, register_thread
    import threading

    stop = threading.Event()

    def busy(role: str) -> None:
        register_thread(role)
        x = 0
        while not stop.is_set():
            x += 1

    threads = [
        threading.Thread(target=busy, args=("rpc.worker",), daemon=True)
        for _ in range(4)
    ]
    threads += [
        threading.Thread(target=busy, args=("updates",), daemon=True),
        threading.Thread(target=busy, args=("expire",), daemon=True),
    ]
    for t in threads:
        t.start()
    profiler = SamplingProfiler(hz=SAMPLER_HZ)
    try:
        profiler.sample_once()  # priming pass
        start = time.perf_counter()
        for _ in range(rounds):
            profiler.sample_once()
        elapsed = time.perf_counter() - start
    finally:
        stop.set()
        for t in threads:
            t.join()
    return elapsed / rounds, len(profiler.profile().by_role())


def time_disabled_profiler_guard(n: int) -> float:
    """Seconds per ``profiler.enabled`` check on an hz=0 sampler.

    With ``profile_hz`` left at its default of 0 the server never starts
    the sampling thread; the *entire* residual cost is this property
    check at server start plus nothing on any hot path.  Gate it anyway
    so the no-op guard can never grow teeth.
    """
    from repro.obs.profile import SamplingProfiler

    profiler = SamplingProfiler(hz=0.0)
    assert not profiler.enabled, "sampler must default to disabled"
    start = time.perf_counter()
    for _ in range(n):
        if profiler.enabled:
            pass
    return (time.perf_counter() - start) / n


#: Partition-routing population for the routing budget: a namespace split
#: across this many RLI targets, each owning this many regex patterns.
ROUTE_TARGETS = 8
ROUTE_PATTERNS = 4
ROUTE_CALLS = 50_000


def time_partition_filter(n: int) -> float:
    """Seconds per name for ``PartitionRouter.filter_names``, summed over
    every target, at realistic fan-out.

    An update filters each name it sends once per target, so this sum is
    what routing adds to each changed LFN and must stay a small fraction
    of the add that changed it.  The compiled alternation turns each
    target's work into one C-level search per name instead of k
    Python-level ``any`` probes.
    """
    from repro.core.lrc import RLITarget
    from repro.core.partition import PartitionRouter

    targets = [
        RLITarget(
            name=f"rli-{t}",
            patterns=tuple(
                rf"^site{t}/dir{p}/run[0-9]+" for p in range(ROUTE_PATTERNS)
            ),
        )
        for t in range(ROUTE_TARGETS)
    ]
    router = PartitionRouter(targets)
    # Worst case for the alternation: an LFN matching no target forces
    # every branch of every combined pattern to be tried.
    lfns = [f"elsewhere/dir{i % 10}/run{i}" for i in range(100)]
    assert router.filter_names(targets[3], ["site3/dir1/run7"])
    assert not any(router.filter_names(t, lfns) for t in targets)
    rounds = max(1, n // len(lfns))
    start = time.perf_counter()
    for _ in range(rounds):
        for target in targets:
            router.filter_names(target, lfns)
    return (time.perf_counter() - start) / (rounds * len(lfns))


#: An RLI "not found" is a normal answer (10% of ``rli_bloom_query``), so
#: the error branch of ``RPCServer.handle`` — error event, black-box
#: freeze, failure response — may not cost much more than a hit.  A ratio
#: of two medians taken in the same process, so it holds on any machine.
MAX_MISS_TO_HIT_RATIO = 1.5
MISS_HIT_FILTERS = 10  # as rlsbench's rli_bloom_query holds
MISS_HIT_NAMES = 2_000
MISS_HIT_CALLS = 2_000


def time_rli_miss_and_hit(calls: int) -> tuple[float, float]:
    """Median seconds per ``rli_query`` through ``RPCServer.handle``:
    (one that raises ``MappingNotFoundError``, one that hits).

    Shipping ``ServerConfig`` defaults (flight recorder and usage
    accounting on), a Bloom-only RLI, hits and misses interleaved after
    the flight ring has filled, so a freeze copies a full ring.
    """
    from statistics import median

    from repro.net.messages import PROTOCOL_VERSION, Hello, Request
    from repro.workload.scenarios import loaded_rli_server_bloom

    server, lfns = loaded_rli_server_bloom(
        MISS_HIT_NAMES, num_filters=MISS_HIT_FILTERS, name="overhead-rli"
    )
    try:
        ctx = server.rpc.handshake(
            Hello(version=PROTOCOL_VERSION), peer="check_overhead"
        )
        handle = server.rpc.handle
        perf_counter = time.perf_counter
        timings: dict[bool, list[float]] = {True: [], False: []}
        # The warm-up pass fills the flight ring (two events per call).
        for timed in (False, True):
            for i in range(calls):
                for name in (lfns[i % len(lfns)], f"absent/lfn-{i}"):
                    request = Request("rli_query", (name,))
                    start = perf_counter()
                    response = handle(ctx, request)
                    elapsed = perf_counter() - start
                    if timed:
                        timings[response.ok].append(elapsed)
    finally:
        server.stop()
    # A Bloom false positive turns a would-be miss into a hit; ~1% of
    # calls, which the medians ignore.
    return median(timings[False]), median(timings[True])


#: Heap bytes per loaded mapping (three rows, nine index entries), server
#: included: 860 measured; 1 180 with one-column index keys wrapped in a
#: one-element tuple, 3 280 with a set per index key and list rows.
MAX_BYTES_PER_MAPPING = 1_000
FOOTPRINT_MAPPINGS = 20_000
#: What a mapping used to put in front of the cyclic collector: nine
#: one-element sets and three row lists.  The gate builds exactly that many
#: and times a full collection over them as its yardstick, so the limit is
#: a ratio of two collections in one process, not a wall-clock number: the
#: catalog's share of a collection may be at most this fraction of the
#: yardstick's (measured 0.09-0.15, and 1.4-1.9 with the old catalog, whose
#: sets are costlier to walk than these; 0.4 is about 20 ms of pause at
#: 20 000 mappings on the box where the old catalog cost 55 ms).
OLD_SETS_PER_MAPPING, OLD_LISTS_PER_MAPPING = 9, 3
MAX_GC_SHARE = 0.4


def time_full_collection() -> float:
    """Median seconds of five full collections of the heap as it stands."""
    import gc
    from statistics import median

    pauses = []
    for _ in range(5):
        start = time.perf_counter()
        gc.collect()
        pauses.append(time.perf_counter() - start)
    return median(pauses)


def measure_catalog_footprint(mappings: int) -> tuple[float, float]:
    """``(heap bytes per mapping, catalog share of a full collection
    relative to the old representation's)`` for a loaded LRC server."""
    import tracemalloc

    from repro.workload.scenarios import loaded_lrc_server

    idle = time_full_collection()
    yardstick: list = [{i} for i in range(mappings * OLD_SETS_PER_MAPPING)]
    yardstick += [[i, "name", 1] for i in range(mappings * OLD_LISTS_PER_MAPPING)]
    with_yardstick = time_full_collection()
    del yardstick
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        server, _mappings = loaded_lrc_server(mappings, name="overhead-footprint")
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    try:
        loaded = time_full_collection()
    finally:
        server.stop()
    share = max(loaded - idle, 0.0) / (with_yardstick - idle)
    return traced / mappings, share


def _gate(failing: bool, failure: str, success: str) -> bool:
    """Print one gate's verdict; returns ``failing``.  Every gate runs,
    so one noisy reading does not hide the ones measured after it."""
    print(f"FAIL: {failure}" if failing else f"OK: {success}")
    return failing


def main() -> int:
    assert not tracing.active(), "overhead check requires no tracer installed"
    failed: list[bool] = []
    per_add = time_adds(ADDS)
    per_hook = time_noop_hook(NOOP_CALLS)
    overhead = per_hook * HOOKS_PER_ADD
    fraction = overhead / per_add
    print(f"per add:            {per_add * 1e6:8.2f} us")
    print(f"per no-op hook:     {per_hook * 1e9:8.2f} ns")
    print(f"hooks per add:      {HOOKS_PER_ADD:5d} (upper bound)")
    print(
        f"overhead per add:   {overhead * 1e6:8.3f} us "
        f"({fraction * 100:.3f}% of add; limit "
        f"{MAX_OVERHEAD_FRACTION * 100:.0f}%)"
    )
    failed.append(_gate(
        fraction >= MAX_OVERHEAD_FRACTION,
        "disabled instrumentation exceeds the overhead budget",
        "disabled instrumentation is within the overhead budget",
    ))

    # Request telemetry: every RPC publishes its record to the flight
    # recorder and the usage accountant (both on by default); what they
    # add to RPCServer.handle must stay under the per-request cap.
    observed, unobserved = time_request_telemetry(TELEMETRY_CALLS)
    per_request = observed - unobserved
    print(
        f"request telemetry:  {per_request * 1e6:8.3f} us per request "
        f"(handle {observed * 1e6:.2f} us observed, {unobserved * 1e6:.2f} us "
        f"not; limit {MAX_TELEMETRY_SECONDS * 1e6:.0f} us)"
    )
    failed.append(_gate(
        per_request >= MAX_TELEMETRY_SECONDS,
        "request telemetry exceeds the overhead budget",
        "request telemetry is within the overhead budget",
    ))

    # The same on a real request: an lrc_get_mappings against a loaded
    # catalog, with everything that ships switched on against everything
    # off, and the statement profiler's share of it on the statement.
    taxed, bare, profiled, unprofiled = time_lrc_query_layers()
    per_statement = profiled - unprofiled
    print(
        f"lrc_query handle:   {taxed * 1e6:8.2f} us with shipping defaults, "
        f"{bare * 1e6:.2f} us with profiler, flight ring and usage accounting "
        f"off ({(taxed - bare) * 1e6:.2f} us of telemetry; {QUERY_NAMES} names)"
    )
    print(
        f"statement profiler: {per_statement * 1e6:8.3f} us per get_mappings "
        f"({profiled * 1e6:.2f} us profiled, {unprofiled * 1e6:.2f} us not; "
        f"limit {MAX_PROFILED_QUERY_SECONDS * 1e6:.1f} us)"
    )
    failed.append(_gate(
        per_statement >= MAX_PROFILED_QUERY_SECONDS,
        "the statement profiler exceeds its per-statement budget",
        "the statement profiler is within its per-statement budget",
    ))

    # Query profiler: disabled by default on bare engines; its guards
    # (enabled flag + latch noop checks) get their own budget line.
    per_guard = time_profiler_guard(NOOP_CALLS)
    guard_statements, guard_latches = count_profiler_guards()
    guard_overhead = per_guard * (guard_statements + guard_latches)
    guard_fraction = guard_overhead / per_add
    print(f"per profiler guard: {per_guard * 1e9:8.2f} ns")
    print(
        f"guards per add:     {guard_statements + guard_latches:5d} "
        f"({guard_statements} statements + {guard_latches} latch "
        "acquisitions, counted on one create_mapping)"
    )
    print(
        f"profiler overhead:  {guard_overhead * 1e6:8.3f} us per add "
        f"({guard_fraction * 100:.3f}% of add; limit "
        f"{MAX_OVERHEAD_FRACTION * 100:.0f}%)"
    )
    failed.append(_gate(
        guard_fraction >= MAX_OVERHEAD_FRACTION,
        "disabled query profiler exceeds the overhead budget",
        "disabled query profiler is within the overhead budget",
    ))

    # Wall-clock sampler: at the documented diagnostics rate the frame
    # walk must leave >95% of the wall clock to the threads being walked.
    per_walk, roles = time_sampler_walk(SAMPLE_ROUNDS)
    duty = per_walk * SAMPLER_HZ
    print(f"per sampler walk:   {per_walk * 1e6:8.2f} us "
          f"({roles} roles walked)")
    print(
        f"sampler duty cycle: {duty * 100:8.3f}% at {SAMPLER_HZ:g} Hz "
        f"(limit {MAX_OVERHEAD_FRACTION * 100:.0f}%)"
    )
    failed.append(_gate(
        duty >= MAX_OVERHEAD_FRACTION,
        "sampling profiler exceeds the duty-cycle budget",
        "sampling profiler is within the duty-cycle budget",
    ))

    # Disabled sampler: profile_hz=0 must cost one attribute check at
    # startup and nothing per add — gate the guard itself against the
    # same per-add budget as the other disabled paths.
    per_enabled = time_disabled_profiler_guard(NOOP_CALLS)
    enabled_fraction = per_enabled / per_add
    print(f"disabled sampler:   {per_enabled * 1e9:8.2f} ns per guard "
          f"({enabled_fraction * 100:.4f}% of add; limit "
          f"{MAX_OVERHEAD_FRACTION * 100:.0f}%)")
    failed.append(_gate(
        enabled_fraction >= MAX_OVERHEAD_FRACTION,
        "disabled sampling profiler exceeds the overhead budget",
        "disabled sampling profiler is within the overhead budget",
    ))

    # Partition routing: each changed LFN an update sends is filtered once
    # per target; that sum must stay under the same per-add budget at
    # realistic fan-out.
    per_route = time_partition_filter(ROUTE_CALLS)
    route_fraction = per_route / per_add
    print(
        f"per routed name:    {per_route * 1e9:8.2f} ns "
        f"(filter_names over {ROUTE_TARGETS} targets x {ROUTE_PATTERNS} "
        f"patterns, no match)"
    )
    print(
        f"routing overhead:   {route_fraction * 100:8.3f}% of add "
        f"(limit {MAX_OVERHEAD_FRACTION * 100:.0f}%)"
    )
    failed.append(_gate(
        route_fraction >= MAX_OVERHEAD_FRACTION,
        "partition routing exceeds the overhead budget",
        "partition routing is within the overhead budget",
    ))

    # Pipelined codec: each request a batched connection carries costs one
    # encode+decode on each side of the wire; that round trip must stay a
    # small fraction of the add it transports or batching gains evaporate.
    per_codec = time_codec_roundtrip(CODEC_ROUNDS)
    print(
        f"per codec roundtrip:{per_codec * 1e6:8.3f} us per request "
        f"(batch of {CODEC_BATCH}, request+response; "
        f"{per_codec / per_add * 100:.3f}% of add; "
        f"limit {MAX_PER_REQUEST_SECONDS * 1e6:.0f} us)"
    )
    failed.append(_gate(
        per_codec >= MAX_PER_REQUEST_SECONDS,
        "pipelined codec exceeds the overhead budget",
        "pipelined codec is within the overhead budget",
    ))

    # RLI "not found": the handler-exception branch (error event, flight
    # freeze, failure response) against the same call answering a hit.
    per_miss, per_hit = time_rli_miss_and_hit(MISS_HIT_CALLS)
    miss_ratio = per_miss / per_hit
    print(
        f"rli_query miss/hit: {per_miss * 1e6:8.2f} / {per_hit * 1e6:.2f} us "
        f"at RPCServer.handle, shipping defaults ({miss_ratio:.2f}x; "
        f"limit {MAX_MISS_TO_HIT_RATIO}x)"
    )
    failed.append(_gate(
        miss_ratio > MAX_MISS_TO_HIT_RATIO,
        "an rli_query miss costs more than the hit-relative budget",
        "an rli_query miss costs about what a hit costs",
    ))

    # Thread scaling: request threads must not queue on telemetry.
    scaling, one_thread, three_threads = measure_thread_scaling(SCALING_TRIALS)
    print(
        f"3 threads/1 thread: {scaling:8.2f}x rli_query rate "
        f"({three_threads:.0f} / {one_thread:.0f} per s, median of "
        f"{SCALING_TRIALS} pairs; limit {MIN_THREAD_SCALING}x)"
    )
    failed.append(_gate(
        scaling < MIN_THREAD_SCALING,
        "request threads slow each other down",
        "three request threads keep pace with one",
    ))

    # Catalog footprint: bytes per mapping, and the catalog's share of a
    # stop-the-world collection against the old representation's.
    per_mapping, gc_share = measure_catalog_footprint(FOOTPRINT_MAPPINGS)
    print(
        f"catalog footprint:  {per_mapping:8.0f} bytes per mapping at "
        f"{FOOTPRINT_MAPPINGS} (limit {MAX_BYTES_PER_MAPPING}); full collection "
        f"{gc_share:.2f}x of {OLD_SETS_PER_MAPPING + OLD_LISTS_PER_MAPPING} "
        f"containers per mapping (limit {MAX_GC_SHARE}x)"
    )
    failed.append(_gate(
        per_mapping > MAX_BYTES_PER_MAPPING or gc_share > MAX_GC_SHARE,
        "a catalog entry is larger, or more visible to the collector, than budgeted",
        "a catalog entry is small and the collector does not walk it",
    ))
    if any(failed):
        print(f"{sum(failed)} of {len(failed)} gates failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

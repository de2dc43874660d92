"""Telemetry subsystem: metrics, tracing, SLOs, profiling and flight data.

The paper evaluates the RLS purely from the outside (operation rates
measured by the client harness); this package gives the reproduction the
*inside* view — where time goes within the server, database and update
pipeline:

* :mod:`repro.obs.metrics` — counters, gauges, log-bucketed latency
  histograms, and a thread-safe :class:`MetricsRegistry` whose snapshots
  merge across servers and subtract across time windows;
* :mod:`repro.obs.tracing` — :class:`Span`/:class:`Tracer` with context
  propagation through the RPC layer, plus :class:`SpanSink` tail-based
  retention (error spans and slow spans survive buffer wrap);
* :mod:`repro.obs.assemble` — :class:`TraceAssembler`, stitching span
  fragments gathered from every node of a cluster into one cross-node
  tree (explicit gap markers for missing fragments) and attributing the
  trace's wall time to critical-path segments;
* :mod:`repro.obs.slo` — per-operation-class SLIs from the metric
  stream, multi-window multi-burn-rate alerting, and error-budget
  accounting (:class:`SLITracker` / :class:`SLIRecorder`);
* :mod:`repro.obs.profile` — wall-clock :class:`SamplingProfiler` over
  ``sys._current_frames()`` folding samples into a :class:`StackProfile`,
  a thread registry (:func:`register_thread` / :class:`thread_role`)
  attributing samples to named roles, thread-state introspection and the
  stuck-thread detector (:func:`detect_stuck_threads`);
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, a bounded ring of
  typed events (RPC dispatch, update delivery, WAL flush, errors) with
  error-preferential retention and automatic black-box dumps;
* exposure surfaces wired elsewhere — the ``admin_stats``/``admin_metrics``
  /``admin_traces``/``admin_trace``/``admin_slo``/``admin_profile``
  /``admin_flight`` RPCs, ``GET /metrics`` and ``GET /admin/slo`` /
  ``GET /admin/trace/<id>`` on the HTTP gateway, and the ``rls stats`` /
  ``rls top`` / ``rls trace`` / ``rls slo`` / ``rls profile`` / ``rls
  flight`` CLI commands (``rls stats --watch`` and ``rls top`` rate two
  ``admin_metrics`` snapshots by subtraction).

Everything defaults to off: with no registry passed and no tracer
installed, instrumentation sites hit no-op singletons.  See
``docs/OBSERVABILITY.md`` for the metric-name and span taxonomy, the
stuck-thread detector, and the benchmark artifact schema.
"""

from repro.obs.assemble import (
    AssembledTrace,
    Segment,
    TraceAssembler,
    TraceSource,
    render_critical_path,
    render_trace,
    segment_kind,
    sink_source,
    tracer_source,
)
from repro.obs.flight import (
    FlightEvent,
    FlightRecorder,
)
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_REGISTRY,
    NullRegistry,
    merge_snapshots,
    metric_key,
    split_metric_key,
)
from repro.obs.profile import (
    Detection,
    SamplingProfiler,
    StackProfile,
    detect_stuck_threads,
    fold_stack,
    register_thread,
    registered_threads,
    thread_role,
    unregister_thread,
)
from repro.obs.slo import (
    DEFAULT_LATENCY_THRESHOLDS,
    OPERATION_CLASSES,
    SLIRecorder,
    SLITracker,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    SpanSink,
    Tracer,
    current_sink,
    current_tracer,
    format_tree,
    install_tracer,
    span,
    walk_tree,
)

__all__ = [
    "AssembledTrace",
    "BUCKET_BOUNDS",
    "Counter",
    "DEFAULT_LATENCY_THRESHOLDS",
    "Detection",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NullRegistry",
    "OPERATION_CLASSES",
    "SLIRecorder",
    "SLITracker",
    "SamplingProfiler",
    "Segment",
    "Span",
    "SpanSink",
    "StackProfile",
    "TraceAssembler",
    "TraceSource",
    "Tracer",
    "current_sink",
    "current_tracer",
    "detect_stuck_threads",
    "fold_stack",
    "format_tree",
    "install_tracer",
    "merge_snapshots",
    "metric_key",
    "register_thread",
    "registered_threads",
    "render_critical_path",
    "render_trace",
    "segment_kind",
    "sink_source",
    "span",
    "split_metric_key",
    "thread_role",
    "tracer_source",
    "unregister_thread",
    "walk_tree",
]

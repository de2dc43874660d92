"""RPC server and client.

The server owns a method table and an optional authenticator; the client
wraps a channel with a convenient ``call()`` that re-raises remote errors
as typed exceptions (registered via :func:`register_error_type`).

Pipelining: ``call_async()`` queues a request without waiting,
``flush()`` pushes queued requests onto the wire (one ``Batch`` frame on
a TCP connection), and ``drain()`` blocks until every outstanding
response has arrived.  ``PendingCall.result()`` yields the value (or
raises the typed error) exactly like ``call()``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.net.errors import ProtocolError, RemoteError
from repro.net.messages import Batch, Hello, Request, Response
from repro.net.retry import RetryPolicy, is_retryable, retry_call
from repro.net.transport import Channel, PendingResponse
from repro.obs import reqctx, tracing
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.reqctx import ANONYMOUS_PRINCIPAL, UNKNOWN_METHOD_LABEL, RequestCosts


@dataclass
class ConnectionContext:
    """Per-connection state created at handshake time.

    ``principal`` is the *authenticated* identity (subject DN) and feeds
    authorization checks; ``usage_principal`` is the bounded accounting
    label (gridmap local user, sanitized declared name, or
    ``anonymous``) and feeds only attribution — keeping the two separate
    means accounting can never widen or narrow what a caller may do.
    """

    peer: str
    principal: str | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    usage_principal: str = ANONYMOUS_PRINCIPAL


Handler = Callable[[ConnectionContext, tuple], Any]
Authenticator = Callable[[Hello, str], str | None]


class _RpcMetrics:
    """The observer every server has: the ``rpc.*`` series."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        # (requests, errors, latency) per method label, made when its first
        # request enters (:meth:`first`).  An unknown method is only ever
        # an error: no other series.
        self.by_method: dict[str, tuple[Any, Any, Any]] = {
            UNKNOWN_METHOD_LABEL: (
                NULL_REGISTRY.counter("rpc.requests"),
                metrics.counter("rpc.errors", method=UNKNOWN_METHOD_LABEL),
                NULL_REGISTRY.histogram("rpc.latency"),
            )
        }

    def first(self, method: str) -> None:
        """Before ``method``'s first handler runs: a registry snapshot that
        handler returns already lists its series."""
        self.by_method[method] = (
            self.metrics.counter("rpc.requests", method=method),
            self.metrics.counter("rpc.errors", method=method),
            self.metrics.histogram("rpc.latency", method=method),
        )

    def finished(self, record: RequestCosts) -> None:
        requests, errors, latency = self.by_method[record.method]
        (requests if record.error is None else errors).inc()
        latency.observe(record.end - record.start)


class RPCServer:
    """Dispatches requests to registered method handlers.

    Parameters
    ----------
    authenticator:
        Callable invoked once per connection with ``(hello, peer)``.
        Returns the authenticated principal name (or ``None`` for
        anonymous) or raises to reject the connection.  ``None`` disables
        authentication entirely — the paper's "no authentication or
        authorization" server mode.
    observers:
        Telemetry subscribers (a flight recorder, a usage accountant): each
        may define ``finished(record)`` (:meth:`handle`) and
        ``record_bytes(principal, bytes_in, bytes_out)``, once per answered
        frame.  Fenced (:meth:`_publish`): none can change a reply.  One
        that defines ``watch(in_flight)`` is handed :meth:`in_flight` here.
    """

    def __init__(
        self,
        authenticator: Authenticator | None = None,
        metrics: MetricsRegistry | None = None,
        name: str = "",
        principal_mapper: Callable[[str | None, str | None], str] | None = None,
        observers: Iterable[Any] = (),
    ) -> None:
        # Per method name: (handler, factory of its telemetry records).
        self._methods: dict[str, tuple[Handler, Callable[..., RequestCosts]]] = {}
        self._unknown = (None, reqctx.describe(UNKNOWN_METHOD_LABEL, None))
        self._authenticator = authenticator
        #: Maps ``(authenticated_dn, declared_principal)`` to the bounded
        #: accounting label (the server passes the authorizer's gridmap
        #: mapping; bare test servers fall back to the declared name).
        self._principal_mapper = principal_mapper
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: Server identity stamped as ``node=`` on every rpc.handle span,
        #: so cross-node trace assembly can attribute fragments even when
        #: several servers share one in-process tracer.
        self.name = name
        self._span_tags: dict[str, str] = {"node": name} if name else {}
        self._rpc_metrics = _RpcMetrics(self.metrics)
        # The record of every request inside :meth:`handle`, by its stamp:
        # what has not finished has been published to nobody and is read
        # here (``rpc.inflight``, the stuck-thread gate, :meth:`in_flight`).
        self._inflight: dict[int, RequestCosts] = {}
        self.metrics.register_gauge_fn("rpc.inflight", self._inflight.__len__)
        # Per moment, the (hook, observer's name) pairs in subscription order.
        self._hooks = {"finished": [], "record_bytes": []}
        for observer in (self._rpc_metrics, *observers):
            for moment, hooks in self._hooks.items():
                if hasattr(observer, moment):
                    hooks.append((getattr(observer, moment), type(observer).__name__))
            if hasattr(observer, "watch"):
                observer.watch(self.in_flight)

    @property
    def inflight(self) -> int:
        """Requests currently inside handlers (stuck-thread detector gate)."""
        return len(self._inflight)

    def in_flight(self) -> list[RequestCosts]:
        """Records of the requests now inside :meth:`handle`, oldest first."""
        return list(self._inflight.values())

    @property
    def requests_served(self) -> int:
        """Requests answered with a value: the ``rpc.requests`` counters summed."""
        return sum(r.value for r, _, _ in list(self._rpc_metrics.by_method.values()))

    @property
    def errors_returned(self) -> int:
        """Requests answered with an error: the ``rpc.errors`` counters summed."""
        return sum(e.value for _, e, _ in list(self._rpc_metrics.by_method.values()))

    def register(
        self, method: str, handler: Handler, op_class: str | None = None
    ) -> None:
        """Serve ``method``; its requests are charged to ``op_class`` (SLO
        and usage accounting), ``None`` for traffic outside the classes."""
        self._methods[method] = (handler, reqctx.describe(method, op_class))

    def methods(self) -> list[str]:
        return sorted(self._methods)

    def handshake(self, hello: Hello, peer: str) -> ConnectionContext:
        principal = None
        if self._authenticator is not None:
            principal = self._authenticator(hello, peer)
        declared = hello.principal
        if self._principal_mapper is not None:
            usage_principal = self._principal_mapper(principal, declared)
        else:
            usage_principal = declared or principal or ANONYMOUS_PRINCIPAL
        return ConnectionContext(
            peer=peer,
            principal=principal,
            attributes=dict(hello.attributes),
            usage_principal=usage_principal,
        )

    def _publish(self, moment: str, *what: Any) -> None:
        """The one observer step, fenced: an observer that raises is
        counted and changes nothing else — not the reply, the connection,
        or what the other observers are told."""
        for hook, observer in self._hooks[moment]:
            try:
                hook(*what)
            except Exception:
                self._observer_failed(observer)

    def _observer_failed(self, observer: str) -> None:
        self.metrics.counter("obs.selfcheck.observer_errors", observer=observer).inc()

    def record_bytes(self, principal: str, bytes_in: int, bytes_out: int) -> None:
        """Charge one answered frame's wire bytes (the transports' call)."""
        self._publish("record_bytes", principal, bytes_in, bytes_out)

    def handle(
        self,
        ctx: ConnectionContext,
        request: Request,
        queue_wait: float = 0.0,
    ) -> Response:
        """Dispatch one request: the only route from a decoded request to
        its handler and back.

        Its telemetry is one :class:`~repro.obs.reqctx.RequestCosts`, in
        the in-flight map while the handler runs and published
        ``finished`` once the response is computed.  ``queue_wait`` is
        the time the request sat decoded but unserviced (batch items
        behind their predecessors).
        """
        method = request.method
        handler, new_record = self._methods.get(method) or self._unknown
        record = new_record(ctx.usage_principal, request.args, queue_wait)
        if record.method not in self._rpc_metrics.by_method:
            try:
                self._rpc_metrics.first(record.method)
            except Exception:
                self._observer_failed("_RpcMetrics")
        self._inflight[record.seq] = record
        reqctx.activate(record)
        try:
            if handler is None:
                record.error = "NoSuchMethodError"
                record.message = f"unknown method {method!r}"
                return Response(False, None, record.error, record.message, request.id)
            with tracing.span(
                "rpc.handle", parent=request.trace, method=method, **self._span_tags
            ) as span:
                record.span = tracing.context()
                try:
                    value = handler(ctx, request.args)
                except BaseException as exc:
                    record.error, record.message = type(exc).__name__, str(exc)
                    span.set_error(record.error)
                    if not isinstance(exc, Exception):
                        raise  # interrupt/exit: accounted as failed, not answered
                    return Response(False, None, record.error, record.message, request.id)
                return Response(True, value, "", "", request.id)
        finally:
            reqctx.deactivate()
            record.end = time.perf_counter()
            record.end_seq = reqctx.stamp()
            try:
                self._publish("finished", record)
            finally:
                # Only now: a reader finds the record here or where its
                # observers put it, never in neither.
                del self._inflight[record.seq]

    def handle_batch(self, ctx: ConnectionContext, batch: Batch) -> Batch:
        """Dispatch a pipelined burst on the calling thread.

        The transport decoded the whole frame once; every item must be a
        :class:`Request`.  Responses come back in request order, each
        echoing its correlation id, as one :class:`Batch`.
        """
        replies = []
        arrival = time.perf_counter()
        for item in batch.items:
            if type(item) is not Request:
                raise ProtocolError("batch items must be requests")
            # Queue wait: a batch item's dwell time behind its
            # predecessors in the same frame (0 for the first item).
            replies.append(
                self.handle(ctx, item, time.perf_counter() - arrival)
            )
        return Batch(tuple(replies))


# Registry mapping remote error type names back to local exception classes,
# so clients raise e.g. MappingExistsError rather than a bare RemoteError.
_ERROR_TYPES: dict[str, type[Exception]] = {}


def register_error_type(exc_type: type[Exception]) -> type[Exception]:
    """Register (or decorate) an exception class for client-side re-raising."""
    _ERROR_TYPES[exc_type.__name__] = exc_type
    return exc_type


# A server that rejects a frame answers with a typed ProtocolError response;
# re-raising it as ProtocolError client-side keeps it out of the retryable
# set (see repro.net.retry._FATAL) so the client never blindly re-sends a
# possibly-completed mutation over a conversation the server gave up on.
register_error_type(ProtocolError)


class PendingCall:
    """Handle to an in-flight ``call_async``; ``result()`` completes it."""

    __slots__ = ("_client", "_pending", "method")

    def __init__(
        self, client: "RPCClient", pending: PendingResponse, method: str
    ) -> None:
        self._client = client
        self._pending = pending
        self.method = method

    @property
    def done(self) -> bool:
        return self._pending.done

    def result(self) -> Any:
        if not self._pending.done:
            self._client.drain()
        return _unwrap(self._pending.get())


def _unwrap(response: Response) -> Any:
    if response.ok:
        return response.value
    exc_type = _ERROR_TYPES.get(response.error_type)
    if exc_type is not None:
        raise exc_type(response.error_message)
    raise RemoteError(response.error_type, response.error_message)


class RPCClient:
    """Typed convenience wrapper over a :class:`Channel`.

    Safe to share across threads: the underlying channels lock their
    sockets, and channel replacement / retry accounting here is guarded
    by a client-level lock (a failed attempt in one thread must not yank
    the channel out from under another thread's attempt, and lifetime
    retry counts are incremented atomically).

    Parameters
    ----------
    retry:
        Optional :class:`~repro.net.retry.RetryPolicy`.  Transport-level
        failures (connection reset, timeout, closed channel) are retried
        with backoff; server-side errors (``RemoteError``) never are — the
        server answered, so a retry could repeat a completed mutation.
    reconnect:
        Optional factory returning a fresh :class:`Channel`.  Between
        retry attempts the client replaces its channel through this —
        necessary for TCP, where a failed socket stays dead.
    sleep:
        Injectable backoff sleeper (tests pass a recorder).
    """

    def __init__(
        self,
        channel: Channel,
        retry: RetryPolicy | None = None,
        reconnect: Callable[[], Channel] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.channel = channel
        self.retry = retry
        self.reconnect = reconnect
        self._sleep = sleep
        self._lock = threading.Lock()
        #: Transport-level retries performed over this client's lifetime.
        #: Guarded by ``_lock``; per-call deltas are counted locally in
        #: ``call()`` rather than diffing this shared counter.
        self.retries = 0

    def _current_channel(self) -> Channel:
        with self._lock:
            return self.channel

    def _request(
        self, request: Request, retry_count: list[int] | None = None
    ) -> Response:
        if self.retry is None:
            return self._current_channel().request(request)
        tracer = tracing.current_tracer()
        attempt_no = [1]

        def attempt() -> Response:
            channel = self._current_channel()
            if tracer is None:
                return channel.request(request)
            # One child span per attempt under the enclosing rpc.call, so
            # a retried request shows its full timeline: failed attempts
            # carry the transport error, the last one carries the answer.
            with tracer.span(
                "rpc.attempt", method=request.method, attempt=attempt_no[0]
            ):
                return channel.request(request)

        def on_retry(attempt: int, exc: BaseException) -> None:
            # retry_call's attempt is the 0-based index of the attempt
            # that just failed; the next span is 1-based attempt + 2.
            attempt_no[0] = attempt + 2
            if retry_count is not None:
                retry_count[0] += 1
            with self._lock:
                self.retries += 1
                if self.reconnect is None:
                    return
                old = self.channel
                try:
                    old.close()
                except Exception:
                    pass
                try:
                    # Holding the lock during reconnect also collapses a
                    # thundering herd: one thread dials while the others
                    # queue up to reuse the fresh channel.
                    self.channel = self.reconnect()
                except Exception:
                    # Leave the dead channel in place; the next attempt
                    # fails fast and the loop backs off again.
                    pass

        return retry_call(
            attempt,
            self.retry,
            sleep=self._sleep,
            retryable=is_retryable,
            on_retry=on_retry,
        )

    def call(self, method: str, *args: Any) -> Any:
        tracer = tracing.current_tracer()
        if tracer is None:
            response = self._request(Request(method, args))
        else:
            with tracer.span("rpc.call", method=method) as span:
                retry_count = [0]
                response = self._request(
                    Request(method, args, trace=(span.trace_id, span.span_id)),
                    retry_count,
                )
                if self.retry is not None:
                    span.set_tag("retries", retry_count[0])
        return _unwrap(response)

    # -- pipelined surface ------------------------------------------------

    def call_async(self, method: str, *args: Any) -> PendingCall:
        """Queue a call without waiting for its response.

        On a pipelined (TCP) channel the request is buffered and goes
        out on the next :meth:`flush`/:meth:`drain`, many per frame; on
        synchronous channels it completes immediately.  Async calls do
        not reconnect-retry — a transport failure surfaces from
        ``result()``, and callers that need redelivery wrap the whole
        burst (as :class:`~repro.core.updates.UpdateManager` does).  The
        request carries the caller's current span, so the server's
        ``rpc.handle`` joins the caller's trace as with :meth:`call`.
        """
        channel = self._current_channel()
        pending = channel.submit(Request(method, args, trace=tracing.context()))
        return PendingCall(self, pending, method)

    def flush(self) -> None:
        """Push queued async calls onto the wire without waiting."""
        self._current_channel().flush()

    def drain(self) -> None:
        """Flush, then block until every outstanding response arrived."""
        channel = self._current_channel()
        tracer = tracing.current_tracer()
        if tracer is None:
            channel.drain()
            return
        with tracer.span("rpc.drain"):
            channel.drain()

    def close(self) -> None:
        self._current_channel().close()

    def __enter__(self) -> "RPCClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

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
from typing import Any, Callable

from repro.net.errors import ProtocolError, RemoteError
from repro.net.messages import Batch, Hello, Request, Response
from repro.net.retry import RetryPolicy, is_retryable, retry_call
from repro.net.transport import Channel, PendingResponse
from repro.obs import reqctx, tracing
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.slo import classify_method
from repro.obs.usage import ANONYMOUS_PRINCIPAL


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

#: Bounded label for requests naming a method the server doesn't have.
#: Using the client-supplied name would let a hostile or typo'd client
#: mint unbounded ``rpc.errors{method=...}`` label cardinality.
UNKNOWN_METHOD_LABEL = "<unknown>"


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
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`.  When set,
        dispatch appends ``rpc.in``/``rpc.out`` events, handler failures
        append an ``error`` event, and each failure freezes a black-box
        dump of the ring (the events *leading up to* the error).
    """

    def __init__(
        self,
        authenticator: Authenticator | None = None,
        metrics: MetricsRegistry | None = None,
        flight: Any = None,
        name: str = "",
        usage: Any = None,
        principal_mapper: Callable[[str | None, str | None], str] | None = None,
    ) -> None:
        self._methods: dict[str, Handler] = {}
        self._authenticator = authenticator
        #: Optional :class:`~repro.obs.usage.UsageAccountant`; when set,
        #: every request is charged to ``(usage_principal, op_class)``.
        self.usage = usage
        #: Maps ``(authenticated_dn, declared_principal)`` to the bounded
        #: accounting label (the server passes the authorizer's gridmap
        #: mapping; bare test servers fall back to the declared name).
        self._principal_mapper = principal_mapper
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.flight = flight
        #: Server identity stamped as ``node=`` on every rpc.handle span,
        #: so cross-node trace assembly can attribute fragments even when
        #: several servers share one in-process tracer.
        self.name = name
        self._span_tags: dict[str, str] = {"node": name} if name else {}
        self._instruments: dict[str, tuple[Any, Any, Any]] = {}
        self._m_unknown_method = self.metrics.counter(
            "rpc.errors", method=UNKNOWN_METHOD_LABEL
        )
        # Requests currently inside handlers: the dispatcher-level queue
        # signal the saturation detector watches (Fig. 13 contention).
        self._m_inflight = self.metrics.gauge("rpc.inflight")

    @property
    def inflight(self) -> float:
        """Requests currently inside handlers (stuck-thread detector gate)."""
        return self._m_inflight.value

    @property
    def requests_served(self) -> int:
        """Requests answered with a value: the ``rpc.requests`` counters summed."""
        return sum(r.value for r, _, _ in list(self._instruments.values()))

    @property
    def errors_returned(self) -> int:
        """Requests answered with an error: the ``rpc.errors`` counters summed."""
        return self._m_unknown_method.value + sum(
            e.value for _, e, _ in list(self._instruments.values())
        )

    def _method_instruments(self, method: str) -> tuple[Any, Any, Any]:
        """(requests counter, errors counter, latency histogram) per method."""
        cached = self._instruments.get(method)
        if cached is None:
            cached = (
                self.metrics.counter("rpc.requests", method=method),
                self.metrics.counter("rpc.errors", method=method),
                self.metrics.histogram("rpc.latency", method=method),
            )
            self._instruments[method] = cached
        return cached

    def register(self, method: str, handler: Handler) -> None:
        self._methods[method] = handler

    def register_all(self, handlers: dict[str, Handler]) -> None:
        self._methods.update(handlers)

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

    def handle(
        self,
        ctx: ConnectionContext,
        request: Request,
        queue_wait: float = 0.0,
    ) -> Response:
        """Dispatch one request: the only route from a decoded request to
        its handler and back, so each hook below has this one call site.

        ``queue_wait`` is the time the request sat decoded but unserviced
        (batch items behind their predecessors); it is charged, with the
        rest of the cost vector, when accounting is on.
        """
        method = request.method
        handler = self._methods.get(method)
        usage = self.usage
        flight = self.flight
        start = time.perf_counter()
        costs = (
            reqctx.activate(ctx.usage_principal) if usage is not None else None
        )
        try:
            if handler is None:
                self._m_unknown_method.inc()
                response = Response(
                    ok=False,
                    error_type="NoSuchMethodError",
                    error_message=f"unknown method {method!r}",
                    id=request.id,
                )
            else:
                requests, errors, latency = self._method_instruments(method)
                self._m_inflight.inc()
                try:
                    with tracing.span(
                        "rpc.handle",
                        parent=request.trace,
                        method=method,
                        **self._span_tags,
                    ) as span:
                        if flight is not None:
                            flight.record(
                                "rpc.in",
                                detail=method,
                                principal=ctx.usage_principal,
                            )
                        try:
                            value = handler(ctx, request.args)
                        except Exception as exc:
                            span.set_error(type(exc).__name__)
                            errors.inc()
                            if flight is not None:
                                # Black box: freeze the events leading up
                                # to the failure so a later wrap can't
                                # erase them (references only; rendered
                                # when the dump is read).
                                reason = f"{method}: {type(exc).__name__}"
                                flight.record(
                                    "error",
                                    detail=reason,
                                    error=True,
                                    message=str(exc),
                                )
                                flight.freeze(reason)
                            response = Response.failure(exc, id=request.id)
                        else:
                            requests.inc()
                            if flight is not None:
                                flight.record("rpc.out", detail=method)
                            response = Response(True, value, "", "", request.id)
                finally:
                    self._m_inflight.dec()
                latency.observe(time.perf_counter() - start)
        finally:
            if costs is not None:
                reqctx.deactivate()
        if costs is not None:
            op_class = classify_method(method)
            args = request.args
            # Namespace heat: sample the LFN argument of classified calls
            # (add/query/wildcard lead with the name; bulk payloads are
            # lists and are skipped rather than walked on the hot path).
            lfn = (
                args[0]
                if op_class is not None and args and type(args[0]) is str
                else None
            )
            usage.account(
                ctx.usage_principal,
                op_class,
                wall_time=time.perf_counter() - start,
                queue_wait=queue_wait,
                rows_examined=costs.rows_examined,
                wal_bytes=costs.wal_bytes,
                error=not response.ok,
                lfn=lfn,
            )
        return response

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
        burst (as :class:`~repro.core.updates.UpdateManager` does).
        """
        channel = self._current_channel()
        pending = channel.submit(Request(method, args))
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

    @property
    def pipelined(self) -> bool:
        """True when async calls genuinely overlap on the wire."""
        return getattr(self._current_channel(), "pipelined", False)

    def close(self) -> None:
        self._current_channel().close()

    def __enter__(self) -> "RPCClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

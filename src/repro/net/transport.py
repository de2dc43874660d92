"""Transports: in-process channels and real TCP sockets.

Two interchangeable ways for a client to reach an RPC server:

* :class:`LocalTransport` — the client thread calls straight into the
  server's dispatcher (after the same handshake/auth path).  This mirrors
  the paper's multi-threaded server — concurrency comes from the client
  threads themselves — with negligible transport overhead, so throughput
  benchmarks measure the server, not the plumbing.  An optional per-call
  ``latency`` models a network round trip in real time.
* :class:`TCPServerTransport` / :func:`connect_tcp` — a real socket server
  with length-prefixed frames and a handler thread per connection, used by
  the examples to run a genuinely distributed RLS on localhost.

Both ends must speak :data:`~repro.net.messages.PROTOCOL_VERSION` (checked
in the Hello handshake, see docs/PROTOCOL.md).  On TCP, requests carry
correlation ids so one socket can have many requests in flight, and bursts
of requests coalesce into a single :class:`~repro.net.messages.Batch`
frame that the server decodes once and answers in one frame.  Receive
paths fill preallocated per-connection buffers via ``recv_into`` instead
of allocating per read.

Server side, every received frame — in-process or TCP, single request or
batch — takes the one route through :func:`_serve`.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.net.errors import ProtocolError, RemoteError, TransportClosedError
from repro.net.messages import (
    PRINCIPAL_ATTRIBUTE,
    PROTOCOL_VERSION,
    Batch,
    Hello,
    Request,
    Response,
    encode_message_into,
    message_from_bytes,
)
from repro.net.retry import RetryPolicy, retry_call
from repro.obs import tracing

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.rpc import RPCServer

_FRAME = struct.Struct("<I")
_MAX_FRAME = 256 * 1024 * 1024  # 256 MiB: a 5M-entry Bloom filter is ~6 MiB


class PendingResponse:
    """Placeholder for the response to a pipelined request.

    Completed by the channel (immediately for synchronous channels; by
    the response-dispatch reader for pipelined TCP).  ``get()`` never
    blocks — call :meth:`Channel.drain` first.
    """

    __slots__ = ("response", "exc", "done")

    def __init__(self) -> None:
        self.response: Response | None = None
        self.exc: BaseException | None = None
        self.done = False

    def _set(self, response: Response) -> None:
        self.response = response
        self.done = True

    def _set_exc(self, exc: BaseException) -> None:
        self.exc = exc
        self.done = True

    def get(self) -> Response:
        if not self.done:
            raise RuntimeError("pending response not complete; drain() first")
        if self.exc is not None:
            raise self.exc
        assert self.response is not None
        return self.response


class Channel:
    """Client-side handle to a server: synchronous request/response,
    plus a pipelined ``submit``/``flush``/``drain`` surface.

    The base implementation completes each submit synchronously, so
    callers can use the pipelined API uniformly over any channel; only
    transports that really pipeline (TCP) override it.
    """

    def request(self, request: Request) -> Response:
        raise NotImplementedError

    def submit(self, request: Request) -> PendingResponse:
        pending = PendingResponse()
        try:
            pending._set(self.request(request))
        except Exception as exc:
            pending._set_exc(exc)
        return pending

    def flush(self) -> None:
        """Write any buffered submits to the wire (no-op when synchronous)."""

    def drain(self) -> None:
        """Flush, then wait until every outstanding submit has completed."""
        self.flush()

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    @property
    def broken(self) -> bool:
        """True once every later request fails at once: dial a new one."""
        return False

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _serve(
    transport: "LocalTransport | TCPServerTransport",
    ctx: Any,
    frame: "bytes | memoryview",
    received: int,
    send: Callable[[Any], int],
) -> None:
    """The server side of one exchange, shared by both transports.

    Decodes ``frame``, dispatches the request (or batch of requests),
    hands the reply to ``send`` — which writes it and returns the bytes
    it put on the wire — and charges ``received`` bytes in and the sent
    bytes out, once, to the transport's counters and, through the
    server's fenced observer step, the caller's principal.  Anything that
    is not a request raises :class:`ProtocolError`.
    """
    transport._m_bytes_in.inc(received)
    with tracing.span("transport.decode"):
        message = message_from_bytes(frame)
    server = transport.server
    if type(message) is Request:
        reply: Any = server.handle(ctx, message)
    elif type(message) is Batch:
        # Decoded once above; the whole burst is dispatched on this
        # thread — no per-message handoff — and answered in one frame.
        reply = server.handle_batch(ctx, message)
    else:
        raise ProtocolError(f"unexpected {type(message).__name__} frame")
    sent = send(reply)
    transport._m_bytes_out.inc(sent)
    server.record_bytes(ctx.usage_principal, received, sent)


# ---------------------------------------------------------------------------
# In-process transport
# ---------------------------------------------------------------------------


class LocalTransport:
    """In-process transport endpoint for one RPC server.

    The transport keeps a registry so clients can connect by name, the way
    TCP clients connect by host:port.

    ``service_time`` models per-server *capacity* (as opposed to the
    channel-level ``latency``, which models the network round trip and is
    paid concurrently by every caller): requests serialize through one
    modeled service stage of that duration, capping the endpoint at
    ~1/service_time ops/s no matter how many client threads pile on — the
    Figure 6 saturation plateau.  Multi-server experiments (shard
    scale-out) rely on this: each in-process server gets its own stage,
    so aggregate throughput genuinely scales with server count.
    """

    _registry: dict[str, "LocalTransport"] = {}
    _registry_lock = threading.Lock()

    def __init__(
        self,
        server: "RPCServer",
        name: str | None = None,
        service_time: float = 0.0,
    ) -> None:
        self.server = server
        self.name = name
        self.service_time = service_time
        self._service_lock = threading.Lock()
        self.closed = False
        metrics = server.metrics
        self._m_bytes_in = metrics.counter("net.bytes_in", transport="local")
        self._m_bytes_out = metrics.counter("net.bytes_out", transport="local")
        self._m_connections = metrics.counter(
            "net.connections_total", transport="local"
        )
        if name is not None:
            with LocalTransport._registry_lock:
                LocalTransport._registry[name] = self

    @classmethod
    def lookup(cls, name: str) -> "LocalTransport":
        with cls._registry_lock:
            transport = cls._registry.get(name)
        if transport is None or transport.closed:
            raise TransportClosedError(f"no local endpoint named {name!r}")
        return transport

    def open_channel(
        self,
        credential: bytes | None = None,
        latency: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
        principal: str | None = None,
    ) -> "LocalChannel":
        if self.closed:
            raise TransportClosedError("transport closed")
        attributes = (
            {PRINCIPAL_ATTRIBUTE: principal} if principal is not None else {}
        )
        ctx = self.server.handshake(
            Hello(credential=credential, attributes=attributes), peer="local"
        )
        self._m_connections.inc()
        return LocalChannel(self, ctx, latency, sleep)

    def close(self) -> None:
        self.closed = True
        if self.name is not None:
            with LocalTransport._registry_lock:
                LocalTransport._registry.pop(self.name, None)


class LocalChannel(Channel):
    """Channel that invokes the server dispatcher in the caller's thread."""

    def __init__(
        self,
        transport: LocalTransport,
        ctx: Any,
        latency: float,
        sleep: Callable[[float], None],
    ) -> None:
        self._transport = transport
        self._ctx = ctx
        self._latency = latency
        self._sleep = sleep
        self._closed = False

    def request(self, request: Request) -> Response:
        if self._closed or self._transport.closed:
            raise TransportClosedError("channel closed")
        if self._latency > 0:
            self._sleep(self._latency)
        service_time = self._transport.service_time
        if service_time > 0:
            # Serialized modeled service stage: holding the lock while
            # sleeping is the model — it is what bounds this endpoint's
            # throughput at ~1/service_time regardless of caller count.
            with self._transport._service_lock:
                self._sleep(service_time)
        # Round-trip through the wire codec so the serialization cost and
        # type constraints are identical to the TCP path.
        wire = request.to_bytes()
        reply_wire = bytearray()

        def send(reply: Any) -> int:
            encode_message_into(reply_wire, reply)
            return len(reply_wire)

        _serve(self._transport, self._ctx, wire, len(wire), send)
        return message_from_bytes(reply_wire)  # type: ignore[return-value]

    def close(self) -> None:
        self._closed = True


def connect_local(
    name: str,
    credential: bytes | None = None,
    latency: float = 0.0,
    principal: str | None = None,
) -> LocalChannel:
    """Connect to a named in-process server endpoint."""
    return LocalTransport.lookup(name).open_channel(
        credential, latency, principal=principal
    )


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------


def _recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    offset = 0
    end = len(view)
    while offset < end:
        n = sock.recv_into(view[offset:])
        if n == 0:
            raise TransportClosedError("peer closed connection")
        offset += n


class _FrameIO:
    """Per-connection reusable frame buffers (one reader/writer at a time).

    Receives fill a preallocated ``bytearray`` via ``recv_into`` — no
    per-read chunk allocation or join — and hand back a ``memoryview``
    that is valid until the next ``recv_frame`` call (the codec
    materializes decoded values, so this is safe).  Sends build the
    4-byte length prefix and payload in one reused buffer so each frame
    is a single ``sendall``.
    """

    __slots__ = ("_recv_buf", "_header", "_send_buf")

    def __init__(self) -> None:
        self._recv_buf = bytearray(64 * 1024)
        self._header = bytearray(_FRAME.size)
        self._send_buf = bytearray()

    def recv_frame(self, sock: socket.socket) -> memoryview:
        header = memoryview(self._header)
        _recv_exact_into(sock, header)
        (length,) = _FRAME.unpack(header)
        if length > _MAX_FRAME:
            raise ProtocolError(f"frame of {length} bytes exceeds limit")
        if length > len(self._recv_buf):
            self._recv_buf = bytearray(length)
        view = memoryview(self._recv_buf)[:length]
        _recv_exact_into(sock, view)
        return view

    def send_message(self, sock: socket.socket, message: Any) -> int:
        """Encode ``message`` and send it as one frame; returns frame size."""
        buf = self._send_buf
        del buf[:]
        buf += b"\x00\x00\x00\x00"
        encode_message_into(buf, message)
        _FRAME.pack_into(buf, 0, len(buf) - _FRAME.size)
        sock.sendall(buf)
        return len(buf)


class TCPServerTransport:
    """Socket listener feeding connections to an RPC server.

    One handler thread per connection, like the Globus RLS server's
    thread-per-connection model.  A client may have many requests in
    flight; the connection thread answers them in arrival order, and
    whole bursts arrive as one ``Batch`` frame that is decoded once and
    answered with one ``Batch`` frame.
    """

    def __init__(self, server: "RPCServer", host: str = "127.0.0.1", port: int = 0):
        self.server = server
        metrics = server.metrics
        self._m_bytes_in = metrics.counter("net.bytes_in", transport="tcp")
        self._m_bytes_out = metrics.counter("net.bytes_out", transport="tcp")
        self._m_conns_total = metrics.counter(
            "net.connections_total", transport="tcp"
        )
        self._m_conns_active = metrics.gauge(
            "net.connections_active", transport="tcp"
        )
        self._m_batches = metrics.counter("net.batch_frames", transport="tcp")
        self._m_protocol_errors = metrics.counter(
            "net.protocol_errors", transport="tcp"
        )
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._closed = threading.Event()
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"rls-accept-{self.port}", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform without NODELAY
                pass
            with self._conns_lock:
                if self._closed.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
                # Reap finished handler threads so connection churn does
                # not grow the list without bound.
                self._threads = [t for t in self._threads if t.is_alive()]
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn, addr),
                    name=f"rls-conn-{addr[1]}",
                    daemon=True,
                )
                # Registered and started under the lock close() snapshots
                # the list under, so close() joins every handler thread.
                self._threads.append(thread)
                thread.start()

    def _serve_connection(self, conn: socket.socket, addr: tuple) -> None:
        from repro.obs.profile import register_thread, unregister_thread

        peer = f"{addr[0]}:{addr[1]}"
        register_thread("rpc.worker")
        self._m_conns_total.inc()
        self._m_conns_active.inc()
        io = _FrameIO()

        def send(reply: Any) -> int:
            if type(reply) is Batch:  # the answer to a Batch frame
                self._m_batches.inc()
            return io.send_message(conn, reply)

        try:
            with conn:
                try:
                    hello = message_from_bytes(io.recv_frame(conn))
                    if not isinstance(hello, Hello):
                        raise ProtocolError("expected Hello")
                    if hello.version != PROTOCOL_VERSION:
                        raise ProtocolError(
                            f"unsupported protocol version {hello.version}; "
                            f"this server speaks {PROTOCOL_VERSION}"
                        )
                    try:
                        ctx = self.server.handshake(hello, peer=peer)
                    except Exception as exc:  # auth failure -> error + close
                        io.send_message(conn, Response.failure(exc))
                        return
                    io.send_message(
                        conn,
                        Response.success(
                            {"message": "welcome", "proto": PROTOCOL_VERSION}
                        ),
                    )
                    while not self._closed.is_set():
                        frame = io.recv_frame(conn)
                        _serve(self, ctx, frame, len(frame) + _FRAME.size, send)
                except ProtocolError as exc:
                    # Malformed or oversized frame, or a peer speaking
                    # another protocol version.  Tell the client with a
                    # typed, non-retryable error before closing — a silent
                    # drop looks like a network failure, and a retrying
                    # client would re-send a possibly-completed mutation.
                    # The listener and every other connection stay healthy.
                    self._m_protocol_errors.inc()
                    try:
                        io.send_message(conn, Response.failure(exc))
                    except OSError:
                        pass
                    return
                except (TransportClosedError, ConnectionError, OSError):
                    raise
                except Exception as exc:  # defense in depth: keep the
                    # listener and sibling connections alive no matter
                    # what escapes a handler.
                    self._m_protocol_errors.inc()
                    try:
                        io.send_message(conn, Response.failure(exc))
                    except OSError:
                        pass
                    return
        except (TransportClosedError, ConnectionError, OSError):
            return
        finally:
            unregister_thread()
            self._m_conns_active.dec()
            with self._conns_lock:
                self._conns.discard(conn)

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop accepting, shut down live connections, join handlers."""
        self._closed.set()
        # A thread blocked in accept() is not reliably interrupted by
        # close() alone: shutdown() wakes it on Linux, and the self-connect
        # poke covers platforms where shutdown() of a listener is a no-op.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            host = "127.0.0.1" if self.host in ("0.0.0.0", "") else self.host
            socket.create_connection((host, self.port), timeout=0.5).close()
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._conns_lock:
            live = list(self._conns)
            self._conns.clear()
            threads = list(self._threads)
            self._threads = []
        for conn in live:
            # Unblock handler threads parked in recv(); close() alone
            # does not interrupt a blocking read on every platform.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._accept_thread.join(timeout=join_timeout)
        for thread in threads:
            thread.join(timeout=join_timeout)


class TCPChannel(Channel):
    """Client side of one TCP connection.

    Many requests can be in flight at once: writers append to a send
    queue under a short lock, ``flush`` coalesces queued requests into one
    ``Batch`` frame, and whichever waiter arrives first becomes the
    *response-dispatch reader* — it reads frames off the socket and
    completes pending requests by correlation id until its own answer
    shows up, then hands the reader role to the next waiter.  No
    background thread, no lock held across a round trip.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._closed = False
        self._lock = threading.Lock()  # socket writes
        self._io = _FrameIO()
        # Pipelining state, all guarded by _cv's lock.
        self._cv = threading.Condition()
        self._pending: dict[int, PendingResponse] = {}
        self._queue: list[Request] = []
        self._next_id = 1
        self._reader_active = False
        self._broken: BaseException | None = None

    def submit(self, request: Request) -> PendingResponse:
        pending = PendingResponse()
        with self._cv:
            if self._closed or self._broken is not None:
                # The failure went to the calls in flight; this one never
                # leaves, which a retrying client re-dials for.
                exc = TransportClosedError("channel closed")
                exc.__cause__ = self._broken
                pending._set_exc(exc)
                return pending
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = pending
            self._queue.append(
                Request(request.method, request.args, request.trace, request_id)
            )
        return pending

    def flush(self) -> None:
        with self._cv:
            if not self._queue:
                return
            batch = self._queue
            self._queue = []
        message: Any = batch[0] if len(batch) == 1 else Batch(tuple(batch))
        try:
            with self._lock:
                self._io.send_message(self._sock, message)
        except (OSError, ConnectionError) as exc:
            self._fail_all(exc)
            raise

    def drain(self) -> None:
        self.flush()
        while True:
            with self._cv:
                target = next(iter(self._pending.values()), None)
            if target is None:
                return
            self._await(target)

    def request(self, request: Request) -> Response:
        if self._closed:
            raise TransportClosedError("channel closed")
        pending = self.submit(request)
        self.flush()
        return self._await(pending)

    @property
    def broken(self) -> bool:
        return self._closed or self._broken is not None

    def _await(self, pending: PendingResponse) -> Response:
        """Wait for ``pending``, taking the reader role when it is free."""
        while True:
            with self._cv:
                while True:
                    if pending.done:
                        return pending.get()
                    if not self._reader_active:
                        self._reader_active = True
                        break
                    self._cv.wait()
            # Reader role: read and dispatch frames until our response
            # arrives.  The socket is only ever read by the one thread
            # holding the reader role, so the reused recv buffer is safe.
            try:
                while not pending.done:
                    frame = self._io.recv_frame(self._sock)
                    with tracing.span("transport.decode"):
                        message = message_from_bytes(frame)
                    self._dispatch(message)
            except BaseException as exc:
                self._fail_all(exc)
            finally:
                with self._cv:
                    self._reader_active = False
                    self._cv.notify_all()
            return pending.get()

    def _dispatch(self, message: Any) -> None:
        if isinstance(message, Batch):
            # One lock round and one wake-up for the whole burst.
            plain = []
            with self._cv:
                for item in message.items:
                    if (
                        isinstance(item, Response)
                        and item.id is not None
                    ):
                        pending = self._pending.pop(item.id, None)
                        if pending is not None:
                            pending._set(item)
                    else:
                        plain.append(item)
                self._cv.notify_all()
            for item in plain:
                self._dispatch(item)
            return
        if not isinstance(message, Response):
            raise ProtocolError("expected Response")
        if message.id is None:
            # Connection-level failure (e.g. the server could not frame or
            # parse something we sent): no request can be matched, and the
            # server closes after sending, so fail everything in flight.
            if not message.ok:
                raise RemoteError(message.error_type, message.error_message)
            raise ProtocolError("response without correlation id")
        with self._cv:
            pending = self._pending.pop(message.id, None)
            if pending is not None:
                pending._set(message)
                self._cv.notify_all()

    def _fail_all(self, exc: BaseException) -> None:
        with self._cv:
            if self._broken is None:
                self._broken = exc
            for pending in self._pending.values():
                if not pending.done:
                    pending._set_exc(exc)
            self._pending.clear()
            self._queue.clear()
            self._cv.notify_all()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fail_all(TransportClosedError("channel closed"))
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass


def connect_tcp(
    host: str,
    port: int,
    credential: bytes | None = None,
    timeout: float = 10.0,
    retry: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
    principal: str | None = None,
) -> TCPChannel:
    """Open a TCP channel and perform the Hello handshake.

    The Hello announces :data:`~repro.net.messages.PROTOCOL_VERSION` and
    the welcome must echo it: a server that answers anything else is
    refused with :class:`ProtocolError` (never retried), as a server
    refuses a Hello of any other version.

    With a :class:`~repro.net.retry.RetryPolicy`, connection establishment
    (socket connect + handshake) is retried with backoff — the reconnect
    path an LRC takes when its RLI restarts mid-deployment.  The policy's
    ``call_timeout`` (when set) overrides ``timeout`` as the per-attempt
    socket timeout.
    """

    def attempt() -> TCPChannel:
        attempt_timeout = timeout
        if retry is not None and retry.call_timeout is not None:
            attempt_timeout = retry.call_timeout
        sock = socket.create_connection((host, port), timeout=attempt_timeout)
        sock.settimeout(attempt_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform without NODELAY
            pass
        attributes = (
            {PRINCIPAL_ATTRIBUTE: principal} if principal is not None else {}
        )
        channel = TCPChannel(sock)
        try:
            channel._io.send_message(
                sock,
                Hello(
                    version=PROTOCOL_VERSION,
                    credential=credential,
                    attributes=attributes,
                ),
            )
            reply = message_from_bytes(channel._io.recv_frame(sock))
            if not isinstance(reply, Response):
                raise ProtocolError("expected handshake Response")
            if not reply.ok:
                raise RemoteError(reply.error_type, reply.error_message)
            welcome = reply.value
            if (
                not isinstance(welcome, dict)
                or welcome.get("proto") != PROTOCOL_VERSION
            ):
                raise ProtocolError(
                    f"server does not speak protocol version {PROTOCOL_VERSION}"
                )
        except BaseException:
            channel.close()
            raise
        return channel

    if retry is None:
        return attempt()
    return retry_call(attempt, retry, sleep=sleep)

"""Request/response message types for the RPC protocol.

One protocol version (see docs/PROTOCOL.md) and one wire shape per
message kind:

* ``Request``  — ``[0, method, args, trace, id]``
* ``Response`` — compact success ``[1, True, value, id]`` (``id`` set),
  otherwise ``[1, ok, value, error_type, error_message, id]``
* ``Hello``    — ``[2, version, credential, attributes]``
* ``Batch``    — ``[3, [item, ...]]`` of requests or of responses

``id`` is the correlation id that lets many requests be in flight on one
socket; it is ``None`` only on in-process channels, in the handshake
reply and in connection-level errors.  Single frames and batch items are
written and parsed by the same pair of per-item loops, which walk the
envelope scaffold (list headers, kinds) on the wire bytes directly and
hand the fields to the value codec — no intermediate envelope lists.

Every field of every message kind is validated defensively: a malformed
envelope — wrong types, wrong field counts, bogus nesting — raises
:class:`~repro.net.errors.ProtocolError`, never ``IndexError`` or
``TypeError``, so hostile frames cannot kill a server handler thread.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.net.codec import _T_INT, _T_LIST, _T_TRUE, make_reader
from repro.net.codec import _encode_into as _encode_value
from repro.net.errors import ProtocolError

_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")

_REQUEST_KIND = 0
_RESPONSE_KIND = 1
_HELLO_KIND = 2
_BATCH_KIND = 3

#: The protocol version this build speaks.  A peer announcing any other
#: version in its :class:`Hello` (or welcome) is refused.
PROTOCOL_VERSION = 2


def _to_bytes(message: Any) -> bytes:
    out = bytearray()
    encode_message_into(out, message)
    return bytes(out)


def _same(self: tuple, other: Any) -> bool:
    """Equal only to an instance of the same class, as a dataclass is."""
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _differ(self: tuple, other: Any) -> bool:
    return not _same(self, other)


class Request(NamedTuple):
    """One RPC call: a method name plus positional arguments.

    ``trace`` optionally carries ``(trace_id, parent_span_id)`` so a
    server-side span can join the client's trace (see
    :mod:`repro.obs.tracing`); absent, it travels as an empty list.

    ``id`` is the correlation id: the matching ``Response`` echoes it so
    a pipelined client can dispatch replies that arrive out of order
    with respect to its waiters.

    A named tuple, like :class:`Response`: four are made per round trip
    and a frozen dataclass costs twice as much to construct.
    """

    method: str
    args: tuple[Any, ...] = ()
    trace: tuple[str, str] | None = None
    id: int | None = None

    __eq__, __ne__, __hash__ = _same, _differ, tuple.__hash__
    to_bytes = _to_bytes


class Response(NamedTuple):
    """RPC result: either a value or a propagated error.

    ``id`` echoes the correlation id of the request being answered
    (``None`` for the handshake reply and for connection-level errors
    that cannot be attributed to a specific request).
    """

    ok: bool
    value: Any = None
    error_type: str = ""
    error_message: str = ""
    id: int | None = None

    __eq__, __ne__, __hash__ = _same, _differ, tuple.__hash__

    @classmethod
    def success(cls, value: Any, id: int | None = None) -> "Response":
        return cls(ok=True, value=value, id=id)

    @classmethod
    def failure(cls, exc: BaseException, id: int | None = None) -> "Response":
        return cls(
            ok=False,
            error_type=type(exc).__name__,
            error_message=str(exc),
            id=id,
        )

    to_bytes = _to_bytes


#: Hello attribute naming the client's declared accounting principal.
PRINCIPAL_ATTRIBUTE = "principal"


@dataclass(frozen=True)
class Hello:
    """Connection handshake: protocol version + optional credential blob.

    ``attributes`` may carry a ``principal`` string — the client's
    *declared* accounting identity, used only when no credential is
    presented (an authenticated DN always wins).
    """

    version: int = PROTOCOL_VERSION
    credential: bytes | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def principal(self) -> str | None:
        """The declared accounting principal, if any."""
        return self.attributes.get(PRINCIPAL_ATTRIBUTE)

    to_bytes = _to_bytes


@dataclass(frozen=True)
class Batch:
    """A burst of requests (or responses) carried in one frame.

    The server decodes the frame once, dispatches every request without
    per-message thread handoff, and answers with a single ``Batch`` of
    responses in the same order.  Nested batches are not allowed.
    """

    items: tuple[Any, ...] = ()

    to_bytes = _to_bytes


def _scaffold(fields: int, kind: int) -> bytes:
    """Wire bytes opening a ``fields``-long envelope of ``kind``."""
    return b"L" + _U32.pack(fields) + b"I" + _I64.pack(kind)


_SCAFFOLD_SIZE = len(_scaffold(0, 0))
_REQUEST_PREFIX = _scaffold(5, _REQUEST_KIND)
_COMPACT_PREFIX = _scaffold(4, _RESPONSE_KIND) + b"T"
_RESPONSE_PREFIX = _scaffold(6, _RESPONSE_KIND)
_HELLO_PREFIX = _scaffold(4, _HELLO_KIND)
_BATCH_PREFIX = _scaffold(2, _BATCH_KIND) + b"L"


def _encode_items_into(out: bytearray, items: tuple[Any, ...]) -> None:
    """Append requests or responses end to end: the items of a batch, or
    the one item of a frame of its own."""
    for item in items:
        t = type(item)
        if t is Request:
            out += _REQUEST_PREFIX
            _encode_value(out, item.method)
            # Tuples encode identically to lists, so args/trace ride as-is.
            _encode_value(out, item.args)
            _encode_value(out, item.trace or ())
        elif t is not Response:
            raise TypeError(f"cannot send {t.__name__} as a request or response")
        elif (
            item.ok
            and item.id is not None
            and not item.error_type
            and not item.error_message
        ):
            out += _COMPACT_PREFIX
            _encode_value(out, item.value)
        else:
            out += _RESPONSE_PREFIX
            _encode_value(out, item.ok)
            _encode_value(out, item.value)
            _encode_value(out, item.error_type)
            _encode_value(out, item.error_message)
        _encode_value(out, item.id)


def encode_message_into(out: bytearray, message: Any) -> None:
    """Append ``message``'s wire encoding to a reusable buffer."""
    t = type(message)
    if t is Batch:
        out += _BATCH_PREFIX
        out += _U32.pack(len(message.items))
        _encode_items_into(out, message.items)
    elif t is Hello:
        out += _HELLO_PREFIX
        _encode_value(out, message.version)
        _encode_value(out, message.credential)
        _encode_value(out, message.attributes)
    else:
        _encode_items_into(out, (message,))


def _parse_items(
    data: Any,
    count: int,
    rd: Callable[[], Any],
    tell: Callable[[], int],
    seek: Callable[[int], None],
) -> list[Request | Response]:
    """Parse ``count`` requests or responses laid end to end at the cursor."""
    items: list[Request | Response] = []
    for _ in range(count):
        pos = tell()
        if data[pos] != _T_LIST or data[pos + 5] != _T_INT:
            raise ProtocolError("malformed message envelope")
        (fields,) = _U32.unpack_from(data, pos + 1)
        (kind,) = _I64.unpack_from(data, pos + 6)
        pos += _SCAFFOLD_SIZE
        if kind == _REQUEST_KIND:
            if fields != 5:
                raise ProtocolError("malformed request")
            seek(pos)
            method, args, raw_trace, request_id = rd(), rd(), rd(), rd()
            if type(method) is not str or type(args) is not list:
                raise ProtocolError("malformed request")
            trace = None
            if raw_trace:
                if (
                    type(raw_trace) is not list
                    or len(raw_trace) < 2
                    or type(raw_trace[0]) is not str
                    or type(raw_trace[1]) is not str
                ):
                    raise ProtocolError("malformed request trace")
                trace = (raw_trace[0], raw_trace[1])
            if request_id is not None and type(request_id) is not int:
                raise ProtocolError("malformed correlation id")
            items.append(Request(method, tuple(args), trace, request_id))
        elif kind != _RESPONSE_KIND:
            raise ProtocolError(f"invalid message kind {kind!r}")
        elif fields == 4:
            # Compact success: [kind, True, value, id]; id is mandatory.
            if data[pos] != _T_TRUE:
                raise ProtocolError("malformed response")
            seek(pos + 1)
            value, response_id = rd(), rd()
            if type(response_id) is not int:
                raise ProtocolError("malformed response")
            items.append(Response(True, value, "", "", response_id))
        elif fields == 6:
            seek(pos)
            ok, value, error_type, error_message, response_id = (
                rd(), rd(), rd(), rd(), rd()
            )
            if (
                type(ok) is not bool
                or type(error_type) is not str
                or type(error_message) is not str
            ):
                raise ProtocolError("malformed response")
            if response_id is not None and type(response_id) is not int:
                raise ProtocolError("malformed correlation id")
            items.append(
                Response(ok, value, error_type, error_message, response_id)
            )
        else:
            raise ProtocolError("malformed response")
    return items


def _parse_hello(rd: Callable[[], Any]) -> Hello:
    version, credential, attributes = rd(), rd(), rd()
    if type(version) is not int:
        raise ProtocolError("malformed hello version")
    if credential is not None and type(credential) is not bytes:
        raise ProtocolError("malformed hello credential")
    if type(attributes) is not dict:
        raise ProtocolError("malformed hello attributes")
    declared = attributes.get(PRINCIPAL_ATTRIBUTE)
    if declared is not None and type(declared) is not str:
        raise ProtocolError("malformed hello principal")
    return Hello(version=version, credential=credential, attributes=attributes)


def message_from_bytes(
    data: "bytes | bytearray | memoryview",
) -> Request | Response | Hello | Batch:
    """Parse one frame.  Every malformation surfaces as
    :class:`ProtocolError`; ``data`` may be reused once this returns."""
    rd, tell, seek = make_reader(data)
    message: Request | Response | Hello | Batch
    try:
        if data[: len(_BATCH_PREFIX)] == _BATCH_PREFIX:
            pos = len(_BATCH_PREFIX)
            (count,) = _U32.unpack_from(data, pos)
            pos += _U32.size
            # Each item is at least a scaffold long: refuse a count the
            # frame cannot hold before looping over it.
            if count * _SCAFFOLD_SIZE > len(data) - pos:
                raise ProtocolError("truncated wire data")
            seek(pos)
            message = Batch(tuple(_parse_items(data, count, rd, tell, seek)))
        elif data[:_SCAFFOLD_SIZE] == _HELLO_PREFIX:
            seek(_SCAFFOLD_SIZE)
            message = _parse_hello(rd)
        else:
            (message,) = _parse_items(data, 1, rd, tell, seek)
        if tell() != len(data):
            raise ProtocolError("trailing bytes after decoded value")
        return message
    except ProtocolError:
        raise
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid utf-8 on the wire: {exc}") from None
    except (struct.error, IndexError):
        raise ProtocolError("truncated wire data") from None

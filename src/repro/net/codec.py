"""Binary wire codec.

A small self-describing tagged encoding (no pickle — the wire format is
independent of Python object internals, like the C RLS protocol).  Types:
``None``, bool, int (64-bit signed), float, str, bytes, list/tuple (as
list) and dict with str keys.  NumPy byte buffers travel as ``bytes``
(Bloom filter bitmaps use this path).

The hot paths avoid per-field allocation: :func:`encode_into` appends to
a caller-owned ``bytearray`` (reused frame buffers in the transport), and
:func:`decode` walks a flat buffer with an integer cursor and
``struct.unpack_from`` instead of an ``io.BytesIO`` with per-field
``read()`` copies.  ``decode`` accepts ``bytes``, ``bytearray`` or
``memoryview`` input; decoded ``str``/``bytes`` values are materialized
(copied out of the input), so callers may reuse the receive buffer the
moment ``decode`` returns.
"""

from __future__ import annotations

import struct
from typing import Any

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

TAG_NONE = b"N"
TAG_TRUE = b"T"
TAG_FALSE = b"F"
TAG_INT = b"I"
TAG_BIGINT = b"J"  # arbitrary-precision fallback
TAG_FLOAT = b"D"
TAG_STR = b"S"
TAG_BYTES = b"B"
TAG_LIST = b"L"
TAG_DICT = b"M"

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Integer tag values for the cursor decoder (one indexed byte, no slice).
_T_NONE = TAG_NONE[0]
_T_TRUE = TAG_TRUE[0]
_T_FALSE = TAG_FALSE[0]
_T_INT = TAG_INT[0]
_T_BIGINT = TAG_BIGINT[0]
_T_FLOAT = TAG_FLOAT[0]
_T_STR = TAG_STR[0]
_T_BYTES = TAG_BYTES[0]
_T_LIST = TAG_LIST[0]
_T_DICT = TAG_DICT[0]


def encode(value: Any) -> bytes:
    """Encode ``value`` into bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def encode_into(out: bytearray, value: Any) -> None:
    """Append the encoding of ``value`` to ``out`` (a reusable buffer)."""
    _encode_into(out, value)


def _encode_into(
    out: bytearray,
    value: Any,
    _pack_i64: Any = _I64.pack,
    _pack_f64: Any = _F64.pack,
    _pack_u32: Any = _U32.pack,
) -> None:
    if value is None:
        out += TAG_NONE
        return
    if value is True:
        out += TAG_TRUE
        return
    if value is False:
        out += TAG_FALSE
        return
    t = type(value)
    if t is str:
        data = value.encode()
        out += TAG_STR
        out += _pack_u32(len(data))
        out += data
    elif t is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out += TAG_INT
            out += _pack_i64(value)
        else:
            data = str(value).encode("ascii")
            out += TAG_BIGINT
            out += _pack_u32(len(data))
            out += data
    elif t is float:
        out += TAG_FLOAT
        out += _pack_f64(value)
    elif t is list or t is tuple:
        out += TAG_LIST
        out += _pack_u32(len(value))
        for item in value:
            _encode_into(out, item)
    elif t is dict:
        out += TAG_DICT
        out += _pack_u32(len(value))
        for key, item in value.items():
            if type(key) is not str and not isinstance(key, str):
                raise TypeError("dict keys on the wire must be str")
            data = key.encode()
            out += _pack_u32(len(data))
            out += data
            _encode_into(out, item)
    elif t is bytes or t is bytearray or t is memoryview:
        out += TAG_BYTES
        out += _pack_u32(len(value))
        out += value
    # Subclass fallbacks (IntEnum, str subclasses, ...) — same wire form.
    elif isinstance(value, bool):
        out += TAG_TRUE if value else TAG_FALSE
    elif isinstance(value, int):
        _encode_into(out, int(value))
    elif isinstance(value, float):
        _encode_into(out, float(value))
    elif isinstance(value, str):
        _encode_into(out, str(value))
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _encode_into(out, bytes(value))
    elif isinstance(value, (list, tuple)):
        _encode_into(out, list(value))
    elif isinstance(value, dict):
        _encode_into(out, dict(value))
    else:
        raise TypeError(f"cannot encode type {type(value).__name__}")


def decode(data: "bytes | bytearray | memoryview") -> Any:
    """Decode bytes produced by :func:`encode`.

    Any malformation — truncation, bad utf-8, unknown tags, trailing
    bytes — surfaces as :class:`~repro.net.errors.ProtocolError`; lower
    level exceptions (``struct.error``, ``IndexError``) never escape.
    """
    value, pos = _decode_from(data, 0)
    if pos != len(data):
        from repro.net.errors import ProtocolError

        raise ProtocolError("trailing bytes after decoded value")
    return value


def make_reader(data: "bytes | bytearray | memoryview"):
    """Build a resumable cursor decoder over ``data``.

    Returns ``(rd, tell, seek)``: ``rd()`` decodes the value at the
    cursor and advances past it, ``tell()`` reports the cursor, and
    ``seek(pos)`` moves it.  One reader amortizes the closure setup over
    every payload field of a frame (the message layer's fused batch
    parser interleaves scaffold parsing with payload ``rd()`` calls).
    ``rd`` raises :class:`~repro.net.errors.ProtocolError` for
    malformations it detects itself but lets ``struct.error`` /
    ``IndexError`` / ``UnicodeDecodeError`` escape on truncation —
    callers must convert those like :func:`decode` does.
    """
    from repro.net.errors import ProtocolError

    end = len(data)
    pos = 0
    unpack_i64 = _I64.unpack_from
    unpack_f64 = _F64.unpack_from
    unpack_u32 = _U32.unpack_from

    def rd() -> Any:
        # The cursor lives in the enclosing cell; struct.unpack_from and
        # buffer indexing raise on truncation and are converted to
        # ProtocolError by the caller below.  Slices silently truncate, so
        # the variable-length arms bounds-check explicitly.
        nonlocal pos
        tag = data[pos]
        pos += 1
        if tag == _T_STR:
            (n,) = unpack_u32(data, pos)
            stop = pos + 4 + n
            if stop > end:
                raise ProtocolError("truncated wire data")
            text = str(data[pos + 4 : stop], "utf-8")
            pos = stop
            return text
        if tag == _T_INT:
            (v,) = unpack_i64(data, pos)
            pos += 8
            return v
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_LIST:
            (n,) = unpack_u32(data, pos)
            if n > end - pos:  # each element is at least one tag byte
                raise ProtocolError("truncated wire data")
            pos += 4
            return [rd() for _ in range(n)]
        if tag == _T_DICT:
            (n,) = unpack_u32(data, pos)
            if n > end - pos:
                raise ProtocolError("truncated wire data")
            pos += 4
            result = {}
            for _ in range(n):
                (klen,) = unpack_u32(data, pos)
                stop = pos + 4 + klen
                if stop > end:
                    raise ProtocolError("truncated wire data")
                key = str(data[pos + 4 : stop], "utf-8")
                pos = stop
                result[key] = rd()
            return result
        if tag == _T_FLOAT:
            (v,) = unpack_f64(data, pos)
            pos += 8
            return v
        if tag == _T_BYTES:
            (n,) = unpack_u32(data, pos)
            stop = pos + 4 + n
            if stop > end:
                raise ProtocolError("truncated wire data")
            blob = bytes(data[pos + 4 : stop])
            pos = stop
            return blob
        if tag == _T_BIGINT:
            (n,) = unpack_u32(data, pos)
            stop = pos + 4 + n
            if stop > end:
                raise ProtocolError("truncated wire data")
            try:
                number = int(bytes(data[pos + 4 : stop]).decode("ascii"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(
                    f"malformed bigint on the wire: {exc}"
                ) from None
            pos = stop
            return number
        raise ProtocolError(f"unknown wire tag {bytes([tag])!r}")

    def tell() -> int:
        return pos

    def seek(p: int) -> None:
        nonlocal pos
        pos = p

    return rd, tell, seek


def _decode_from(
    data: "bytes | bytearray | memoryview", start: int
) -> tuple[Any, int]:
    from repro.net.errors import ProtocolError

    rd, tell, seek = make_reader(data)
    seek(start)
    try:
        value = rd()
    except ProtocolError:
        raise
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid utf-8 on the wire: {exc}") from None
    except (struct.error, IndexError):
        raise ProtocolError("truncated wire data") from None
    return value, tell()

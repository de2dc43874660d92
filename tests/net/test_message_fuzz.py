"""Wire-format hardening: codec parity with an oracle, malformed-frame fuzzing.

The message codec in :mod:`repro.net.messages` writes and walks envelope
scaffold bytes directly.  These tests pin it, byte for byte and message
for message, to a small reference implementation kept in this file —
plain envelope lists through the generic ``encode()``/``decode()`` — then
fuzz mutated frames to prove every malformation surfaces as
:class:`ProtocolError`, never an ``IndexError``/``TypeError``/
``struct.error`` that would kill a server handler thread.
"""

import random

import pytest

from repro.net.codec import decode, encode
from repro.net.errors import ProtocolError
from repro.net.messages import (
    Batch,
    Hello,
    Request,
    Response,
    encode_message_into,
    message_from_bytes,
)
from tests.net._wire import raw_connect, recv_message, send_frame

# Representative messages: every envelope form the protocol can emit,
# plus payload variety (nested lists, dicts, bytes, unicode, bigints).
MESSAGES = [
    Request("lrc_add", ("lfn", "pfn")),
    Request("m", (), trace=("t" * 16, "s" * 8)),
    Request("bulk", ([["a", 1], ["b", 2]], {"k": [1, 2.5, None]}), id=7),
    Request("väx", (b"\x00\xff" * 9, 2**70), trace=None, id=1),
    Response.success([1, 2, 3]),
    Response.success({"rows": [["x", "y"]]}, id=99),
    Response.failure(ValueError("bad value"), id=3),
    Response.failure(KeyError("missing")),
    Response(True, None, "", "", 12),
    Hello(version=2, credential=b"cert", attributes={"site": "cern"}),
    Batch(
        (
            Request("echo", (1,), id=1),
            Request("echo", ("two",), trace=("tr", "sp"), id=2),
            Request("no_id", ("classic",)),
            Response.success("pipelined", id=1),
            Response(True, [b"blob"], "", "", 2),
            Response.failure(RuntimeError("boom"), id=3),
            Response(False, None, "E", "m"),
        )
    ),
    Batch(()),
    Batch(tuple(Request("m", (i,), id=i + 1) for i in range(64))),
]


def wire(message) -> bytes:
    out = bytearray()
    encode_message_into(out, message)
    return bytes(out)


# -- the oracle: docs/PROTOCOL.md's envelope table, written the obvious way --


def oracle_envelope(message) -> list:
    if isinstance(message, Request):
        return [0, message.method, message.args, message.trace or (), message.id]
    if isinstance(message, Response):
        compact = (
            message.ok
            and message.id is not None
            and not message.error_type
            and not message.error_message
        )
        if compact:
            return [1, True, message.value, message.id]
        return [
            1,
            message.ok,
            message.value,
            message.error_type,
            message.error_message,
            message.id,
        ]
    if isinstance(message, Hello):
        return [2, message.version, message.credential, message.attributes]
    assert isinstance(message, Batch)
    return [3, [oracle_envelope(item) for item in message.items]]


def oracle_message(envelope: list):
    kind = envelope[0]
    if kind == 0:
        _, method, args, trace, request_id = envelope
        return Request(method, tuple(args), tuple(trace) or None, request_id)
    if kind == 1 and len(envelope) == 4:
        return Response(True, envelope[2], "", "", envelope[3])
    if kind == 1:
        return Response(*envelope[1:])
    if kind == 2:
        return Hello(*envelope[1:])
    assert kind == 3
    return Batch(tuple(oracle_message(item) for item in envelope[1]))


class TestFusedCodecParity:
    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_fused_encoding_matches_generic(self, message):
        assert wire(message) == encode(oracle_envelope(message))
        assert message.to_bytes() == wire(message)

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_roundtrip(self, message):
        assert message_from_bytes(wire(message)) == message

    def test_fused_parse_matches_generic_parse(self):
        for message in MESSAGES:
            frame = wire(message)
            assert message_from_bytes(frame) == oracle_message(decode(frame))

    def test_memoryview_input(self):
        for message in MESSAGES:
            assert message_from_bytes(memoryview(wire(message))) == message


class TestCompactResponseForm:
    def test_compact_form_used_for_id_bearing_success(self):
        assert decode(wire(Response.success("v", id=5))) == [1, True, "v", 5]

    def test_failure_never_compact(self):
        envelope = decode(wire(Response.failure(ValueError("x"), id=5)))
        assert len(envelope) == 6

    def test_idless_success_uses_full_form(self):
        # The handshake reply: no request to correlate with, so no id, and
        # the compact form (whose id is mandatory) does not apply.
        assert decode(wire(Response.success("v"))) == [1, True, "v", "", "", None]

    def test_compact_requires_true(self):
        with pytest.raises(ProtocolError):
            message_from_bytes(encode([1, False, "v", 5]))

    def test_compact_requires_id(self):
        with pytest.raises(ProtocolError):
            message_from_bytes(encode([1, True, "v", None]))

    def test_compact_rejects_non_int_id(self):
        with pytest.raises(ProtocolError):
            message_from_bytes(encode([1, True, "v", "id"]))

    def test_compact_inside_batch(self):
        frame = encode([3, [[1, True, "v", 5]]])
        batch = message_from_bytes(frame)
        assert batch == Batch((Response(True, "v", "", "", 5),))
        with pytest.raises(ProtocolError):
            message_from_bytes(encode([3, [[1, True, "v", None]]]))


class TestDefensiveValidation:
    @pytest.mark.parametrize(
        "envelope",
        [
            [],  # empty
            [9, "x"],  # unknown kind
            "not a list",
            [0],  # request too short
            [0, "m", "args-not-list", [], 1],
            [0, 42, [], [], 1],  # non-str method
            [0, "m", [], "trace-not-list", 1],
            [0, "m", [], ["only-one"], 1],
            [0, "m", [], [1, 2], 1],  # non-str trace parts
            [0, "m", [], [], "id"],  # non-int id
            [1, True],  # response too short
            [1, "yes", None, "", "", 1],  # non-bool ok
            [1, True, None, 7, "", 1],  # non-str error_type
            [1, True, None, "", "", "id"],  # non-int id
            [1, True, None, "", "", 1, 2],  # too long
            [2, "v", None, {}],  # non-int hello version
            [2, 1, "cred", {}],  # non-bytes credential
            [2, 1, None, []],  # non-dict attributes
            [2, 1, None, {}, 5],  # hello too long
            [3, "items"],  # batch items not a list
            [3, [["x"]]],  # batch item bad kind
            [3, [[2, 1, None, {}]]],  # hello inside batch
            [3, [[3, []]]],  # nested batch
            [3, [42]],  # batch item not a list
            [0, "m", []],  # v1 request: no trace, no id
            [0, "m", [], ["t", "s"]],  # v1 request with trace
            [1, True, "v", "", ""],  # v1 response: no id field
            [3, [[0, "m", []]]],  # v1 request inside a batch
            [2**70, "m", [], [], 1],  # kind not a 64-bit int
        ],
    )
    def test_bad_envelope_is_protocol_error(self, envelope):
        with pytest.raises(ProtocolError):
            message_from_bytes(encode(envelope))


def _mutations(frame: bytes, rng: random.Random, count: int):
    """Deterministic corpus of corrupted variants of ``frame``."""
    for _ in range(count):
        mode = rng.randrange(4)
        data = bytearray(frame)
        if mode == 0 and data:  # flip a byte
            i = rng.randrange(len(data))
            data[i] ^= 1 << rng.randrange(8)
        elif mode == 1:  # truncate
            data = data[: rng.randrange(len(data) + 1)]
        elif mode == 2:  # append junk
            data += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 5)))
        else:  # splice a random chunk over the middle
            if len(data) >= 4:
                i = rng.randrange(len(data) - 2)
                data[i : i + 2] = bytes(
                    rng.randrange(256) for _ in range(rng.randrange(4))
                )
        yield bytes(data)


class TestMutationFuzz:
    def test_decoder_never_leaks_low_level_errors(self):
        rng = random.Random(0xC0DEC)
        for message in MESSAGES:
            frame = wire(message)
            for mutant in _mutations(frame, rng, 400):
                try:
                    decoded = message_from_bytes(mutant)
                except ProtocolError:
                    continue
                # A mutant that still decodes must yield a real message
                # object (e.g. a flipped payload byte), never garbage.
                assert isinstance(decoded, (Request, Response, Hello, Batch))

    def test_codec_decode_is_hardened_too(self):
        rng = random.Random(0xBEEF)
        frame = encode(
            ["deep", [1, [2, [3.5, {"k": b"v"}]]], 2**80, None, True]
        )
        for mutant in _mutations(frame, rng, 1500):
            try:
                decode(mutant)
            except ProtocolError:
                continue


class TestFuzzOverTCP:
    def test_handler_threads_survive_malformed_frames(self):
        from repro.net.rpc import RPCClient, RPCServer
        from repro.net.transport import TCPServerTransport, connect_tcp

        server = RPCServer()
        server.register("ping", lambda ctx, args: "pong")
        transport = TCPServerTransport(server, "127.0.0.1", 0)
        rng = random.Random(0xF22)
        base = Request("ping", (), id=1).to_bytes()
        try:
            for mutant in _mutations(base, rng, 40):
                with raw_connect(transport) as sock:
                    recv_message(sock)  # welcome
                    send_frame(sock, mutant)
                    try:
                        reply = recv_message(sock)
                    except Exception:
                        # Mutants that still parse as requests are simply
                        # answered; connection-fatal mutants close after
                        # the typed error below — either way the server
                        # must not wedge.
                        continue
                    assert isinstance(reply, Response)
                    if not reply.ok:
                        assert reply.error_type in (
                            "ProtocolError",
                            "NoSuchMethodError",
                        )
            # Every handler thread survived: a fresh client still works.
            with RPCClient(
                connect_tcp(transport.host, transport.port)
            ) as client:
                assert client.call("ping") == "pong"
            assert server.inflight == 0
        finally:
            transport.close()

"""Raw-socket helpers for tests that speak the wire protocol by hand.

Production code frames messages through ``_FrameIO`` only; tests that
need to put *arbitrary bytes* in a frame (garbage, mutants, an old
Hello) build the 4-byte length prefix themselves.
"""

import socket
import struct
import threading

from repro.net.errors import TransportClosedError
from repro.net.messages import Hello, message_from_bytes
from repro.net.transport import _FrameIO

IO_TIMEOUT = 5.0


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack("<I", len(payload)) + payload)


def recv_message(sock: socket.socket):
    return message_from_bytes(_FrameIO().recv_frame(sock))


def raw_connect(transport, hello: Hello | None = None) -> socket.socket:
    """Connect to ``transport`` and send ``hello`` (current version by
    default); the caller reads the handshake reply."""
    sock = socket.create_connection(
        (transport.host, transport.port), timeout=IO_TIMEOUT
    )
    send_frame(sock, (hello or Hello()).to_bytes())
    return sock


class StubServer:
    """A listener that reads each connection's Hello, answers with one
    fixed reply and hangs up — a peer that is not this build's server."""

    def __init__(self, reply) -> None:
        self._reply = reply.to_bytes()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._listener.getsockname()[:2]
        self.hellos: list = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(IO_TIMEOUT)
                try:
                    self.hellos.append(recv_message(conn))
                    send_frame(conn, self._reply)
                except (TransportClosedError, OSError):
                    continue

    def close(self) -> None:
        # shutdown() wakes the thread parked in accept(); close() alone
        # does not on every platform.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=IO_TIMEOUT)
        assert not self._thread.is_alive()

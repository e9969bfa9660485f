"""The client takes no larger frame than the listener does.

A reply header is a uint32 a peer chose.  The client used to allocate a
body buffer of whatever size it named; now it holds replies to the same
``DEFAULT_MAX_MESSAGE`` the listener holds requests to, and a header past
it fails the pending call typed before anything is allocated.
"""

import socket
import struct
import threading
import tracemalloc

import pytest

from repro.transport.base import TransportMessage
from repro.transport.reactor import DEFAULT_MAX_MESSAGE
from repro.transport.tcp import TcpTransport
from repro.util.errors import TransportError


@pytest.fixture
def oversize_peer():
    """Answers each connection's first bytes with a header naming ~4 GiB."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(4)
    conns = []

    def serve() -> None:
        while True:
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            conns.append(conn)
            try:
                conn.recv(65536)
                conn.sendall(struct.pack(">I", 0xFFFFFFF0) + b"\0" * 8)
            except OSError:
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield srv.getsockname()[1]
    srv.shutdown(socket.SHUT_RDWR)  # wakes the accept() that close() alone would not
    srv.close()
    for conn in conns:
        conn.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_oversize_reply_header_fails_typed_without_the_allocation(oversize_peer):
    transport = TcpTransport(f"tcp://127.0.0.1:{oversize_peer}")
    tracemalloc.start()
    try:
        with pytest.raises(TransportError, match=f"exceeds the {DEFAULT_MAX_MESSAGE} byte cap"):
            transport.request(TransportMessage("text/plain", b"ping"), timeout=5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        transport.close()
    assert peak < 1 << 20

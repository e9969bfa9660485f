"""The HTTP client against a stock HTTP/1.1 server, and what a call costs.

Replies from the standard library's ``http.server`` with ``Content-Length``,
chunked and close-delimited bodies, and after a ``100 Continue``, decode
to the payload ``http.client`` reads from the same server; a reply marked
``Connection: close`` makes the next call dial again.  A round trip to an
:class:`HttpListener` costs the calling thread a pinned number of Python
calls, none of them in ``http.client`` or ``email``.
"""

import http.client
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.transport import HttpListener, HttpTransport, TransportMessage
from repro.util.errors import TransportError

BODY = bytes(range(256)) * 40  # 10 KiB: several chunks, several reads


class Handler(BaseHTTPRequestHandler):
    """Echoes the request body back, framed the way the path names."""

    protocol_version = "HTTP/1.1"
    connections: list = []  # one entry per connection the server accepted

    def setup(self):
        super().setup()
        self.connections.append(self.client_address)

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        framing = self.path.strip("/")
        if framing == "continue":
            self.send_response_only(100)
            self.end_headers()
        self.send_response(200)
        self.send_header("Content-Type", "application/x-echo")
        if framing == "chunked":
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for start in range(0, len(body), 4000):
                piece = body[start:start + 4000]
                self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
            self.wfile.write(b"0\r\n\r\n")
            return
        if framing == "until-close":
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = True
            return
        self.send_header("Content-Length", str(len(body)))
        if framing == "closing":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def stock_server():
    Handler.connections = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(5.0)
    assert not thread.is_alive()


def stdlib_reply(server, path: str) -> tuple[int, str, bytes]:
    connection = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        connection.request("POST", path, body=BODY, headers={"Content-Type": "t/x"})
        response = connection.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        connection.close()


@pytest.mark.parametrize("framing", ["length", "chunked", "until-close", "continue"])
def test_each_framing_decodes_to_what_http_client_reads(stock_server, framing):
    host, port = stock_server.server_address
    status, content_type, want = stdlib_reply(stock_server, f"/{framing}")
    assert (status, want) == (200, BODY)
    transport = HttpTransport(f"http://{host}:{port}/{framing}")
    try:
        for _ in range(2):
            reply = transport.request(TransportMessage("t/x", BODY), timeout=5.0)
            assert reply.content_type == content_type
            assert bytes(reply.payload) == want
    finally:
        transport.close()


def test_a_reply_marked_connection_close_makes_the_next_call_redial(stock_server):
    host, port = stock_server.server_address
    keep = HttpTransport(f"http://{host}:{port}/length")
    closing = HttpTransport(f"http://{host}:{port}/closing")
    try:
        for _ in range(3):
            assert bytes(keep.request(TransportMessage("t/x", BODY), timeout=5.0).payload) == BODY
        assert len(Handler.connections) == 1  # keep-alive: one connection
        for _ in range(3):
            assert bytes(closing.request(TransportMessage("t/x", BODY), timeout=5.0).payload) == BODY
        assert len(Handler.connections) == 4  # one dial per call
    finally:
        keep.close()
        closing.close()


def test_a_response_cut_short_is_a_transport_error_not_a_retry():
    """The peer closes mid-body: the call fails, and is not sent again (a
    second dial would wait in the listen backlog and time out instead)."""
    import socket

    listen = socket.create_server(("127.0.0.1", 0))
    requests = []

    def serve():
        conn, _addr = listen.accept()
        with conn:
            requests.append(conn.recv(65536))
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    transport = HttpTransport(f"http://127.0.0.1:{listen.getsockname()[1]}/")
    try:
        with pytest.raises(TransportError, match="mid-response"):
            transport.request(TransportMessage("t/x", b"x"), timeout=5.0)
    finally:
        transport.close()
        listen.close()
        thread.join(5.0)
    assert not thread.is_alive() and len(requests) == 1


def test_a_post_costs_the_caller_a_pinned_count_and_no_stdlib_http():
    """50 round trips under ``sys.setprofile`` on the calling thread: at
    most 30 Python calls each (``http.client`` made 120), none of them in
    ``http/client.py`` or the ``email`` package."""
    listener = HttpListener(lambda message: TransportMessage("text/xml", b"r" * 100))
    transport = HttpTransport(listener.url)
    message = TransportMessage("text/xml", b"q" * 100)
    calls, files = [0], set()

    def profile(frame, event, _arg):
        if event == "call":
            calls[0] += 1
            files.add(frame.f_code.co_filename)

    try:
        for _ in range(10):
            transport.request(message, timeout=5.0)
        sys.setprofile(profile)
        try:
            for _ in range(50):
                transport.request(message, timeout=5.0)
        finally:
            sys.setprofile(None)
    finally:
        transport.close()
        listener.close()
    assert calls[0] / 50 <= 30, calls[0] / 50
    stdlib_http = [f for f in files if f.endswith("http/client.py") or "/email/" in f]
    assert stdlib_http == []

"""HTTP transport — the carrier for the standard SOAP binding.

"HTTP is an excellent choice for point to point communication due to its
ubiquitous availability and the fact that it is traditionally tolerable to
firewalls.  However, in case of components running in the same local system,
exchange of data through an HTTP server and TCP/IP stack is an obvious
overhead." (Section 5.)  This module is that overhead, implemented honestly:
full request/status/header parsing per message, in both directions, on the
transport's own framing.  One function (:func:`_parse_head`) parses a header
block — the request line or the status line, and the headers — for the
server's request parser and the client's response parser.  Both are
:class:`~repro.transport.reactor.MessageParser` s: a ``Content-Length`` body
that arrived whole is copied out once, and one that did not gets a body
buffer of its own and is received in place, as a TCP v2 frame is.

The client, :class:`HttpTransport`, keeps one keep-alive socket with Nagle
off.  A request is one scatter-gather ``sendmsg`` of the header block and
the payload; the response is read the way
:class:`~repro.transport.tcp.FrameReader` reads a frame, through one reused
receive buffer into the response parser.  That parser takes
``Content-Length``, chunked and close-delimited bodies and skips ``1xx``
interim responses; a response that ends its connection (``Connection:
close``, HTTP/1.0, a close-delimited body) makes the next call dial again.
A call's timeout bounds every wait on the open connection; a call that runs
out of it raises :class:`~repro.util.errors.HarnessTimeoutError` and drops
the connection.  A keep-alive connection that dies before any byte of the
response is retried once on a fresh one.

The server side is the reactor core's listener
(:class:`~repro.transport.reactor.ReactorListener`) with GET routes: pool
threads wait on one read epoll holding every keep-alive connection, and
the one woken reads, parses and answers the request itself; admission
control sheds overload with an immediate ``503 Service Unavailable``
(clients raise it as :class:`~repro.util.errors.ServerBusyError`).
"""

from __future__ import annotations

import re
import select
import socket
import threading
from http import HTTPStatus

from repro.obs import trace as _trace
from repro.transport import reactor as _reactor
from repro.transport.base import RequestHandler, TransportMessage, parse_address
from repro.transport.tcp import _send_buffers
from repro.util.errors import (
    HarnessTimeoutError,
    ServerBusyError,
    TransportClosedError,
    TransportError,
)

__all__ = ["HttpListener", "HttpTransport"]

#: Ceiling on a header block (and on a chunk-size line or a trailer); a peer
#: that never finishes one within this many bytes is protocol-broken, not
#: just slow.
_MAX_HEADER_BYTES = 64 * 1024

#: Size of a client's reused receive buffer; a response up to this size,
#: head and body, arrives in one ``recv_into``.
_RECV_BUFFER = 16 * 1024

_BUSY_BODY = b"server at capacity: request shed at admission"

_BLANK_LINE = re.compile(b"\r\n\r\n")
_CRLF = re.compile(b"\r\n")
_HEX = frozenset(b"0123456789abcdefABCDEF")


def _parse_head(block, request: bool, cap: int) -> tuple:
    """Parse a header block (its blank line cut off) as ``(first, second,
    third, headers, length, close)``.

    The three fields are a request line's method, target and version when
    *request*, else a status line's version, status and reason.  Header
    names are lower-cased; ``length`` is the ``Content-Length`` (``None``
    when absent, a :class:`TransportError` when not digits or over *cap*)
    and ``close`` whether the connection ends after this message.
    """
    lines = str(block, "latin-1").split("\r\n")
    if request:
        fields = lines[0].split()
        valid = len(fields) == 3 and fields[2].startswith("HTTP/")
    else:
        fields = lines[0].split(None, 2) + [""]  # the reason may be empty
        valid = (len(fields) > 2 and fields[0].startswith("HTTP/")
                 and len(fields[1]) == 3 and fields[1].isascii() and fields[1].isdigit())
    if not valid:
        kind = "request" if request else "status"
        raise TransportError(f"bad http {kind} line: {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is not None:
        if not (length.isascii() and length.isdigit()):
            raise TransportError(f"bad content-length: {length!r}")
        length = int(length)
        if length > cap:
            raise TransportError(f"http body of {length} bytes out of range")
    version = fields[2] if request else fields[0]
    connection = headers.get("connection", "").lower()
    close = connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")
    return fields[0], fields[1], fields[2], headers, length, close


class _HttpParser(_reactor.MessageParser):
    """Incremental HTTP/1.1 reassembly of one direction's messages.

    A header block is variable-length, so the bytes of one cut short are
    held over to the next read (up to :data:`_MAX_HEADER_BYTES`); a whole
    one is parsed where it landed.  A ``Content-Length`` body is copied out
    once when it is all here, else received in place into a body buffer.
    Requests are framed by ``Content-Length`` only: chunked uploads are not
    part of the SOAP contract.
    """

    __slots__ = ("_held", "_head", "_max", "_routes")

    _request = True

    def __init__(self, routes: dict | None = None,
                 max_message: int = _reactor.DEFAULT_MAX_MESSAGE):
        super().__init__()
        self._held = b""
        self._head: tuple | None = None  # the head whose body is arriving
        self._max = max_message
        self._routes = routes

    @property
    def mid_message(self) -> bool:
        return self._body is not None or bool(self._held)

    def feed(self, data: memoryview) -> list:
        if self._held:
            data = memoryview(self._held + bytes(data))
            self._held = b""
        out: list = []
        pos, end = 0, len(data)
        while pos < end:
            at = self._step(data, pos, end, out)
            if at is None:  # the rest is the start of a head or a line
                if end - pos > _MAX_HEADER_BYTES:
                    raise TransportError("http header block too large")
                self._held = bytes(data[pos:end])
                break
            pos = at
        return out

    def _step(self, data: memoryview, pos: int, end: int, out: list) -> int | None:
        """Parse the head at *pos* and its body; return where the next
        message starts, or ``None`` when the head is not all here."""
        found = _BLANK_LINE.search(data, pos, end)
        if found is None:
            return None
        head = self._head = _parse_head(data[pos:found.start()], self._request, self._max)
        need = self._framing(head)
        if need is None:  # no body here: the stream goes on past the head
            return found.end()
        return self._body_at(data, found.end(), end, need, out)

    def _framing(self, head: tuple) -> int | None:
        """The length of the body behind *head*."""
        return head[4] or 0

    def _body_at(self, data: memoryview, pos: int, end: int, need: int, out: list) -> int:
        """Take a *need*-byte body at *pos*: whole, or into a body buffer."""
        if end - pos < need:
            self._start_body(data[pos:end], need)
            return end
        out += self.body_done(bytes(data[pos:pos + need]))
        return pos + need

    def body_done(self, body) -> list:
        # a body buffer is exactly the declared length: hand over its bytearray
        payload = body.obj if isinstance(body, memoryview) else body
        method, path, _version, headers, _length, close = self._head
        return [_HttpJob(method, path, headers, payload, close, self._routes)]


class _ResponseParser(_HttpParser):
    """The client's side: responses come out as ``(status, content_type,
    payload, close)``.

    Past the head the body is framed by, in this order: no body (``1xx``,
    which is skipped, ``204`` and ``304``), ``Transfer-Encoding: chunked``
    (each chunk received like a ``Content-Length`` body), ``Content-Length``,
    or the end of the stream (:meth:`end_of_stream`), all under the byte cap.
    """

    __slots__ = ("_mode", "_parts", "_size")

    _request = False

    def __init__(self, max_message: int = _reactor.DEFAULT_MAX_MESSAGE):
        super().__init__(None, max_message)
        self._mode: str | None = None  # past a head: "chunk", "trailer", "close"
        self._parts: list = []  # the body so far, in chunked and close modes
        self._size = 0

    @property
    def mid_message(self) -> bool:
        return self._body is not None or bool(self._held) or self._mode is not None

    def _framing(self, head: tuple) -> int | None:
        status, headers = head[1], head[3]
        if status[0] == "1":
            return None  # an interim response: the real one follows
        if status in ("204", "304"):
            return 0
        coding = headers.get("transfer-encoding")
        if coding is not None:
            if coding.lower() != "chunked":
                raise TransportError(f"unsupported transfer-encoding: {coding!r}")
            self._mode = "chunk"
        elif head[4] is not None:
            return head[4]
        else:
            self._mode = "close"
        self._parts, self._size = [], 0
        return None

    def _step(self, data: memoryview, pos: int, end: int, out: list) -> int | None:
        mode = self._mode
        if mode is None:
            return super()._step(data, pos, end, out)
        if mode == "close":
            self._add(data[pos:end])
            return end
        if mode == "trailer":  # optional header lines, then a blank line
            found = _BLANK_LINE.search(data, pos, end)
            if found is None:
                return None
            out += self._finish()
            return found.end()
        found = _CRLF.search(data, pos, end)  # the chunk-size line
        if found is None:
            return None
        line = bytes(data[pos:found.start()])
        size = line.partition(b";")[0].strip()
        if not size or not _HEX.issuperset(size):
            raise TransportError(f"bad chunk size line: {line[:80]!r}")
        size = int(size, 16)
        if not size:
            self._mode = "trailer"
            return found.start()  # its CRLF ends the trailer when none follows
        pos = found.end()
        if self._size + size > self._max:
            raise TransportError(f"http body of over {self._max} bytes out of range")
        return self._body_at(data, pos, end, size + 2, out)  # the data and its CRLF

    def body_done(self, body) -> list:
        if self._mode == "chunk":
            if body[-2:] != b"\r\n":
                raise TransportError("chunk data not followed by CRLF")
            self._add(body[:-2])
            return []
        payload = body.obj if isinstance(body, memoryview) else body
        return self._response(payload, self._head[5])

    def _add(self, piece: memoryview) -> None:
        self._size += len(piece)
        if self._size > self._max:
            raise TransportError(f"http body of over {self._max} bytes out of range")
        self._parts.append(bytes(piece))

    def _finish(self) -> list:
        """The chunked or close-delimited body is complete."""
        close = self._head[5] or self._mode == "close"
        payload = b"".join(self._parts)
        self._mode, self._parts = None, []
        return self._response(payload, close)

    def _response(self, payload, close: bool) -> list:
        head = self._head
        return [(int(head[1]), head[3].get("content-type", "application/octet-stream"),
                 payload, close)]

    def end_of_stream(self) -> list:
        """The peer closed: a close-delimited body ends here; any other
        message cut short is a :class:`TransportError`."""
        if self._mode == "close":
            return self._finish()
        if self.mid_message:
            raise TransportError("connection closed mid-response")
        return []


# -- server side ---------------------------------------------------------------


def _head(status: int, content_type: str, length: int, close: bool,
          extra: str = "") -> bytes:
    return (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n"
        f"{extra}"
        f"{'Connection: close' + chr(13) + chr(10) if close else ''}"
        "\r\n"
    ).encode("latin-1")


class _HttpJob(_reactor.Job):
    """One parsed HTTP request awaiting dispatch on a pool thread."""

    __slots__ = ("method", "path", "headers", "body", "close_after", "_routes")

    def __init__(self, method: str, path: str, headers: dict[str, str],
                 body: bytes, close_after: bool, routes: dict):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.close_after = close_after
        self._routes = routes

    def _respond(self, status: int, content_type: str, body) -> tuple:
        return (_head(status, content_type, len(body), self.close_after), body)

    def busy_reply(self) -> tuple:
        return (
            _head(503, "text/plain", len(_BUSY_BODY), self.close_after,
                  extra="Retry-After: 1\r\n"),
            _BUSY_BODY,
        )

    def run(self, app_handler):
        if self.method == "GET":
            route = self._routes.get(self.path.partition("?")[0])
            if route is None:
                return self._respond(404, "text/plain", b"not found")
            try:
                content_type, body = route()
            except Exception as exc:  # route errors answer 500, never crash
                return self._respond(500, "text/plain", str(exc).encode("utf-8"))
            return self._respond(200, content_type, body)
        if self.method != "POST":
            return self._respond(405, "text/plain", b"method not allowed")
        content_type = self.headers.get("content-type", "application/octet-stream")
        message = TransportMessage(content_type, self.body)
        token = None
        if _trace.ENABLED:
            header = self.headers.get(_trace.TRACE_HEADER.lower())
            if header:
                try:
                    token = _trace.activate(_trace.from_header(header))
                except Exception:  # noqa: BLE001 — any mangled/truncated
                    token = None  # header must never fail the request
        try:
            response = app_handler(message)
            status = 200
        except Exception as exc:
            response = TransportMessage("text/plain", str(exc).encode("utf-8"))
            status = 500
        finally:
            if token is not None:
                _trace.deactivate(token)
        return self._respond(status, response.content_type, response.payload)


class HttpListener(_reactor.ReactorListener):
    """An HTTP POST endpoint; URL scheme ``http://host:port/``.

    GET side-channels — pages that report rather than invoke — register
    via :meth:`add_get_route`; a route is a no-argument callable returning
    ``(content_type, body_bytes)``.

    The knobs are :class:`~repro.transport.tcp.TcpListener`'s: pool threads
    read and answer keep-alive connections off one read epoll, admission
    control sheds overload with 503, and slow-loris peers are dropped at
    the read deadline.
    """

    scheme = "http"
    name = "http-reactor"

    def __init__(self, handler: RequestHandler, *args, **knobs):
        self._get_routes: dict[str, object] = {}
        super().__init__(handler, *args, **knobs)

    def new_parser(self) -> _HttpParser:
        return _HttpParser(self._get_routes)

    @property
    def url(self) -> str:
        return super().url + "/"

    def add_get_route(self, path: str, route) -> None:
        """Serve GET *path* from *route* ``() -> (content_type, bytes)``."""
        if not path.startswith("/"):
            raise TransportError(f"GET route path must start with '/': {path!r}")
        self._get_routes[path] = route


# -- client side ---------------------------------------------------------------


class HttpTransport:
    """Client POSTing payloads to an :class:`HttpListener` (keep-alive)."""

    #: Failures meaning the keep-alive connection went stale while idle —
    #: the server closed it before (or instead of) answering, so no response
    #: was received and one transparent retry on a fresh connection is safe.
    _STALE_ERRORS = (ConnectionResetError, BrokenPipeError)

    def __init__(self, url: str, connect_timeout: float = 5.0):
        host, port, path = parse_address(url, "http")
        self._url = url
        self._address = (host, port)
        self._start = f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\nContent-Type: "
        self._lock = threading.Lock()
        self._connect_timeout = connect_timeout
        self._budget = connect_timeout  # the running call's timeout
        self._sock: socket.socket | None = None
        self._poll: select.poll | None = None  # these two belong to _sock
        self._parser: _ResponseParser | None = None
        self._rbuf = memoryview(bytearray(_RECV_BUFFER))
        self._closed = False

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=self._budget)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)  # every wait is an explicit poll with the budget
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)
        self._parser = _ResponseParser()
        self._sock = sock
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _round_trip(self, message: TransportMessage) -> tuple:
        """POST *message* on the open connection (dialled when there is
        none) and read its response as ``(status, content_type, payload)``."""
        sock = self._sock or self._dial()
        payload = message.payload
        trace = ""
        if _trace.ENABLED:
            ctx = _trace.current()
            if ctx is not None:
                trace = f"{_trace.TRACE_HEADER}: {_trace.to_header(ctx)}\r\n"
        head = f"{self._start}{message.content_type}\r\nContent-Length: {len(payload)}\r\n{trace}\r\n"
        _send_buffers(sock, (head.encode("latin-1"), payload), self._budget)
        status, content_type, body, close = self._read_response(sock)
        if close:
            self._drop()
        return status, content_type, body

    def _read_response(self, sock: socket.socket) -> tuple:
        """The next response on *sock*: each wait for bytes gets the call's
        budget.  A stream that ends before the response's first byte raises
        :class:`ConnectionResetError` (stale, retried); after it, the stream
        may end only a close-delimited body."""
        parser, rbuf, recv_into = self._parser, self._rbuf, sock.recv_into
        wait_ms = max(0.0, self._budget) * 1e3
        seen = False
        while True:
            if not self._poll.poll(wait_ms):
                raise TimeoutError("timed out")
            try:
                n, _full, got = parser.receive(recv_into, rbuf)
            except (BlockingIOError, InterruptedError):
                continue  # spurious wake-up
            except ConnectionResetError as exc:
                if seen:
                    raise TransportError(f"connection reset mid-response: {exc}") from exc
                raise
            if not n:
                if not seen:
                    raise ConnectionResetError("peer closed the connection before answering")
                got = parser.end_of_stream()
                if got:
                    return got[0][:3] + (True,)
                raise TransportError("connection closed before a response")
            seen = True
            if got:
                # bytes past the one response we asked for poison the stream
                return got[0][:3] + (got[0][3] or len(got) > 1 or parser.mid_message,)

    def request(self, message: TransportMessage, timeout: float | None = None) -> TransportMessage:
        with self._lock:
            if self._closed:
                raise TransportClosedError("transport closed")
            # the budget of this call, on the open socket as well as at a connect
            self._budget = self._connect_timeout if timeout is None else timeout
            try:
                try:
                    status, content_type, payload = self._round_trip(message)
                except self._STALE_ERRORS:
                    # stale persistent connection: reconnect and retry once,
                    # instead of surfacing a transport fault to the policy layer
                    self._drop()
                    status, content_type, payload = self._round_trip(message)
            except TimeoutError as exc:
                self._drop()  # its late reply must not answer the next request
                raise HarnessTimeoutError(f"http request to {self._url} timed out") from exc
            except (TransportError, OSError) as exc:
                self._drop()
                raise TransportError(f"http request to {self._url} failed: {exc}") from exc
        if status == 503:
            raise ServerBusyError(
                f"{self._url} shed the request: "
                f"{bytes(payload).decode('utf-8', 'replace')[:200]}"
            )
        if status != 200:
            raise TransportError(
                f"http {status} from {self._url}: "
                f"{bytes(payload).decode('utf-8', 'replace')[:200]}"
            )
        return TransportMessage(content_type, payload)

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._drop()

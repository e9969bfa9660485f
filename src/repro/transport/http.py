"""HTTP transport — the carrier for the standard SOAP binding.

"HTTP is an excellent choice for point to point communication due to its
ubiquitous availability and the fact that it is traditionally tolerable to
firewalls.  However, in case of components running in the same local system,
exchange of data through an HTTP server and TCP/IP stack is an obvious
overhead." (Section 5.)  This module is that overhead, implemented honestly:
full request/status/header parsing per call, ``http.client`` with persistent
connections on the client side.  A call's timeout holds on the open
connection too; a call that runs out of it raises
:class:`~repro.util.errors.HarnessTimeoutError` and drops the connection.

The server side is the reactor core's listener
(:class:`~repro.transport.reactor.ReactorListener`) with GET routes: pool
threads wait on one read epoll holding every keep-alive connection, and
the one woken reads, parses (an incremental HTTP/1.1 parser) and answers
the request itself; admission control sheds overload with an immediate
``503 Service Unavailable`` (clients raise it as
:class:`~repro.util.errors.ServerBusyError`).
"""

from __future__ import annotations

import http.client
import socket
import threading
from http import HTTPStatus

from repro.obs import trace as _trace
from repro.transport import reactor as _reactor
from repro.transport.base import RequestHandler, TransportMessage, parse_address
from repro.util.errors import (
    HarnessTimeoutError,
    ServerBusyError,
    TransportClosedError,
    TransportError,
)

__all__ = ["HttpListener", "HttpTransport"]

#: Ceiling on a request's header block; a peer that never finishes its
#: headers within this many bytes is protocol-broken, not just slow.
_MAX_HEADER_BYTES = 64 * 1024

_BUSY_BODY = b"server at capacity: request shed at admission"


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """HTTPConnection with Nagle disabled (symmetric with the server)."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


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


class _HttpParser(_reactor.MessageParser):
    """Incremental HTTP/1.1 request reassembly for the reactor's reads.

    Headers are variable-length, so unlike the TCP v2 frame parser this one
    accumulates what the reactor received (through the reading thread's
    receive buffer — an idle keep-alive connection holds no receive memory) until
    the blank line; the body (``Content-Length`` framing only — chunked
    uploads are not part of the SOAP contract) is then split off exactly.
    """

    __slots__ = ("_buf", "_pending", "_need", "_routes", "_max")

    def __init__(self, routes: dict, max_message: int = _reactor.DEFAULT_MAX_MESSAGE):
        self._buf = bytearray()
        self._pending: tuple | None = None  # (method, path, headers, close_after)
        self._need = 0
        self._routes = routes
        self._max = max_message

    @property
    def mid_message(self) -> bool:
        return bool(self._buf) or self._pending is not None

    def feed(self, data: memoryview) -> list:
        self._buf += data
        jobs: list[_HttpJob] = []
        while True:
            if self._pending is None:
                end = self._buf.find(b"\r\n\r\n")
                if end < 0:
                    if len(self._buf) > _MAX_HEADER_BYTES:
                        raise TransportError("http header block too large")
                    return jobs
                block = bytes(self._buf[:end]).decode("latin-1")
                del self._buf[: end + 4]
                lines = block.split("\r\n")
                parts = lines[0].split()
                if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                    raise TransportError(f"bad http request line: {lines[0]!r}")
                method, path, version = parts
                headers: dict[str, str] = {}
                for line in lines[1:]:
                    name, sep, value = line.partition(":")
                    if sep:
                        headers[name.strip().lower()] = value.strip()
                connection = headers.get("connection", "").lower()
                close_after = connection == "close" or (
                    version == "HTTP/1.0" and connection != "keep-alive"
                )
                try:
                    need = int(headers.get("content-length", "0"))
                except ValueError as exc:
                    raise TransportError("bad content-length") from exc
                if need < 0 or need > self._max:
                    raise TransportError(f"http body of {need} bytes out of range")
                self._pending = (method, path, headers, close_after)
                self._need = need
            if len(self._buf) < self._need:
                return jobs
            body = bytes(self._buf[: self._need])
            del self._buf[: self._need]
            method, path, headers, close_after = self._pending
            self._pending = None
            jobs.append(_HttpJob(method, path, headers, body, close_after, self._routes))


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

    def new_parser(self) -> "_HttpParser":
        return _HttpParser(self._get_routes)

    @property
    def url(self) -> str:
        return super().url + "/"

    def add_get_route(self, path: str, route) -> None:
        """Serve GET *path* from *route* ``() -> (content_type, bytes)``."""
        if not path.startswith("/"):
            raise TransportError(f"GET route path must start with '/': {path!r}")
        self._get_routes[path] = route


class HttpTransport:
    """Client POSTing payloads to an :class:`HttpListener` (keep-alive)."""

    def __init__(self, url: str, connect_timeout: float = 5.0):
        host, port, self._path = parse_address(url, "http")
        self._url = url
        self._lock = threading.Lock()
        self._connect_timeout = connect_timeout
        self._conn = _NoDelayHTTPConnection(host, port, timeout=connect_timeout)
        self._closed = False

    #: Failures meaning the keep-alive connection went stale while idle —
    #: the server closed it before (or instead of) answering, so no response
    #: was received and one transparent retry on a fresh connection is safe.
    #: (``RemoteDisconnected`` subclasses both ``BadStatusLine`` and
    #: ``ConnectionResetError``.)
    _STALE_ERRORS = (http.client.BadStatusLine, ConnectionResetError, BrokenPipeError)

    def _round_trip(self, message: TransportMessage):
        headers = {"Content-Type": message.content_type}
        if _trace.ENABLED:
            ctx = _trace.current()
            if ctx is not None:
                headers[_trace.TRACE_HEADER] = _trace.to_header(ctx)
        self._conn.request("POST", self._path, body=message.payload, headers=headers)
        response = self._conn.getresponse()
        return response, response.read()

    def request(self, message: TransportMessage, timeout: float | None = None) -> TransportMessage:
        with self._lock:
            if self._closed:
                raise TransportClosedError("transport closed")
            # the budget of this call, on the open socket as well as at a connect
            conn = self._conn
            conn.timeout = self._connect_timeout if timeout is None else timeout
            if conn.sock is not None:
                conn.sock.settimeout(conn.timeout)
            try:
                try:
                    response, payload = self._round_trip(message)
                except self._STALE_ERRORS:
                    # stale persistent connection: reconnect and retry once,
                    # instead of surfacing a transport fault to the policy layer
                    conn.close()
                    response, payload = self._round_trip(message)
            except TimeoutError as exc:
                conn.close()  # its late reply must not answer the next request
                raise HarnessTimeoutError(f"http request to {self._url} timed out") from exc
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                conn.close()
                raise TransportError(f"http request to {self._url} failed: {exc}") from exc
        if response.status == 503:
            raise ServerBusyError(
                f"{self._url} shed the request: "
                f"{payload.decode('utf-8', 'replace')[:200]}"
            )
        if response.status != 200:
            raise TransportError(
                f"http {response.status} from {self._url}: "
                f"{payload.decode('utf-8', 'replace')[:200]}"
            )
        return TransportMessage(
            response.getheader("Content-Type", "application/octet-stream"), payload
        )

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

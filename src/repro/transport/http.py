"""HTTP transport — the carrier for the standard SOAP binding.

"HTTP is an excellent choice for point to point communication due to its
ubiquitous availability and the fact that it is traditionally tolerable to
firewalls.  However, in case of components running in the same local system,
exchange of data through an HTTP server and TCP/IP stack is an obvious
overhead." (Section 5.)  This module is that overhead, implemented honestly:
full request/status/header parsing per call, ``http.client`` with persistent
connections on the client side.

The server side runs on the reactor core
(:mod:`repro.transport.reactor`): pool threads wait on one read epoll
holding every keep-alive connection, and the one woken reads, parses
(an incremental HTTP/1.1 parser) and answers the request itself; admission
control sheds overload with an immediate ``503 Service
Unavailable`` (clients raise it as
:class:`~repro.util.errors.ServerBusyError`).
"""

from __future__ import annotations

import http.client
import threading

from repro.obs import trace as _trace
from repro.transport import reactor as _reactor
from repro.transport.base import RequestHandler, TransportMessage, parse_url
from repro.util.errors import ServerBusyError, TransportClosedError, TransportError

__all__ = ["HttpListener", "HttpTransport"]

#: Ceiling on a request's header block; a peer that never finishes its
#: headers within this many bytes is protocol-broken, not just slow.
_MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_BUSY_BODY = b"server at capacity: request shed at admission"


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """HTTPConnection with Nagle disabled (symmetric with the server)."""

    def connect(self) -> None:
        super().connect()
        import socket as _socket

        self.sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)


# -- server side ---------------------------------------------------------------


def _head(status: int, content_type: str, length: int, close: bool,
          extra: str = "") -> bytes:
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
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
            job = self._try_parse()
            if job is None:
                return jobs
            jobs.append(job)

    def _try_parse(self) -> _HttpJob | None:
        if self._pending is None:
            end = self._buf.find(b"\r\n\r\n")
            if end < 0:
                if len(self._buf) > _MAX_HEADER_BYTES:
                    raise TransportError("http header block too large")
                return None
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
            return None
        body = bytes(self._buf[: self._need])
        del self._buf[: self._need]
        method, path, headers, close_after = self._pending
        self._pending = None
        self._need = 0
        return _HttpJob(method, path, headers, body, close_after, self._routes)


class HttpListener:
    """An HTTP POST endpoint; URL scheme ``http://host:port/``.

    GET side-channels — pages that report rather than invoke — register
    via :meth:`add_get_route`; a route is a no-argument callable returning
    ``(content_type, body_bytes)``.

    ``workers``/``queue_max``/``per_conn_max``/``read_deadline_s`` mirror
    :class:`~repro.transport.tcp.TcpListener`: pool threads read and answer
    keep-alive connections off one read epoll, admission control sheds
    overload with 503, and slow-loris peers are dropped at the read
    deadline.
    """

    def __init__(
        self,
        handler: RequestHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 32,
        queue_max: int | None = None,
        per_conn_max: int | None = None,
        read_deadline_s: float | None = None,
        drain_s: float = 1.0,
    ):
        self._drain_s = drain_s
        routes: dict[str, object] = {}
        self._get_routes = routes
        self._server = _reactor.ReactorServer(
            (host, port),
            handler,
            lambda: _HttpParser(routes),
            workers=workers,
            queue_max=queue_max,
            per_conn_max=per_conn_max,
            read_deadline_s=read_deadline_s,
            name="http-reactor",
        )
        self._host, self._port = self._server.address

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}/"

    @property
    def port(self) -> int:
        return self._port

    @property
    def admission(self) -> "_reactor.AdmissionController":
        """The live admission controller."""
        return self._server.admission

    def add_get_route(self, path: str, route) -> None:
        """Serve GET *path* from *route* ``() -> (content_type, bytes)``."""
        if not path.startswith("/"):
            raise TransportError(f"GET route path must start with '/': {path!r}")
        self._get_routes[path] = route

    def close(self) -> None:
        self._server.close(self._drain_s)


class HttpTransport:
    """Client POSTing payloads to an :class:`HttpListener` (keep-alive)."""

    def __init__(self, url: str, connect_timeout: float = 5.0):
        scheme, rest = parse_url(url)
        if scheme != "http":
            raise TransportError(f"not an http url: {url!r}")
        host_port, _, path = rest.partition("/")
        host, _, port_text = host_port.rpartition(":")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise TransportError(f"bad http url (no port): {url!r}") from exc
        self._path = "/" + path
        self._url = url
        self._lock = threading.Lock()
        self._conn = _NoDelayHTTPConnection(host, port, timeout=connect_timeout)
        self._closed = False

    #: Failures meaning the keep-alive connection went stale while idle —
    #: the server closed it before (or instead of) answering, so no response
    #: was received and one transparent retry on a fresh connection is safe.
    #: (``RemoteDisconnected`` subclasses both ``BadStatusLine`` and
    #: ``ConnectionResetError``; the tuple names the whole family.)
    _STALE_ERRORS = (
        http.client.BadStatusLine,
        http.client.RemoteDisconnected,
        ConnectionResetError,
        BrokenPipeError,
    )

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
            if timeout is not None:
                self._conn.timeout = timeout
            try:
                response, payload = self._round_trip(message)
            except self._STALE_ERRORS:
                # stale persistent connection: reconnect and retry once,
                # instead of surfacing a transport fault to the policy layer
                self._conn.close()
                try:
                    response, payload = self._round_trip(message)
                except (ConnectionError, http.client.HTTPException, OSError) as exc:
                    self._conn.close()
                    raise TransportError(
                        f"http request to {self._url} failed: {exc}"
                    ) from exc
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                self._conn.close()
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

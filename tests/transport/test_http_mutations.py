"""Damaged HTTP/1.1 streams: the reference messages or a typed fault, never more.

Valid request streams (a POST with a body, then a GET) and response
streams (``Content-Length``, chunked with and without a trailer, a ``100
Continue`` ahead of the answer, a close-delimited body) are cut at every
length and have each byte flipped four ways, the harness of
``test_frame_mutations.py``.  Each damaged stream goes through the server's
request parser and the client's response parser, whole and split in two
reads, and must parse to the messages a plain whole-buffer reference
decoder finds in the same bytes, or raise
:class:`~repro.util.errors.TransportError` where that decoder finds a bad
message.  A response stream is also ended there, as a closed connection
would end it.  No body buffer a parser allocates is longer than the
length the message declared.
"""

import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.transport.http import _HttpParser, _ResponseParser
from repro.util.errors import TransportError

from .test_frame_mutations import damaged

CAP = 4096  # small, so a flipped length digit lands on both sides of it
MIB = 1024 * 1024


class Bad(Exception):
    """The reference decoder found a malformed message."""


def head(block: bytes, request: bool) -> tuple:
    """``(fields, headers, length)`` of a header block, or :class:`Bad`."""
    lines = block.decode("latin-1").split("\r\n")
    if request:
        fields = lines[0].split()
        if len(fields) != 3 or not fields[2].startswith("HTTP/"):
            raise Bad(lines[0])
    else:
        fields = (lines[0].split(None, 2) + [""])[:3]
        if len(fields) < 3 or not (
            fields[0].startswith("HTTP/") and re.fullmatch("[0-9]{3}", fields[1])
        ):
            raise Bad(lines[0])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is not None:
        if not re.fullmatch("[0-9]+", length) or int(length) > CAP:
            raise Bad(length)
        length = int(length)
    connection = headers.get("connection", "").lower()
    version = fields[2] if request else fields[0]
    close = connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")
    return fields, headers, length, close


def reference(stream: bytes, request: bool, eof: bool = False) -> tuple:
    """The whole messages in *stream*; whether a bad one stopped the walk;
    and the declared length of the body still arriving (``None`` if none).
    With *eof* the stream ended there, as a closed connection ends it."""
    out, pos = [], 0
    while pos < len(stream):
        end = stream.find(b"\r\n\r\n", pos)
        if end < 0:
            return out, eof and not request, None
        try:
            (first, second, _third), headers, length, close = head(stream[pos:end], request)
        except Bad:
            return out, True, None
        pos = end + 4
        content_type = headers.get("content-type", "application/octet-stream")
        if request:
            length = length or 0
            if len(stream) - pos < length:
                return out, eof, length
            out.append((first, second, stream[pos:pos + length], close))
            pos += length
            continue
        if second.startswith("1"):
            continue
        coding = headers.get("transfer-encoding")
        if second in ("204", "304"):
            body = b""
        elif coding is not None:
            if coding.lower() != "chunked":
                return out, True, None
            chunks = []
            while True:
                line_end = stream.find(b"\r\n", pos)
                if line_end < 0:
                    return out, eof, None
                size = stream[pos:line_end].split(b";")[0].strip()
                if not re.fullmatch(b"[0-9a-fA-F]+", size):
                    return out, True, None
                size = int(size, 16)
                pos = line_end + 2
                if not size:
                    break
                if len(b"".join(chunks)) + size > CAP:
                    return out, True, None
                if len(stream) - pos < size + 2:
                    return out, eof, size + 2
                if stream[pos + size:pos + size + 2] != b"\r\n":
                    return out, True, None
                chunks.append(stream[pos:pos + size])
                pos += size + 2
            if stream[pos:pos + 2] == b"\r\n":
                pos += 2
            else:
                trailer_end = stream.find(b"\r\n\r\n", pos)
                if len(stream) - pos < 2 or trailer_end < 0:
                    return out, eof, None
                pos = trailer_end + 4
            body = b"".join(chunks)
        elif length is not None:
            if len(stream) - pos < length:
                return out, eof, length
            body = stream[pos:pos + length]
            pos += length
        else:  # close-delimited: the rest of the stream
            body, pos = stream[pos:], len(stream)
            if len(body) > CAP:
                return out, True, None
            if not eof:
                return out, False, None
            close = True
        out.append((int(second), content_type, body, close))
    return out, False, None


def fields_of(request: bool, item) -> tuple:
    if request:
        return item.method, item.path, bytes(item.body), item.close_after
    status, content_type, payload, close = item
    return status, content_type, bytes(payload), close


def parse(request: bool, stream: bytes, split: int, eof: bool) -> tuple[list, bool]:
    """Feed *stream* to a fresh parser in two reads (into its body buffer
    when it has one), the way the reactor and the client read; returns the
    messages out and whether a :class:`TransportError` ended the stream.
    After each read, a body buffer is no longer than what the message
    being received declared."""
    parser = _HttpParser({}, CAP) if request else _ResponseParser(CAP)
    out = []
    fed = b""
    for piece in (stream[:split], stream[split:]):
        if not piece:
            continue
        fed += piece
        try:
            view = parser.body_buffer()
            if view is None:
                got = parser.feed(memoryview(piece))
            else:
                n = min(len(piece), len(view))
                view[:n] = piece[:n]
                got = parser.body_filled(n)
                if n < len(piece):
                    got += parser.feed(memoryview(piece[n:]))
        except TransportError:
            return out, True
        out += [fields_of(request, item) for item in got]
        if parser._body is not None:
            declared = reference(fed, request)[2]
            assert declared is not None and len(parser._body) <= declared, (fed, declared)
    if eof and not request:
        try:
            out += [fields_of(False, item) for item in parser.end_of_stream()]
        except TransportError:
            return out, True
    return out, False


def check(request: bool, stream: bytes) -> None:
    for eof in (False,) if request else (False, True):
        want, bad, _declared = reference(stream, request, eof)
        for split in {len(stream), 5, len(stream) // 2}:
            got, raised = parse(request, stream, split, eof)
            assert raised == bad, (stream, split, eof, got, want)
            # messages handed out before a fault are the reference's
            assert got == (want[:len(got)] if raised else want), (stream, split, eof)


REQUESTS = {
    "post-get": (
        b"POST /svc HTTP/1.1\r\nHost: h:1\r\nContent-Type: text/xml\r\n"
        b"Content-Length: 00007\r\n\r\npayload"
        b"GET /metrics HTTP/1.0\r\n\r\n"
    ),
    "close-empty": (
        b"POST / HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nok"
    ),
}

RESPONSES = {
    "length": (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 00007\r\n\r\npayload"
        b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\nno"
    ),
    "chunked": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"3\r\npay\r\n0004;ext=1\r\nload\r\n0\r\n\r\n"
        b"HTTP/1.1 204 No Content\r\n\r\n"
    ),
    "continue-trailer": (
        b"HTTP/1.1 100 Continue\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\nok\r\n0\r\nX-Sum: 1\r\n\r\n"
        b"HTTP/1.1 304 Not Modified\r\nConnection: close\r\n\r\n"
    ),
    "close-delimited": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
        b"HTTP/1.0 200 OK\r\nContent-Type: a/b\r\n\r\nthe rest"
    ),
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_every_damaged_request_stream_gives_the_reference_or_a_typed_fault(name):
    stream = REQUESTS[name]
    want, bad, _declared = reference(stream, True)
    assert len(want) == 2 and not bad
    for data in damaged(stream):
        check(True, data)


@pytest.mark.parametrize("name", sorted(RESPONSES))
def test_every_damaged_response_stream_gives_the_reference_or_a_typed_fault(name):
    stream = RESPONSES[name]
    want, bad, _declared = reference(stream, False, eof=True)
    assert len(want) == 2 and not bad
    for data in damaged(stream):
        check(False, data)


@given(
    body=st.binary(max_size=40),
    chunked=st.booleans(),
    index=st.integers(0, 400),
    mask=st.integers(0, 255),
)
def test_drawn_response_with_drawn_damage(body, chunked, index, mask):
    """One drawn response and a fixed one behind it; *mask* 0 cuts the
    stream at *index*, any other value flips that byte."""
    if chunked:
        chunk = b"%x\r\n%s\r\n" % (len(body), body) if body else b""
        first = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunk + b"0\r\n\r\n"
    else:
        first = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    stream = bytearray(first + RESPONSES["length"])
    index %= len(stream)
    if mask:
        stream[index] ^= mask
    else:
        del stream[index:]
    check(False, bytes(stream))


@pytest.mark.parametrize(
    "parser, head",
    [
        (_HttpParser({}), b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"),
        (_ResponseParser(), b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"),
    ],
    ids=["request", "response"],
)
def test_a_claimed_length_is_not_allocated_before_its_bytes_arrive(parser, head):
    """15 body bytes under a head declaring 64 MiB get a small buffer."""
    data = head % (64 * MIB) + bytes(15)
    tracemalloc.start()
    try:
        assert parser.feed(memoryview(data)) == []
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parser.mid_message
    assert len(parser._body) <= 256 * 1024
    assert peak < MIB


@pytest.mark.parametrize("parser", [_HttpParser({}), _ResponseParser()], ids=["request", "response"])
def test_a_header_block_past_the_cap_is_a_typed_fault(parser):
    with pytest.raises(TransportError, match="header block too large"):
        for _ in range(5):
            parser.feed(memoryview(b"X-Filler: " + b"f" * 16 * 1024 + b"\r\n"))

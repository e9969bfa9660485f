"""Whole-frame reads on both ends against the reference decoder.

A frame that arrives whole and alone in one read is parsed without the
parser's ``feed``: on the client by :meth:`FrameReader.read_frame` itself,
on the server by :meth:`FrameParser.receive`.  Anything else (two frames in
a read, a cut frame, a held-over header) goes through ``feed`` as before.
Each stream of ``test_frame_mutations`` — one frame alone and two together
— is cut at every length and has each byte flipped four ways, and read the
way each side reads: the client from a socket written whole and closed, the
server through ``receive`` into a reused buffer.  Each must hand out the
frames the reference decoder finds, then raise a framing
:class:`~repro.util.errors.TransportError` where that decoder finds a bad
frame, or stop cleanly at the end of the bytes.
"""

import socket

import pytest

from repro.transport.tcp import FrameParser, FrameReader, _ReplyParser
from repro.util.errors import TransportClosedError, TransportError
from tests.transport.test_frame_mutations import CAP, STREAMS, _fields, damaged, frame, reference


def client_reads(stream: bytes) -> tuple[list, bool]:
    """The frames a fresh FrameReader gets from *stream* over a socket, and
    whether a framing fault (not the peer's close) ended them."""
    ours, peer = socket.socketpair()
    try:
        peer.sendall(stream)
        peer.close()
        reader = FrameReader(ours)
        reader._parser._max = CAP
        out = []
        while True:
            try:
                out.append(_fields(True, reader.read_frame(timeout=1.0)))
            except TransportClosedError:
                return out, False
            except TransportError:
                return out, True
    finally:
        ours.close()


def _fill(view: memoryview, data: bytes) -> int:
    view[:len(data)] = data
    return len(data)


def server_reads(stream: bytes) -> tuple[list, bool]:
    """The same through a fresh FrameParser's ``receive``, the way a
    reactor thread reads into its reused buffer."""
    parser = FrameParser(max_message=CAP)
    rbuf = memoryview(bytearray(16 * 1024))
    left = memoryview(stream)

    def recv_into(view: memoryview) -> int:
        nonlocal left
        n = _fill(view, left[:len(view)])
        left = left[n:]
        return n

    out = []
    try:
        while True:
            n, _full, jobs = parser.receive(recv_into, rbuf)
            out += [_fields(False, job) for job in jobs]
            if not n:
                return out, False
    except TransportError:
        return out, True


def without_status(frames: list) -> list:
    """A request job carries no status."""
    return [(corr_id, ct, None, trace, payload) for corr_id, ct, _s, trace, payload in frames]


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("count", [1, 2], ids=["alone", "two"])
@pytest.mark.parametrize("side", ["client", "server"])
def test_every_damaged_stream_reads_as_the_reference(side, name, count):
    reads = client_reads if side == "client" else server_reads
    shape = (lambda frames: frames) if side == "client" else without_status
    frames = STREAMS[name][:count]
    stream = b"".join(
        frame(corr_id, ct, status, payload, trace or b"")
        for corr_id, ct, status, trace, payload in frames
    )
    assert reads(stream) == (shape(frames), False)
    for data in damaged(stream):
        want, bad = reference(data)
        got, raised = reads(data)
        assert raised == bad, data
        assert got == shape(want[:len(got)] if raised else want), data


def test_a_whole_frame_alone_in_a_read_skips_feed(monkeypatch):
    """The common reply and the common request are parsed once: neither
    goes through ``feed``, and the client reader not through ``receive``."""
    def refuse(*_args):
        raise AssertionError("the parser's general path took a whole lone frame")

    monkeypatch.setattr(FrameParser, "feed", refuse)
    monkeypatch.setattr(_ReplyParser, "receive", refuse)
    ours, peer = socket.socketpair()
    try:
        reader = FrameReader(ours)
        peer.sendall(frame(5, "application/x-xdr", 0, b"reply", b""))
        corr_id, message, status, trace = reader.read_frame(timeout=1.0)
        assert (corr_id, message.content_type, status, trace) == (5, "application/x-xdr", 0, None)
        assert message.payload == b"reply" and type(message.payload) is bytes
    finally:
        ours.close()
        peer.close()
    request = frame(6, "application/x-xdr", 0, b"call", b"")
    rbuf = memoryview(bytearray(64))
    n, full, jobs = FrameParser().receive(lambda view: _fill(view, request), rbuf)
    assert (n, full, len(jobs)) == (len(request), False, 1)
    assert (jobs[0].corr_id, jobs[0].message.payload) == (6, b"call")
    assert type(jobs[0].message.payload) is bytes  # copied out of the reused buffer


@pytest.mark.parametrize("length", [*range(11), CAP + 1])
@pytest.mark.parametrize("side", ["client", "server"])
def test_a_bad_length_alone_in_a_read_is_refused_by_its_length(side, length):
    """A frame under the smallest body or over the cap is refused for its
    length, with the parser's words, even when it arrives whole and alone."""
    body = frame(1, "t", 0, b"x" * (CAP + 1 - 12), b"")[4:] if length > CAP else bytes(length)
    stream = length.to_bytes(4, "big") + body
    assert reference(stream) == ([], True)
    words = "exceeds the 4096 byte cap" if length > CAP else f"short frame: {length} bytes"
    if side == "server":
        rbuf = memoryview(bytearray(16 * 1024))
        with pytest.raises(TransportError, match=words):
            FrameParser(max_message=CAP).receive(lambda view: _fill(view, stream), rbuf)
        return
    ours, peer = socket.socketpair()
    try:
        peer.sendall(stream)
        reader = FrameReader(ours)
        reader._parser._max = CAP
        with pytest.raises(TransportError, match=words):
            reader.read_frame(timeout=1.0)
    finally:
        ours.close()
        peer.close()

"""Damaged TCP v2 frames: the reference frames or a typed fault, never more.

Valid streams of v2 frames (with and without a trace block, content types
of 0 to 300 bytes) are cut at every length and have each byte flipped four
ways, the harness of ``tests/encoding/test_xdr_kernel.py``.  Each damaged
stream goes through the server's :class:`FrameParser` and the client's
``_ReplyParser``, whole and split after its first header, and must parse to
the frames a plain reference decoder finds in the same bytes, or raise
:class:`~repro.util.errors.TransportError` where that decoder finds a bad
frame.  No body buffer the parser allocates is longer than the length the
frame declared, and no declared length past the cap gets one.  A property
test draws a frame (content type, trace block, payload) and the damage.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.transport import tcp as tcp_mod
from repro.transport.tcp import FrameParser, _ReplyParser
from repro.util.errors import TransportError

CAP = 4096  # small, so a flipped length byte lands on both sides of it
_MASKS = (0x01, 0x04, 0x80, 0xFF)


def frame(corr_id: int, content_type: str, status: int, payload: bytes, trace: bytes) -> bytes:
    prefix = tcp_mod._frame_prefix(corr_id, content_type, status, len(payload), trace)
    return prefix + payload


def reference(stream: bytes) -> tuple[list, bool]:
    """The whole frames at the front of *stream* as ``(corr_id,
    content_type, status, trace, payload)``, and whether a bad frame
    stopped the walk."""
    frames, pos = [], 0
    while len(stream) - pos >= 4:
        length = int.from_bytes(stream[pos:pos + 4], "big")
        if length < 11 or length > CAP:
            return frames, True
        body = stream[pos + 4:pos + 4 + length]
        if len(body) < length:
            return frames, False  # the rest has not arrived
        ct_end = 10 + int.from_bytes(body[8:10], "big")
        if ct_end >= length or not body[10:ct_end].isascii():
            return frames, True
        status, rest, trace = body[ct_end], body[ct_end + 1:], None
        if status & 0x80:
            status &= 0x7F
            trace_len = int.from_bytes(rest[:2], "big")
            if len(rest) < 2 or len(rest) - 2 < trace_len:
                return frames, True
            trace, rest = rest[2:2 + trace_len], rest[2 + trace_len:]
        frames.append((int.from_bytes(body[:8], "big"), body[10:ct_end].decode(), status, trace, rest))
        pos += 4 + length
    return frames, False


def _fields(reply: bool, item) -> tuple:
    if reply:
        corr_id, message, status, trace = item
    else:
        corr_id, message, status, trace = item.corr_id, item.message, None, item.trace
    return corr_id, message.content_type, status, trace, bytes(message.payload)


def parse(parser_class, stream: bytes, split: int) -> tuple[list, bool]:
    """Feed *stream* to a fresh parser in two reads (the second one into its
    body buffer when it has one), the way the reactor does; returns the
    frames out and whether a :class:`TransportError` ended the stream."""
    parser = parser_class(max_message=CAP)
    reply = parser_class is _ReplyParser
    out = []
    for piece in (stream[:split], stream[split:]):
        if not piece:
            continue
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
        out += [_fields(reply, item) for item in got]
        if parser.body_buffer() is not None:  # the frame after the whole ones
            pos = 0
            for _ in out:
                pos += 4 + int.from_bytes(stream[pos:pos + 4], "big")
            declared = int.from_bytes(stream[pos:pos + 4], "big")
            assert len(parser._body) == declared <= CAP, (len(parser._body), declared)
    return out, False


def check(parser_class, stream: bytes) -> None:
    want, bad = reference(stream)
    if parser_class is FrameParser:  # a request job has no status
        want = [(corr_id, ct, None, trace, payload) for corr_id, ct, _s, trace, payload in want]
    for split in (len(stream), 4 + 1):
        got, raised = parse(parser_class, stream, split)
        assert raised == bad, (stream, split, got, want)
        # frames handed out before a fault are the reference's
        assert got == (want[:len(got)] if raised else want), (stream, split)


def damaged(stream: bytes):
    """Every truncation of *stream*, then each byte flipped four ways."""
    for cut in range(len(stream)):
        yield stream[:cut]
    for index in range(len(stream)):
        for mask in _MASKS:
            bad = bytearray(stream)
            bad[index] ^= mask
            yield bytes(bad)


# two frames per stream, so damage to the first can misplace the second
STREAMS = {
    f"ct{ct_len}-{'traced' if trace else 'plain'}": [
        (7, "x" * ct_len, 1, trace, b"payload"),
        (8, "t", 0, None, b""),
    ]
    for ct_len, trace in ((0, None), (0, b"trace-block"), (300, b"trace-block"))
}


@pytest.mark.parametrize("parser_class", [FrameParser, _ReplyParser], ids=["request", "reply"])
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_every_damaged_stream_gives_the_reference_frames_or_a_typed_fault(parser_class, name):
    frames = STREAMS[name]
    stream = b"".join(
        frame(corr_id, ct, status, payload, trace or b"")
        for corr_id, ct, status, trace, payload in frames
    )
    assert reference(stream) == (frames, False)
    for data in damaged(stream):
        check(parser_class, data)


@given(
    ct_len=st.integers(0, 300),
    trace=st.binary(max_size=16),
    payload=st.binary(max_size=16),
    index=st.integers(0, 2000),
    mask=st.integers(0, 255),
    reply=st.booleans(),
)
def test_drawn_frame_with_drawn_damage(ct_len, trace, payload, index, mask, reply):
    """One drawn frame and a fixed one behind it; *mask* 0 cuts the
    stream at *index*, any other value flips that byte."""
    stream = bytearray(frame(2**64 - 1, "c" * ct_len, 2, payload, trace) + frame(1, "t", 0, b"", b""))
    index %= len(stream)
    if mask:
        stream[index] ^= mask
    else:
        del stream[index:]
    check(_ReplyParser if reply else FrameParser, bytes(stream))

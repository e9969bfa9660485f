"""A partial frame's body buffer grows with the bytes that arrive.

A peer that announces a large frame and sends a few bytes of it gets a
small buffer, not the whole claimed length.  Reassembly of frames past
the buffer's starting size is tested in
``test_reactor.py::TestFrameReassembly``.
"""

import tracemalloc

from repro.transport.tcp import FrameParser

MIB = 1024 * 1024


def test_a_claimed_length_is_not_allocated_before_its_bytes_arrive():
    declared = 48 * MIB
    head = declared.to_bytes(4, "big") + bytes(11)
    parser = FrameParser()
    tracemalloc.start()
    try:
        assert parser.feed(memoryview(head)) == []
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parser.mid_message
    assert len(parser._body) <= 256 * 1024
    assert peak < MIB


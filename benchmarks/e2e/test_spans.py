"""Self-time arithmetic on hand-built span trees."""

import pytest

from benchmarks.e2e.spans import Span, SpanError, SpanLog, adopt, by_op, self_times


def test_nested_and_sibling_self_times():
    spans = [
        Span(1, "client.op", 0, 100, 0, 7),
        Span(2, "encode", 5, 15, 1, 7),
        Span(3, "transport.request", 20, 80, 1, 7),
        Span(4, "decode", 85, 95, 1, 7),
        Span(5, "dispatch", 30, 50, 3, 7),
        Span(6, "handler", 35, 45, 5, 7),
    ]
    own = self_times(spans)
    assert own == {1: 20, 2: 10, 3: 40, 4: 10, 5: 10, 6: 10}
    assert sum(own.values()) == 100  # self times of a tree add up to its root
    assert by_op(spans)[7]["transport.request"] == (60, 40)


def test_child_that_outlives_its_parent_is_an_error():
    spans = [Span(1, "client.op", 0, 100, 0, 1), Span(2, "late", 90, 110, 1, 1)]
    with pytest.raises(SpanError):
        self_times(spans)


def test_unknown_parent_is_an_error():
    with pytest.raises(SpanError):
        self_times([Span(2, "lost", 0, 10, 1, 1)])


def test_adopt_hands_server_spans_to_the_enclosing_request():
    spans = [
        Span(1, "client.op", 0, 100, 0, 1),
        Span(2, "transport.request", 10, 90, 1, 1),
        Span(3, "decode_call", 20, 30, 0, 0),  # recorded on a serving thread
        Span(4, "bindings.dispatch", 30, 60, 0, 0),
        Span(5, "handler", 35, 55, 4, 0),  # its child follows it
    ]
    adopted = {s.span_id: s for s in adopt(spans)}
    assert adopted[3].parent == adopted[4].parent == 2
    assert [adopted[i].op_id for i in (3, 4, 5)] == [1, 1, 1]
    assert self_times(adopted.values())[2] == 80 - 10 - 30


def test_adopt_with_two_overlapping_requests_takes_the_one_that_ends_first():
    spans = [
        Span(1, "transport.request", 0, 30, 0, 1),
        Span(2, "transport.request", 5, 22, 0, 2),
        Span(3, "bindings.dispatch", 10, 20, 0, 0),  # both requests enclose it
        Span(4, "bindings.dispatch", 12, 28, 0, 0),  # only the first does
    ]
    adopted = {s.span_id: s for s in adopt(spans)}
    assert (adopted[3].op_id, adopted[4].op_id) == (2, 1)


def test_adopt_refuses_a_span_nothing_encloses():
    spans = [Span(1, "transport.request", 0, 10, 0, 1), Span(2, "stray", 5, 15, 0, 0)]
    with pytest.raises(SpanError):
        adopt(spans)


def test_span_log_nests_per_thread_and_inherits_the_op():
    log = SpanLog()
    outer = log.begin("client.op", op_id=3)
    inner = log.begin("encode")
    log.end(inner)
    log.end(outer)
    encode, op = log.spans
    assert (encode.name, encode.parent, encode.op_id) == ("encode", op.span_id, 3)
    assert op.parent == 0 and op.start <= encode.start <= encode.end <= op.end

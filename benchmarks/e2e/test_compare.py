"""The verdicts ``compare`` gives."""

from benchmarks.e2e.compare import is_exact, verdict


def row(value, q1=None, q3=None):
    return {"value": value} if q1 is None else {"value": value, "q1": q1, "q3": q3}


def test_verdicts_follow_the_bound_and_the_direction():
    a = row(100.0, 99.0, 101.0)
    assert verdict(a, row(105.0, 104.0, 106.0), "lower", 0.1) == "same"
    assert verdict(a, row(115.0, 114.0, 116.0), "lower", 0.1) == "worse"
    assert verdict(a, row(85.0, 84.0, 86.0), "lower", 0.1) == "better"
    assert verdict(a, row(85.0, 84.0, 86.0), "higher", 0.1) == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved_whatever_the_medians():
    noisy = row(100.0, 90.0, 105.0)
    assert verdict(noisy, row(103.0, 102.0, 104.0), "lower", 0.1) == "unresolved"
    assert verdict(noisy, row(120.0, 119.0, 121.0), "lower", 0.1) == "unresolved"


def test_exact_counts():
    assert is_exact("netsim.gossip.msgs_per_op")
    assert is_exact("transport.reply_bytes")
    assert not is_exact("transport.self_us")

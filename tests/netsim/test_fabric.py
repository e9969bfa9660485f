"""Virtual network fabric: cost model, accounting, failures, partitions."""

import pytest

from repro.netsim.fabric import HostDownError, LinkModel, VirtualNetwork
from repro.transport.base import TransportMessage
from repro.util.errors import TransportError


def echo(message: TransportMessage) -> TransportMessage:
    return TransportMessage(message.content_type, message.payload)


@pytest.fixture
def net():
    network = VirtualNetwork()
    for name in ("a", "b", "c"):
        host = network.add_host(name)
        host.bind("svc", echo)
    return network


class TestLinkModel:
    def test_cost_formula(self):
        model = LinkModel(latency_s=0.01, bandwidth_Bps=1000)
        assert model.cost(500) == pytest.approx(0.01 + 0.5)

    def test_zero_bytes_cost_latency_only(self):
        assert LinkModel(latency_s=0.02, bandwidth_Bps=1e9).cost(0) == pytest.approx(0.02)

    def test_jitter_deterministic_with_seed(self):
        import random

        model = LinkModel(latency_s=0, bandwidth_Bps=1e9, jitter_s=0.01)
        a = model.cost(0, random.Random(7))
        b = model.cost(0, random.Random(7))
        assert a == b
        assert 0 <= a <= 0.01


class TestTopology:
    def test_duplicate_host_rejected(self, net):
        with pytest.raises(TransportError):
            net.add_host("a")

    def test_unknown_host_rejected(self, net):
        with pytest.raises(TransportError):
            net.host("zzz")

    def test_loopback_is_cheap(self, net):
        lan = net.link_model("a", "b")
        loop = net.link_model("a", "a")
        assert loop.latency_s < lan.latency_s

    def test_link_override_symmetric(self, net):
        fast = LinkModel(latency_s=1e-6, bandwidth_Bps=1e10)
        net.set_link("a", "b", fast)
        assert net.link_model("a", "b") is fast
        assert net.link_model("b", "a") is fast
        assert net.link_model("a", "c") is not fast

    def test_link_override_asymmetric(self, net):
        fast = LinkModel(latency_s=1e-6)
        net.set_link("a", "b", fast, symmetric=False)
        assert net.link_model("a", "b") is fast
        assert net.link_model("b", "a") is not fast


class TestMessaging:
    def test_request_response(self, net):
        reply = net.request("a", "b", "svc", TransportMessage("t", b"ping"))
        assert reply.payload == b"ping"

    def test_unknown_endpoint(self, net):
        with pytest.raises(TransportError):
            net.request("a", "b", "ghost", TransportMessage("t", b""))

    def test_accounting_counts_both_directions(self, net):
        net.request("a", "b", "svc", TransportMessage("t", b"x" * 100))
        assert net.total_messages == 2  # request + response
        assert net.total_bytes == 200
        assert net.stats[("a", "b")].messages == 1
        assert net.stats[("b", "a")].messages == 1

    def test_simulated_time_accumulates(self, net):
        before = net.simulated_time
        net.request("a", "b", "svc", TransportMessage("t", b"x" * 1000))
        assert net.simulated_time > before

    def test_charge_without_dispatch(self, net):
        net.charge("a", "b", 1_000_000)
        assert net.total_bytes == 1_000_000
        assert net.total_messages == 1

    def test_reset_stats(self, net):
        net.request("a", "b", "svc", TransportMessage("t", b"x"))
        net.reset_stats()
        assert net.total_messages == 0
        assert net.simulated_time == 0.0
        assert net.stats == {}


class TestFailures:
    def test_crashed_host_unreachable(self, net):
        net.host("b").crash()
        with pytest.raises(HostDownError):
            net.request("a", "b", "svc", TransportMessage("t", b""))

    def test_restart_heals(self, net):
        net.host("b").crash()
        net.host("b").restart()
        assert net.request("a", "b", "svc", TransportMessage("t", b"ok")).payload == b"ok"

    def test_partition_blocks_cross_group(self, net):
        net.partition({"a"}, {"b", "c"})
        with pytest.raises(HostDownError):
            net.request("a", "b", "svc", TransportMessage("t", b""))

    def test_partition_allows_within_group(self, net):
        net.partition({"a"}, {"b", "c"})
        assert net.request("b", "c", "svc", TransportMessage("t", b"in")).payload == b"in"

    def test_heal_restores(self, net):
        net.partition({"a"}, {"b", "c"})
        net.heal()
        assert net.request("a", "b", "svc", TransportMessage("t", b"up")).payload == b"up"

    def test_duplicate_endpoint_rejected(self, net):
        with pytest.raises(TransportError):
            net.host("a").bind("svc", echo)

    def test_unbind_then_rebind(self, net):
        net.host("a").unbind("svc")
        net.host("a").bind("svc", echo)


class TestTopologyBuilders:
    def test_lan(self):
        from repro.netsim.topology import lan

        network = lan(5)
        assert len(network.hosts()) == 5
        assert network.link_model("node0", "node4").latency_s == pytest.approx(1e-4)

    def test_wan_slower_than_lan(self):
        from repro.netsim.topology import lan, wan

        assert (
            wan(2).link_model("node0", "node1").latency_s
            > lan(2).link_model("node0", "node1").latency_s
        )

    def test_two_clusters(self):
        from repro.netsim.topology import two_clusters

        network = two_clusters(3)
        intra = network.link_model("a0", "a1")
        inter = network.link_model("a0", "b0")
        assert intra.latency_s < inter.latency_s

    def test_mesh_neighborhoods(self):
        from repro.netsim.topology import mesh_neighborhoods

        network = mesh_neighborhoods(6, neighborhood=1)
        near = network.link_model("node0", "node1")
        far = network.link_model("node0", "node3")
        assert near.latency_s < far.latency_s
        # ring wrap-around: node5 and node0 are neighbours
        assert network.link_model("node5", "node0").latency_s == near.latency_s


class TestFlakyLinks:
    def test_request_phase_drop(self, net):
        net.set_link_faults("a", "b", drop_rate=1.0, symmetric=False)
        from repro.netsim.fabric import MessageDroppedError

        with pytest.raises(MessageDroppedError) as info:
            net.request("a", "b", "svc", TransportMessage("t", b"x"))
        assert info.value.phase == "request"
        assert (info.value.src, info.value.dst) == ("a", "b")

    def test_response_phase_drop(self, net):
        from repro.netsim.fabric import MessageDroppedError

        calls = []
        net.host("b").unbind("svc")
        net.host("b").bind("svc", lambda m: (calls.append(1), echo(m))[1])
        net.set_link_faults("b", "a", drop_rate=1.0, symmetric=False)
        with pytest.raises(MessageDroppedError) as info:
            net.request("a", "b", "svc", TransportMessage("t", b"x"))
        assert info.value.phase == "response"
        assert calls == [1]  # the handler DID run — the ambiguity retries must respect

    def test_drop_is_a_transport_error(self):
        from repro.netsim.fabric import MessageDroppedError

        assert issubclass(MessageDroppedError, TransportError)

    def test_duplication_runs_handler_twice(self, net):
        calls = []
        net.host("b").unbind("svc")
        net.host("b").bind("svc", lambda m: (calls.append(1), echo(m))[1])
        net.set_link_faults("a", "b", duplicate_rate=1.0, symmetric=False)
        reply = net.request("a", "b", "svc", TransportMessage("t", b"x"))
        assert reply.payload == b"x"
        assert calls == [1, 1]

    def test_duplicate_leg_charged(self, net):
        net.set_link_faults("a", "b", duplicate_rate=1.0, symmetric=False)
        net.reset_stats()
        net.request("a", "b", "svc", TransportMessage("t", b"xyz"))
        assert net.stats[("a", "b")].messages == 2  # original + duplicate
        assert net.stats[("a", "b")].bytes == 6

    def test_drop_pattern_deterministic_per_seed(self):
        def pattern(seed: int) -> list[bool]:
            network = VirtualNetwork(seed=seed)
            for name in ("a", "b"):
                network.add_host(name).bind("svc", echo)
            network.set_default_faults(drop_rate=0.5)
            outcomes = []
            for _ in range(32):
                try:
                    network.request("a", "b", "svc", TransportMessage("t", b"x"))
                    outcomes.append(True)
                except TransportError:
                    outcomes.append(False)
            return outcomes

        assert pattern(9) == pattern(9)
        assert pattern(9) != pattern(10)
        assert False in pattern(9) and True in pattern(9)

    def test_default_faults_leave_explicit_links_alone(self, net):
        net.set_link(
            "a", "b", LinkModel(latency_s=1e-6, bandwidth_Bps=1e9), symmetric=True
        )
        net.set_default_faults(drop_rate=1.0)
        # a<->b has an explicit clean model; a->c uses the flaky default
        net.request("a", "b", "svc", TransportMessage("t", b"x"))
        from repro.netsim.fabric import MessageDroppedError

        with pytest.raises(MessageDroppedError):
            net.request("a", "c", "svc", TransportMessage("t", b"x"))


class TestSimulatedTimeout:
    def test_round_trip_exceeding_timeout_raises(self, net):
        from repro.util.errors import HarnessTimeoutError

        net.set_link("a", "b", LinkModel(latency_s=1.0, bandwidth_Bps=1e9))
        with pytest.raises(HarnessTimeoutError):
            net.request("a", "b", "svc", TransportMessage("t", b"x"), timeout=0.5)

    def test_timeout_raised_after_dispatch(self, net):
        # the destination did the work: real timeouts carry that ambiguity
        from repro.util.errors import HarnessTimeoutError

        calls = []
        net.host("b").unbind("svc")
        net.host("b").bind("svc", lambda m: (calls.append(1), echo(m))[1])
        net.set_link("a", "b", LinkModel(latency_s=1.0, bandwidth_Bps=1e9))
        with pytest.raises(HarnessTimeoutError):
            net.request("a", "b", "svc", TransportMessage("t", b"x"), timeout=0.1)
        assert calls == [1]

    def test_fast_round_trip_within_timeout(self, net):
        reply = net.request("a", "b", "svc", TransportMessage("t", b"x"), timeout=10.0)
        assert reply.payload == b"x"

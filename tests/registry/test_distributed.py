"""Distributed lookup schemes: costs and failure modes (C5's mechanics)."""

import pytest

from repro.netsim import lan
from repro.plugins.services import MatMul, WSTime
from repro.registry.distributed import (
    CentralizedLookup,
    DecentralizedLookup,
    NeighborhoodLookup,
)
from repro.netsim.fabric import HostDownError
from repro.tools.wsdlgen import generate_wsdl
from repro.util.errors import RegistryError


def matmul_doc():
    return generate_wsdl(MatMul, bindings=("soap",))


def time_doc():
    return generate_wsdl(WSTime, bindings=("soap",))


QUERY = "//portType[@name='MatMulPortType']"


class TestCentralized:
    def test_register_and_discover(self):
        net = lan(5)
        lookup = CentralizedLookup(net, "node0")
        lookup.register("node3", matmul_doc())
        found = lookup.discover("node4", QUERY)
        assert [d.name for d in found] == ["MatMul"]

    def test_all_traffic_flows_through_registry_host(self):
        net = lan(5)
        lookup = CentralizedLookup(net, "node0")
        lookup.register("node3", matmul_doc())
        lookup.discover("node4", QUERY)
        for (src, dst), stats in net.stats.items():
            assert "node0" in (src, dst), (src, dst)

    def test_registration_costs_messages(self):
        net = lan(3)
        lookup = CentralizedLookup(net, "node0")
        net.reset_stats()
        lookup.register("node2", matmul_doc())
        assert net.total_messages == 2  # request + ack

    def test_single_point_of_failure(self):
        net = lan(3)
        lookup = CentralizedLookup(net, "node0")
        lookup.register("node1", matmul_doc())
        net.host("node0").crash()
        with pytest.raises(HostDownError):
            lookup.discover("node2", QUERY)
        with pytest.raises(HostDownError):
            lookup.register("node2", time_doc())

    def test_unknown_registry_host(self):
        with pytest.raises(RegistryError):
            CentralizedLookup(lan(2), "ghost")


class TestDecentralized:
    def test_registration_is_free(self):
        net = lan(4)
        lookup = DecentralizedLookup(net)
        net.reset_stats()
        lookup.register("node1", matmul_doc())
        assert net.total_messages == 0

    def test_discovery_floods(self):
        net = lan(4)
        lookup = DecentralizedLookup(net)
        lookup.register("node1", matmul_doc())
        net.reset_stats()
        found = lookup.discover("node0", QUERY)
        assert [d.name for d in found] == ["MatMul"]
        assert net.total_messages == 2 * 3  # query+reply to each other node

    def test_local_hit_still_answers(self):
        net = lan(3)
        lookup = DecentralizedLookup(net)
        lookup.register("node0", matmul_doc())
        found = lookup.discover("node0", QUERY)
        assert [d.name for d in found] == ["MatMul"]

    def test_survives_registry_node_crash(self):
        net = lan(4)
        lookup = DecentralizedLookup(net)
        lookup.register("node1", matmul_doc())
        lookup.register("node2", time_doc())
        net.host("node2").crash()
        found = lookup.discover("node0", QUERY)
        assert [d.name for d in found] == ["MatMul"]  # node1's entry still found

    def test_dedup_across_hosts(self):
        net = lan(3)
        lookup = DecentralizedLookup(net)
        lookup.register("node0", matmul_doc())
        lookup.register("node1", matmul_doc())
        found = lookup.discover("node2", QUERY)
        assert len(found) == 1


class TestNeighborhood:
    def test_registration_replicates_to_k_neighbors(self):
        net = lan(5)
        lookup = NeighborhoodLookup(net, replication=2)
        net.reset_stats()
        lookup.register("node0", matmul_doc())
        assert net.total_messages == 2 * 2  # two replicas, request+ack each

    def test_neighborhood_hit_avoids_flood(self):
        net = lan(6)
        lookup = NeighborhoodLookup(net, replication=2)
        lookup.register("node0", matmul_doc())
        net.reset_stats()
        # node5's neighbours are node0, node1 (ring): replica hit
        found = lookup.discover("node5", QUERY)
        assert [d.name for d in found] == ["MatMul"]
        assert net.total_messages <= 2 * 2

    def test_miss_falls_back_to_flood(self):
        net = lan(8)
        lookup = NeighborhoodLookup(net, replication=1)
        lookup.register("node0", matmul_doc())
        found = lookup.discover("node4", QUERY)  # far from node0's replicas
        assert [d.name for d in found] == ["MatMul"]

    def test_negative_replication_rejected(self):
        with pytest.raises(RegistryError):
            NeighborhoodLookup(lan(3), replication=0)

    def test_discover_unregistered_returns_empty(self):
        net = lan(4)
        lookup = NeighborhoodLookup(net, replication=1)
        assert lookup.discover("node0", QUERY) == []


class TestNodeLoss:
    """Lookups while members are dying: answer from a replica or raise a
    typed fault — never a bare KeyError, never a hang (the simulated fabric
    is synchronous, so "no hang" here means every path terminates with a
    result or a :class:`~repro.util.errors.HarnessError`)."""

    def test_neighborhood_replica_answers_after_owner_dies(self):
        net = lan(5)
        lookup = NeighborhoodLookup(net, replication=2)
        lookup.register("node0", matmul_doc())  # replicas on node1, node2
        net.host("node0").crash()
        found = lookup.discover("node1", QUERY)
        assert [d.name for d in found] == ["MatMul"]

    def test_neighborhood_register_survives_dead_replica(self):
        net = lan(5)
        lookup = NeighborhoodLookup(net, replication=2)
        net.host("node1").crash()  # one of node0's replicas is already gone
        lookup.register("node0", matmul_doc())  # must not raise
        # the surviving replica (node2) still answers its neighbourhood
        found = lookup.discover("node3", QUERY)
        assert [d.name for d in found] == ["MatMul"]

    def test_neighborhood_flood_skips_dead_members(self):
        net = lan(8)
        lookup = NeighborhoodLookup(net, replication=1)
        lookup.register("node0", matmul_doc())
        net.host("node2").crash()
        net.host("node6").crash()
        # node4 is far from node0's replica: neighbourhood miss -> flood,
        # which must step over the two dead hosts and still find the entry
        found = lookup.discover("node4", QUERY)
        assert [d.name for d in found] == ["MatMul"]

    def test_decentralized_flood_with_majority_down(self):
        net = lan(5)
        lookup = DecentralizedLookup(net)
        lookup.register("node1", matmul_doc())
        for dead in ("node2", "node3", "node4"):
            net.host(dead).crash()
        found = lookup.discover("node0", QUERY)
        assert [d.name for d in found] == ["MatMul"]

    def test_decentralized_entry_on_dead_host_vanishes_quietly(self):
        net = lan(4)
        lookup = DecentralizedLookup(net)
        lookup.register("node1", matmul_doc())
        net.host("node1").crash()
        assert lookup.discover("node0", QUERY) == []

    def test_centralized_down_registry_is_a_typed_fault(self):
        from repro.util.errors import HarnessError

        net = lan(3)
        lookup = CentralizedLookup(net, "node0")
        net.host("node0").crash()
        with pytest.raises(HarnessError):
            lookup.discover("node1", QUERY)

    def test_unknown_host_raises_registry_error_not_keyerror(self):
        # fresh fabric per scheme: each binds the "lookup" endpoint
        for lookup in (
            CentralizedLookup(lan(3), "node0"),
            DecentralizedLookup(lan(3)),
            NeighborhoodLookup(lan(3), replication=1),
        ):
            with pytest.raises(RegistryError):
                lookup.register("ghost", matmul_doc())
            with pytest.raises(RegistryError):
                lookup.discover("ghost", QUERY)


class TestLossyLinks:
    """A dropped message is an unreachable peer on the best-effort paths."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scheme", ["decentralized", "neighborhood"])
    def test_discover_skips_lost_peers_and_never_raises(self, scheme, seed):
        net = lan(6, seed=seed)
        lookup = (
            DecentralizedLookup(net) if scheme == "decentralized"
            else NeighborhoodLookup(net, replication=2)
        )
        net.set_default_faults(drop_rate=0.3)
        lookup.register("node1", matmul_doc())  # neighbourhood pushes may be lost
        for i in range(10):
            found = lookup.discover(f"node{i % 6}", QUERY)
            assert [d.name for d in found] in (["MatMul"], [])

    def test_centralized_stays_strict(self):
        from repro.netsim.fabric import MessageDroppedError

        net = lan(3)
        lookup = CentralizedLookup(net, "node0")
        lookup.register("node1", matmul_doc())
        net.set_default_faults(drop_rate=1.0)
        with pytest.raises(MessageDroppedError):
            lookup.discover("node2", QUERY)

"""Epidemic anti-entropy: convergence, LWW merge, partitions, membership."""

import threading

import pytest

import repro.dvm.state as state
from repro.dvm.gossip import GossipState, NeighborhoodGossipState
from repro.netsim.topology import lan, random_regular
from repro.obs import metrics
from repro.util.errors import CoherencyError, DvmError
from repro.util.events import EventBus


def make(n=12, fanout=2, seed=1, cls=GossipState, **kwargs):
    network = lan(n, seed=seed)
    names = [f"node{i}" for i in range(n)]
    protocol = cls(network, members=names, fanout=fanout, seed=seed, **kwargs)
    return network, names, protocol


def converge(protocol, cap=32):
    rounds = 0
    while not protocol.converged() and rounds < cap:
        protocol.gossip_round()
        rounds += 1
    return rounds


class TestConvergence:
    def test_fresh_fleet_starts_converged(self):
        _, _, protocol = make()
        assert protocol.converged()

    def test_write_diverges_then_rounds_converge(self):
        _, names, protocol = make(pull_on_miss=False)
        protocol.update("node0", "component/a", 41)
        assert not protocol.converged()
        rounds = converge(protocol)
        assert protocol.converged()
        assert rounds <= 32
        for name in names:
            assert protocol.get(name, "component/a") == 41

    def test_every_origin_spreads_everywhere(self):
        _, names, protocol = make(n=10, pull_on_miss=False)
        for i, name in enumerate(names):
            protocol.update(name, f"slot/{i}", i * 10)
        converge(protocol)
        for reader in names:
            for i in range(10):
                assert protocol.get(reader, f"slot/{i}") == i * 10

    def test_rounds_stay_logarithmic(self):
        _, _, protocol = make(n=64, seed=5, pull_on_miss=False)
        protocol.update("node0", "component/a", 1)
        rounds = converge(protocol, cap=64)
        # fanout-2 push-pull on 64 members: well under the member count
        assert rounds <= 12

    def test_converged_rounds_are_free(self):
        network, _, protocol = make(pull_on_miss=False)
        protocol.update("node0", "component/a", 1)
        converge(protocol)
        stats = protocol.gossip_round()
        # mid-round O(1) convergence check short-circuits the whole sweep
        assert stats["exchanges"] == 0

    def test_local_write_reads_back_immediately(self):
        _, _, protocol = make(pull_on_miss=False)
        protocol.update("node3", "component/a", "x")
        assert protocol.get("node3", "component/a") == "x"

    def test_miss_without_pull_is_none_before_rounds(self):
        _, _, protocol = make(pull_on_miss=False)
        protocol.update("node0", "component/a", 1)
        assert protocol.get("node7", "component/a") is None

    def test_run_until_converged_raises_when_partitioned(self):
        network, names, protocol = make(n=6, pull_on_miss=False)
        network.partition({"node0", "node1", "node2"}, {"node3", "node4", "node5"})
        protocol.update("node0", "component/a", 1)
        with pytest.raises(CoherencyError, match="did not converge"):
            protocol.run_until_converged(max_rounds=8)
        network.heal()

    def test_works_on_random_regular_substrate(self):
        network = random_regular(20, degree=4, seed=9)
        names = [f"node{i}" for i in range(20)]
        protocol = GossipState(network, members=names, fanout=2, seed=9)
        protocol.update("node7", "component/a", 7)
        converge(protocol)
        assert protocol.get("node13", "component/a") == 7

    def test_fanout_validated(self):
        network = lan(3)
        with pytest.raises(DvmError, match="fanout"):
            GossipState(network, members=["node0"], fanout=0)


class TestLastWriterWins:
    def test_later_write_wins_everywhere(self):
        _, names, protocol = make(pull_on_miss=False)
        protocol.update("node0", "component/a", "old")
        protocol.update("node5", "component/a", "new")
        converge(protocol)
        for name in names:
            assert protocol.get(name, "component/a") == "new"

    def test_partitioned_writes_resolve_to_one_winner(self):
        network, names, protocol = make(n=6, pull_on_miss=False)
        network.partition({"node0", "node1", "node2"}, {"node3", "node4", "node5"})
        protocol.update("node0", "component/a", "left")
        protocol.update("node4", "component/a", "right")  # higher lamport
        for _ in range(6):
            protocol.gossip_round()
        assert not protocol.converged()
        network.heal()
        converge(protocol)
        values = {protocol.get(name, "component/a") for name in names}
        assert values == {"right"}


class TestEntryInterning:
    def test_interning_table_follows_live_keys_not_updates(self):
        """1,000 writes of one key from rotating origins, rounds in between."""
        _, names, protocol = make(n=4, pull_on_miss=False)
        for i in range(1000):
            protocol.update(names[i % 4], "component/a", i)
            if i % 7 == 0:
                protocol.gossip_round()  # stragglers absorb, then supersede
        assert protocol.quiesce()
        for name in names:
            assert protocol.get(name, "component/a") == 999
        assert len(protocol._entry_cache) == 1

    def test_replicas_still_share_one_entry_object(self):
        _, names, protocol = make(n=6, pull_on_miss=False)
        for i, name in enumerate(names):
            protocol.update(name, f"slot/{i}", i)
        converge(protocol)
        for i in range(6):
            held = {id(protocol.nodes[name].get(f"slot/{i}")) for name in names}
            assert len(held) == 1
        assert len(protocol._entry_cache) == 6


class TestPartition:
    def test_divergence_heals_after_partition(self):
        network, names, protocol = make(n=6, pull_on_miss=False)
        network.partition({"node0", "node1", "node2"}, {"node3", "node4", "node5"})
        protocol.update("node1", "side/a", "A")
        protocol.update("node4", "side/b", "B")
        for _ in range(8):
            protocol.gossip_round()
        assert not protocol.converged()
        # each side sees only its own write
        assert protocol.get("node5", "side/a") is None
        network.heal()
        converge(protocol)
        for name in names:
            assert protocol.get(name, "side/a") == "A"
            assert protocol.get(name, "side/b") == "B"


class TestMembership:
    def test_newcomer_is_seeded_by_join_exchange(self):
        network, _, protocol = make(n=4, pull_on_miss=False)
        protocol.update("node0", "component/a", 5)
        converge(protocol)
        network.add_host("node4")
        protocol.add_member("node4")
        assert protocol.get("node4", "component/a") == 5
        assert protocol.converged()

    def test_removed_member_does_not_block_convergence(self):
        _, _, protocol = make(n=6, pull_on_miss=False)
        protocol.update("node0", "component/a", 1)
        protocol.remove_member("node5")
        converge(protocol)
        assert protocol.converged()
        assert "node5" not in protocol.members

    def test_crashed_member_does_not_block_convergence(self):
        network, _, protocol = make(n=6, pull_on_miss=False)
        network.host("node5").crash()
        protocol.update("node0", "component/a", 1)
        rounds = converge(protocol, cap=64)
        # the crashed member can't advance its floors; the fleet only
        # converges once it is evicted from the membership
        assert not protocol.converged()
        protocol.remove_member("node5")
        converge(protocol)
        assert protocol.converged()


class TestConvergenceEvents:
    def test_transition_published_once_per_convergence(self):
        _, _, protocol = make(pull_on_miss=False)
        events = EventBus()
        seen = []
        events.subscribe("dvm.gossip.converged", seen.append)
        protocol.bind_bus(events, source="test")
        protocol.update("node0", "component/a", 1)
        converge(protocol)
        protocol.gossip_round()  # already converged: no second event
        assert len(seen) == 1
        assert seen[0].payload["members"] == 12
        protocol.update("node0", "component/a", 2)
        converge(protocol)
        assert len(seen) == 2


class TestNeighborhoodGossip:
    def test_eager_push_reaches_ring_neighbors_same_write(self):
        _, _, protocol = make(n=12, cls=NeighborhoodGossipState, radius=1, pull_on_miss=False)
        protocol.update("node0", "component/a", 9)
        for neighbor in protocol.neighbors("node0"):
            assert protocol.get(neighbor, "component/a") == 9
        # eager pushes are opportunistic: floors untouched, fleet not converged
        assert not protocol.converged()
        converge(protocol)
        assert protocol.get("node6", "component/a") == 9

    def test_radius_validated(self):
        network = lan(3)
        with pytest.raises(DvmError, match="radius"):
            NeighborhoodGossipState(network, members=["node0"], radius=0)


class TestSharedMessages:
    def test_a_publish_at_sixteen_members_decodes_each_distinct_message_once(
        self, monkeypatch
    ):
        """~45 exchanges carry 5 distinct payloads: 5 decodes, about forty before the table."""
        network, names, protocol = make(n=16, pull_on_miss=False)
        record = {"node": "node3", "wsdl": "<definitions/>" * 150, "bindings": ["sim"]}
        for i, name in enumerate(names):
            protocol.update(name, f"component/svc{i}", record)
        assert protocol.quiesce()
        state._TABLE._entries.clear()
        calls = []
        real = state.unpack_value
        monkeypatch.setattr(
            state, "unpack_value", lambda payload: calls.append(len(payload)) or real(payload)
        )
        sent = network.total_messages
        entry = protocol.update("node3", "component/svc3", record)
        assert protocol.quiesce()
        assert network.total_messages - sent > 60  # the sweep did run
        assert 1 <= len(calls) <= 6
        for name in names:
            assert protocol.nodes[name].get("component/svc3") == entry


class TestPump:
    def test_a_failing_round_is_counted_and_the_pump_goes_on(self, monkeypatch):
        _, _, protocol = make(n=3, interval_s=0.002)
        failed_twice = threading.Event()
        rounds = []

        def wedged():
            rounds.append(1)
            if len(rounds) >= 2:
                failed_twice.set()
            raise KeyError("wedged")

        monkeypatch.setattr(protocol, "gossip_round", wedged)
        with protocol:
            assert failed_twice.wait(5.0)  # the second round ran: the pump survived the first
        errors = metrics.registry.snapshot("dvm.gossip.pump_errors")
        assert errors["dvm.gossip.pump_errors"]["value"] >= 2
        assert (
            errors["dvm.gossip.pump_errors.KeyError"]["value"]
            == errors["dvm.gossip.pump_errors"]["value"]
        )

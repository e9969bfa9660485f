"""Consistent-hash sharded registry: placement, fallback, typed faults."""

import pytest

from repro.netsim.topology import lan
from repro.plugins.services import CounterService
from repro.registry.sharded import HashRing, ShardedRegistry
from repro.tools.wsdlgen import generate_wsdl
from repro.util.errors import RegistryError, ServiceNotFoundError


def doc(name):
    return generate_wsdl(CounterService, service_name=name)


HOSTS = [f"node{i}" for i in range(10)]
KEYS = [f"svc{i}" for i in range(200)]


class TestHashRing:
    def test_batch_equals_incremental(self):
        batch = HashRing(HOSTS)
        incremental = HashRing()
        for host in HOSTS:
            incremental.add(host)
        assert batch._points == incremental._points
        assert batch._owners == incremental._owners

    def test_owners_are_distinct_and_r_sized(self):
        ring = HashRing(HOSTS)
        for key in KEYS:
            owners = ring.owners(key, 3)
            assert len(owners) == 3
            assert len(set(owners)) == 3

    def test_r_capped_at_host_count(self):
        ring = HashRing(["a", "b"])
        assert len(ring.owners("x", 5)) == 2

    def test_placement_is_stable(self):
        assert HashRing(HOSTS).owner("svc7") == HashRing(HOSTS).owner("svc7")

    def test_membership_change_remaps_only_the_lost_arcs(self):
        ring = HashRing(HOSTS)
        before = {key: ring.owner(key) for key in KEYS}
        ring.remove("node3")
        moved = [key for key in KEYS if ring.owner(key) != before[key]]
        # only keys whose primary was node3 move; everything else stays put
        assert all(before[key] == "node3" for key in moved)
        assert len(moved) == sum(1 for owner in before.values() if owner == "node3")

    def test_empty_ring_is_typed(self):
        with pytest.raises(RegistryError, match="empty"):
            HashRing().owners("x")

    def test_vnodes_validated(self):
        with pytest.raises(RegistryError, match="vnodes"):
            HashRing(vnodes=0)


class TestShardedRegistry:
    def make(self, n=8, replication=2):
        network = lan(n, seed=2)
        return network, ShardedRegistry(network, replication=replication)

    def test_register_places_on_exactly_r_owners(self):
        _, shards = self.make()
        shards.register("node0", doc("counter"))
        owners = shards.owners("counter")
        assert len(owners) == 2
        for host, node in shards.nodes.items():
            held = [e.name for e in node.registry.entries()]
            assert ("counter" in held) == (host in owners)

    def test_lookup_from_any_host(self):
        _, shards = self.make()
        shards.register("node3", doc("counter"))
        for host in [f"node{i}" for i in range(8)]:
            assert shards.lookup_name(host, "counter").name == "counter"

    def test_replica_answers_when_primary_is_down(self):
        network, shards = self.make()
        shards.register("node0", doc("counter"))
        primary = shards.owners("counter")[0]
        network.host(primary).crash()
        caller = next(h for h in shards.nodes if h != primary)
        assert shards.lookup_name(caller, "counter").name == "counter"

    def test_dark_shard_is_registry_error(self):
        network, shards = self.make()
        shards.register("node0", doc("counter"))
        owners = shards.owners("counter")
        for owner in owners:
            network.host(owner).crash()
        caller = next(h for h in shards.nodes if h not in owners)
        with pytest.raises(RegistryError, match="dark"):
            shards.lookup_name(caller, "counter")

    def test_reachable_miss_is_service_not_found(self):
        _, shards = self.make()
        with pytest.raises(ServiceNotFoundError):
            shards.lookup_name("node0", "nonexistent")

    def test_unknown_caller_is_typed(self):
        _, shards = self.make()
        with pytest.raises(Exception, match="node99"):
            shards.lookup_name("node99", "counter")

    def test_replication_validated(self):
        network = lan(3)
        with pytest.raises(RegistryError, match="replication"):
            ShardedRegistry(network, replication=0)

    def test_remove_host_restores_replication(self):
        network, shards = self.make()
        shards.register("node0", doc("counter"))
        lost = shards.owners("counter")[0]
        network.host(lost).crash()
        shards.remove_host(lost)
        owners = shards.owners("counter")
        assert lost not in owners
        assert len(owners) == 2
        for owner in owners:
            assert shards.nodes[owner].registry.lookup_name("counter")

    def test_add_host_rebalances_and_sheds(self):
        network, shards = self.make(n=6)
        for i in range(20):
            shards.register("node0", doc(f"svc{i}"))
        network.add_host("fresh")
        shards.add_host("fresh")
        for host, node in shards.nodes.items():
            for entry in node.registry.entries():
                # every held entry is owned; nothing lingers off-shard
                assert host in shards.owners(entry.name)
        for i in range(20):
            assert shards.lookup_name("node1", f"svc{i}").name == f"svc{i}"

    def test_discover_scatter_finds_names_anywhere(self):
        _, shards = self.make()
        shards.register("node0", doc("alpha"))
        shards.register("node5", doc("beta"))
        found = {d.name for d in shards.discover("node2", "//portType")}
        assert found == {"alpha", "beta"}

    def test_a_removed_host_can_rejoin(self):
        # the endpoint stays bound on a removed host; rejoining rebinds it
        network, shards = self.make()
        shards.remove_host("node3")
        shards.add_host("node3")
        shards.register("node0", doc("counter"))
        for host in ("node3", "node5"):
            assert shards.lookup_name(host, "counter").name == "counter"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossy_links_never_surface_a_dropped_message(self, seed):
        network = lan(6, seed=seed)
        shards = ShardedRegistry(network, replication=2)
        network.set_default_faults(drop_rate=0.3)
        outcomes = []
        for i in range(10):
            host = f"node{i % 6}"
            try:
                shards.register(host, doc(f"svc{i}"))
                outcomes.append(shards.lookup_name(host, f"svc{i}").name)
            except RegistryError as exc:  # a dark shard or a miss, typed
                outcomes.append(type(exc).__name__)
            assert isinstance(shards.discover(host, "//portType"), list)
        assert any(outcome.startswith("svc") for outcome in outcomes)

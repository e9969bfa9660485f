"""Failure injection across the stack: crashes, partitions, recovery.

The paper motivates Harness with "improving robustness … and adaptation";
these tests drive the failure paths: node crashes mid-protocol, network
partitions, service faults, and recovery after healing.
"""

import threading

import numpy as np
import pytest

from repro.core.builder import HarnessDvm
from repro.dvm.state import DecentralizedState, FullSynchronyState, NeighborhoodState
from repro.netsim import lan
from repro.netsim.fabric import HostDownError
from repro.plugins.services import CounterService, MatMul
from repro.util.errors import CoherencyError, PluginError


class TestCoherencyUnderPartition:
    def test_full_synchrony_update_fails_cleanly_across_partition(self):
        net = lan(4)
        members = [f"node{i}" for i in range(4)]
        protocol = FullSynchronyState(net, members)
        protocol.update("node0", "k", "before")
        net.partition({"node0", "node1"}, {"node2", "node3"})
        with pytest.raises(CoherencyError):
            protocol.update("node0", "k", "after")
        # pre-partition state still readable locally everywhere
        for member in members:
            assert protocol.get(member, "k") in ("before", "after")

    def test_decentralized_survives_partition_with_stale_reads(self):
        net = lan(4)
        members = [f"node{i}" for i in range(4)]
        protocol = DecentralizedState(net, members)
        protocol.update("node0", "k", "v1")
        net.partition({"node0", "node1"}, {"node2", "node3"})
        protocol.update("node0", "k", "v2")  # local write always succeeds
        # same side sees the new value; the other side sees nothing newer
        assert protocol.get("node1", "k") == "v2"
        assert protocol.get("node2", "k") is None  # v1 only lived on node0
        net.heal()
        assert protocol.get("node3", "k") == "v2"  # convergence after heal

    def test_neighborhood_heals_after_partition(self):
        net = lan(6)
        members = [f"node{i}" for i in range(6)]
        protocol = NeighborhoodState(net, members, radius=1)
        net.partition({"node0", "node1", "node5"}, {"node2", "node3", "node4"})
        protocol.update("node0", "k", "v")  # replicates within its side
        assert protocol.get("node1", "k") == "v"
        net.heal()
        assert protocol.get("node3", "k") == "v"  # flood finds it post-heal


class TestDvmNodeCrash:
    def test_remote_call_to_crashed_host_fails_fast(self, rng):
        net = lan(3)
        with HarnessDvm("crash1", net) as harness:
            harness.add_nodes("node0", "node1", "node2")
            harness.deploy("node1", MatMul)
            stub = harness.stub("node0", "MatMul")
            net.host("node1").crash()
            with pytest.raises(HostDownError):
                stub.multiply(np.eye(2), np.eye(2))
            stub.close()

    def test_service_recovers_after_restart(self, rng):
        net = lan(3)
        with HarnessDvm("crash2", net) as harness:
            harness.add_nodes("node0", "node1", "node2")
            harness.deploy("node1", MatMul)
            stub = harness.stub("node0", "MatMul")
            net.host("node1").crash()
            with pytest.raises(HostDownError):
                stub.multiply(np.eye(2), np.eye(2))
            net.host("node1").restart()
            a = rng.random((3, 3))
            assert np.allclose(stub.multiply(a, a), a @ a)
            stub.close()

    def test_migration_away_from_failing_node(self):
        """Adaptation: move a component off a node before taking it down."""
        net = lan(3)
        with HarnessDvm("crash3", net) as harness:
            harness.add_nodes("node0", "node1", "node2")
            harness.deploy("node1", CounterService)
            harness.stub("node1", "CounterService").increment(4)
            harness.move("CounterService", "node2")
            net.host("node1").crash()
            stub = harness.stub("node0", "CounterService")
            assert stub.value() == 4  # state survived the evacuation
            stub.close()

    def test_kernel_message_to_crashed_host(self):
        net = lan(2)
        with HarnessDvm("crash4", net) as harness:
            harness.add_nodes("node0", "node1")
            from repro.plugins import PingPlugin

            harness.load_plugin_everywhere(PingPlugin)
            net.host("node1").crash()
            ping = harness.kernel("node0").get_service("ping")
            with pytest.raises(HostDownError):
                ping.ping("node1", 1)


class TestServiceFaults:
    def test_component_exception_does_not_kill_the_endpoint(self, rng):
        net = lan(2)
        with HarnessDvm("fault1", net) as harness:
            harness.add_nodes("node0", "node1")
            harness.deploy("node1", MatMul)
            stub = harness.stub("node0", "MatMul")
            from repro.util.errors import EncodingError

            with pytest.raises(EncodingError):
                stub.getResult(np.arange(3.0), np.arange(3.0))  # not square
            # endpoint still serves good requests afterwards
            a = rng.random((2, 2))
            assert np.allclose(stub.multiply(a, a), a @ a)
            stub.close()

    def test_pvm_recv_timeout_is_clean(self):
        net = lan(2)
        with HarnessDvm("fault2", net) as harness:
            harness.add_nodes("node0", "node1")
            from repro.plugins import BASELINE_PLUGINS
            from repro.plugins.hpvmd import PvmDaemonPlugin
            from repro.util.errors import HarnessTimeoutError

            for plugin in BASELINE_PLUGINS:
                harness.load_plugin_everywhere(plugin)
            harness.load_plugin("node0", PvmDaemonPlugin())
            pvmd = harness.kernel("node0").get_service("pvm")
            console = pvmd.mytid()
            with pytest.raises(HarnessTimeoutError):
                pvmd._recv_for(console, None, 0.05)

    def test_mpi_rank_failure_reported_with_rank_id(self):
        net = lan(1)
        with HarnessDvm("fault3", net) as harness:
            harness.add_nodes("node0")
            from repro.plugins import BASELINE_PLUGINS
            from repro.plugins.hmpi import MpiPlugin

            for plugin in BASELINE_PLUGINS:
                harness.load_plugin_everywhere(plugin)
            harness.load_plugin("node0", MpiPlugin())
            mpi = harness.kernel("node0").get_service("mpi")

            def crash_rank_one(ctx):
                if ctx.rank == 1:
                    raise RuntimeError("simulated rank crash")
                return "ok"

            with pytest.raises(PluginError, match="rank 1"):
                mpi.run(crash_rank_one, world_size=3)


class TestRegistryRecovery:
    def test_reregistration_after_neighborhood_node_loss(self):
        from repro.registry.distributed import NeighborhoodLookup
        from repro.tools.wsdlgen import generate_wsdl

        net = lan(5)
        lookup = NeighborhoodLookup(net, replication=1)
        lookup.register("node0", generate_wsdl(MatMul, bindings=("soap",)))
        # both node0 and its replica die
        net.host("node0").crash()
        net.host("node1").crash()
        assert lookup.discover("node3", "//portType[@name='MatMulPortType']") == []
        # supplier recovers and re-registers elsewhere
        lookup.register("node2", generate_wsdl(MatMul, bindings=("soap",)))
        found = lookup.discover("node3", "//portType[@name='MatMulPortType']")
        assert [d.name for d in found] == ["MatMul"]


class TestLossyLinks:
    def test_coherency_converges_over_lossy_links_with_retries(self):
        # idempotent state ops + bounded resends: full synchrony still
        # completes on a fabric dropping 15% of messages per leg (seeded)
        net = lan(4, seed=21)
        net.set_default_faults(drop_rate=0.15)
        members = [f"node{i}" for i in range(4)]
        protocol = FullSynchronyState(net, members, send_retries=8)
        for i in range(20):
            protocol.update("node0", f"k{i}", i)
        for member in members:
            assert protocol.get(member, "k19") == 19

    def test_neighborhood_resends_dropped_pushes_and_reads(self):
        # the same budget on the neighbourhood scheme: pushes and reads are
        # resent, and every resend is a message the fabric charged for
        members = [f"node{i}" for i in range(6)]

        def run(drop_rate, send_retries):
            net = lan(6, seed=21)
            net.set_default_faults(drop_rate=drop_rate)
            protocol = NeighborhoodState(net, members, radius=1, send_retries=send_retries)
            for i in range(20):
                protocol.update("node0", f"k{i}", i)
            return net, protocol

        net, protocol = run(drop_rate=0.15, send_retries=8)
        assert protocol.send_retries == 8
        for neighbor in protocol.neighbors("node0"):
            # a push that was dropped and not resent would leave a gap here
            assert sorted(protocol.nodes[neighbor].store) == sorted(f"k{i}" for i in range(20))
        lossless, _ = run(drop_rate=0.0, send_retries=8)
        assert net.total_messages > lossless.total_messages  # the resends
        assert protocol.get("node3", "k19") == 19  # a flooding read over the same links

        # without the budget the same fabric loses pushes for good
        _, bare = run(drop_rate=0.15, send_retries=0)
        assert any(
            len(bare.nodes[neighbor].store) < 20 for neighbor in bare.neighbors("node0")
        )

    def test_stub_policy_rides_out_drops(self):
        from repro.bindings.policy import InvocationPolicy

        net = lan(2, seed=3)
        with HarnessDvm("lossy1", net) as harness:
            harness.add_nodes("node0", "node1")
            harness.deploy("node1", MatMul, bindings=("sim",))
            net.set_link_faults("node0", "node1", drop_rate=0.25)
            policy = InvocationPolicy(
                max_attempts=8, backoff_base_s=0.0, backoff_max_s=0.0, jitter=0.0,
                idempotent=True, breaker_threshold=0,
            )
            stub = harness.stub("node0", "MatMul", prefer=("sim",), policy=policy)
            a = np.eye(3)
            for _ in range(10):  # seeded fabric: deterministic drop pattern
                assert np.allclose(stub.multiply(a, a), a)
            stub.close()

    def test_unpolicied_stub_surfaces_drops(self):
        from repro.netsim.fabric import MessageDroppedError

        net = lan(2, seed=3)
        with HarnessDvm("lossy2", net) as harness:
            harness.add_nodes("node0", "node1")
            harness.deploy("node1", MatMul, bindings=("sim",))
            net.set_link_faults("node0", "node1", drop_rate=1.0, symmetric=False)
            stub = harness.stub("node0", "MatMul", prefer=("sim",))
            with pytest.raises(MessageDroppedError):
                stub.multiply(np.eye(2), np.eye(2))
            stub.close()


class TestCircuitBreaking:
    def test_breaker_fails_fast_on_dead_host_and_recovers(self):
        """Breaker cooldown on a virtual clock: the test advances time
        explicitly instead of really sleeping past the cooldown."""
        from repro.bindings.policy import InvocationPolicy
        from repro.util.clock import VirtualClock
        from repro.util.errors import CircuitOpenError

        clock = VirtualClock()
        net = lan(2)
        with HarnessDvm("breaker1", net, clock=clock) as harness:
            harness.add_nodes("node0", "node1")
            harness.deploy("node1", CounterService, bindings=("sim",))
            policy = InvocationPolicy(
                max_attempts=1, breaker_threshold=2, breaker_cooldown_s=0.05,
            )
            stub = harness.stub("node0", "CounterService", prefer=("sim",), policy=policy)
            net.host("node1").crash()
            for _ in range(2):
                with pytest.raises(HostDownError):
                    stub.increment(1)
            with pytest.raises(CircuitOpenError):  # breaker open: no fabric traffic
                stub.increment(1)
            net.host("node1").restart()
            clock.advance(0.06)  # cooldown elapses; half-open probe succeeds
            assert stub.increment(1) == 1
            stub.close()


class TestSelfHealing:
    def test_end_to_end_recovery_from_node_crash(self):
        """The acceptance scenario: crash the node hosting a restartable
        component mid-workload; the detector evicts it, the failover manager
        revives the component from its checkpoint on a surviving node, and a
        pre-existing stub completes its next call without the caller ever
        handling the failure."""
        net = lan(3)
        with HarnessDvm("heal1", net) as harness:
            harness.add_nodes("node0", "node1", "node2")
            harness.deploy(
                "node0", CounterService, name="counter",
                bindings=("local-instance", "sim"), restartable=True,
            )
            detector, failover = harness.enable_self_healing(
                observer="node2", suspect_after=1, evict_after=2,
            )
            stub = harness.stub("node1", "counter", resilient=True)
            assert stub.increment(5) == 5   # workload in progress
            failover.checkpoint()

            net.host("node0").crash()
            evicted = []
            for _ in range(4):
                evicted += detector.tick()
            assert evicted == ["node0"]

            # same stub object, no caller-side error handling
            assert stub.increment(1) == 6
            index = harness.dvm.component_index("node1")
            assert index["counter"] in ("node1", "node2")
            assert failover.recovered[0]["service"] == "counter"
            stub.close()

    def test_recovery_preserves_checkpointed_not_post_checkpoint_state(self):
        net = lan(3)
        with HarnessDvm("heal2", net) as harness:
            harness.add_nodes("node0", "node1", "node2")
            harness.deploy(
                "node0", CounterService, name="counter",
                bindings=("local-instance", "sim"), restartable=True,
            )
            detector, failover = harness.enable_self_healing(
                observer="node2", suspect_after=1, evict_after=1,
            )
            stub = harness.stub("node1", "counter", resilient=True)
            stub.increment(5)
            failover.checkpoint()
            stub.increment(100)  # never checkpointed: lost with the node

            net.host("node0").crash()
            while not detector.tick():
                pass
            assert stub.increment(1) == 6  # resumed from the last checkpoint
            stub.close()

    def test_dead_kernel_removed_from_harness(self):
        net = lan(3)
        with HarnessDvm("heal3", net) as harness:
            harness.add_nodes("node0", "node1", "node2")
            harness.deploy(
                "node0", CounterService, name="counter",
                bindings=("local-instance", "sim"), restartable=True,
            )
            detector, failover = harness.enable_self_healing(observer="node2",
                                                             suspect_after=1,
                                                             evict_after=1)
            failover.checkpoint()
            net.host("node0").crash()
            detector.tick()
            assert "node0" not in harness.kernels
            assert harness.dvm.nodes() == ["node1", "node2"]

    def test_periodic_self_healing_on_virtual_clock(self):
        """The same periodic work the wall clock's timer thread runs, driven
        by a virtual clock: ``start_threads=True`` registers checkpoints and
        heartbeats on the harness clock, the test advances time, and the
        outcome is exact — no real sleeping, no wall-clock polling loops, no
        flaky deadlines."""
        from repro.util.clock import VirtualClock

        clock = VirtualClock()
        net = lan(3)
        with HarnessDvm("heal4", net, clock=clock) as harness:
            harness.add_nodes("node0", "node1", "node2")
            harness.deploy(
                "node0", CounterService, name="counter",
                bindings=("local-instance", "sim"), restartable=True,
            )
            harness.enable_self_healing(
                observer="node2", suspect_after=1, evict_after=2,
                heartbeat_interval_s=0.02, checkpoint_interval_s=0.02,
                start_threads=True,
            )

            stub = harness.stub("node1", "counter", resilient=True)
            stub.increment(3)
            clock.advance(0.05)  # ≥ one checkpoint lands, at count 3
            net.host("node0").crash()
            clock.advance(0.06)  # two missed heartbeats: suspected, then dead
            assert "node0" not in harness.dvm.nodes()
            # recovered from the checkpoint taken at exactly 3
            assert stub.increment(1) == 4
            stub.close()

    def test_wall_clock_self_healing_and_gossip_share_one_timer_thread(self):
        before = set(threading.enumerate())
        harness = HarnessDvm("heal5", lan(3), coherency="gossip")
        harness.add_nodes("node0", "node1", "node2")
        harness.enable_self_healing(observer="node2", start_threads=True)
        harness.dvm.protocol.start(harness.clock)
        try:
            assert len(set(threading.enumerate()) - before) == 1
        finally:
            harness.close()
        assert set(threading.enumerate()) - before == set()

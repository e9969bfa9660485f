"""Checkpoint store and automatic failover manager."""

import pytest

from repro.dvm.machine import DistributedVirtualMachine
from repro.dvm.state import FullSynchronyState
from repro.netsim import lan
from repro.obs import metrics
from repro.plugins.services import CounterService
from repro.recovery import CheckpointStore, FailoverManager, least_loaded_node
from repro.util.clock import VirtualClock
from repro.util.errors import RecoveryError


def make_dvm(n: int = 3, clock=None):
    net = lan(n)
    dvm = DistributedVirtualMachine(
        "rec", net, lambda network: FullSynchronyState(network), clock=clock
    )
    for i in range(n):
        dvm.add_node(f"node{i}")
    return net, dvm


class TestCheckpointStore:
    def test_latest_wins(self):
        store = CheckpointStore()
        store.put("svc", "node0", b"old")
        store.put("svc", "node1", b"new")
        assert store.get("svc") == ("node1", b"new")
        assert len(store) == 1

    def test_discard_and_services(self):
        store = CheckpointStore()
        store.put("a", "n", b"1")
        store.put("b", "n", b"2")
        assert store.services() == ["a", "b"]
        store.discard("a")
        assert store.get("a") is None
        assert store.services() == ["b"]


class TestCheckpointing:
    def test_only_restartable_components_snapshotted(self):
        _net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="durable",
                   bindings=("local-instance", "sim"), restartable=True)
        dvm.deploy("node1", CounterService, name="ephemeral",
                   bindings=("local-instance", "sim"))
        manager = FailoverManager(dvm)
        assert manager.checkpoint() == 1
        assert manager.store.services() == ["durable"]
        manager.close()
        dvm.close()

    def test_checkpoint_publishes_and_charges_fabric(self):
        net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="durable",
                   bindings=("local-instance", "sim"), restartable=True)
        seen = []
        dvm.events.subscribe("recovery.checkpoint", lambda e: seen.append(e.payload))
        manager = FailoverManager(dvm, home="node2")
        net.reset_stats()
        manager.checkpoint()
        assert seen and seen[0]["service"] == "durable"
        # snapshot bytes travelled node0 -> node2 in the cost model
        assert net.stats[("node0", "node2")].bytes == seen[0]["bytes"]
        manager.close()
        dvm.close()

    def test_checkpoint_refresh_captures_new_state(self):
        _net, dvm = make_dvm()
        handle = dvm.deploy("node0", CounterService, name="durable",
                            bindings=("local-instance", "sim"), restartable=True)
        manager = FailoverManager(dvm)
        manager.checkpoint()
        first = manager.store.get("durable")[1]
        handle.instance.increment(10)
        manager.checkpoint()
        assert manager.store.get("durable")[1] != first
        manager.close()
        dvm.close()


class TestFailover:
    def test_restartable_component_revived_on_surviving_node(self):
        net, dvm = make_dvm()
        handle = dvm.deploy("node0", CounterService, name="durable",
                            bindings=("local-instance", "sim"), restartable=True)
        handle.instance.increment(7)
        manager = FailoverManager(dvm)
        manager.checkpoint()
        done = []
        dvm.events.subscribe("recovery.failover", lambda e: done.append(e.payload))

        net.host("node0").crash()
        dvm.evict_node("node0", by="node1")  # failover runs inside this call

        assert done and done[0]["service"] == "durable"
        new_home = done[0]["to"]
        assert new_home in ("node1", "node2")
        assert dvm.component_index("node1") == {"durable": new_home}
        # checkpointed state survived the crash
        revived = dvm.node(new_home).container.component_named("durable")
        assert revived.instance.value() == 7
        assert revived.metadata["restartable"] is True
        assert manager.recovered == done
        manager.close()
        dvm.close()

    def test_non_restartable_component_stays_lost(self):
        net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="ephemeral",
                   bindings=("local-instance", "sim"))
        manager = FailoverManager(dvm)
        manager.checkpoint()
        outcomes = []
        dvm.events.subscribe("recovery", lambda e: outcomes.append(e.topic))
        net.host("node0").crash()
        dvm.evict_node("node0", by="node1")
        assert outcomes == []  # neither failover nor failure: not restartable
        assert "ephemeral" not in dvm.component_index("node1")
        manager.close()
        dvm.close()

    def test_missing_checkpoint_reports_failure(self):
        net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="durable",
                   bindings=("local-instance", "sim"), restartable=True)
        manager = FailoverManager(dvm)  # never checkpointed
        failures = []
        dvm.events.subscribe("recovery.failover.failed", lambda e: failures.append(e.payload))
        net.host("node0").crash()
        dvm.evict_node("node0", by="node1")
        assert failures and failures[0]["reason"] == "no checkpoint"
        manager.close()
        dvm.close()

    def test_custom_placement_policy(self):
        net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="durable",
                   bindings=("local-instance", "sim"), restartable=True)
        manager = FailoverManager(dvm, placement=lambda _dvm, _record: "node2")
        manager.checkpoint()
        net.host("node0").crash()
        dvm.evict_node("node0", by="node1")
        assert dvm.component_index("node1")["durable"] == "node2"
        manager.close()
        dvm.close()

    def test_no_surviving_node_reports_failure(self):
        net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="durable",
                   bindings=("local-instance", "sim"), restartable=True)
        manager = FailoverManager(dvm, placement=lambda _dvm, _record: None)
        manager.checkpoint()
        failures = []
        dvm.events.subscribe("recovery.failover.failed", lambda e: failures.append(e.payload))
        net.host("node0").crash()
        dvm.evict_node("node0", by="node1")
        assert failures == [
            {"service": "durable", "from": "node0", "reason": "no surviving node"}
        ]
        assert manager.recovered == []
        manager.close()
        dvm.close()

    def test_restore_transfer_is_charged_from_the_home_node(self):
        net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="durable",
                   bindings=("local-instance", "sim"), restartable=True)
        manager = FailoverManager(
            dvm, home="node2", placement=lambda _dvm, _record: "node1"
        )
        manager.checkpoint()
        charged = []
        real_charge = net.charge

        def charge(src, dst, size):
            charged.append((src, dst, size))
            real_charge(src, dst, size)

        net.charge = charge
        net.host("node0").crash()
        dvm.evict_node("node0", by="node1")
        (done,) = manager.recovered
        # the snapshot travelled node2 (the store) -> node1 (the new home)
        assert charged == [("node2", "node1", done["bytes"])]
        manager.close()
        dvm.close()

    def test_closed_manager_stops_reacting(self):
        net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="durable",
                   bindings=("local-instance", "sim"), restartable=True)
        manager = FailoverManager(dvm)
        manager.checkpoint()
        manager.close()
        net.host("node0").crash()
        dvm.evict_node("node0", by="node1")
        assert manager.recovered == []
        assert "durable" not in dvm.component_index("node1")
        dvm.close()


class TestLifecycle:
    def test_start_on_a_closed_manager_raises(self):
        _net, dvm = make_dvm()
        manager = FailoverManager(dvm)
        manager.close()
        with pytest.raises(RecoveryError):
            manager.start()
        dvm.close()

    def test_periodic_checkpoints_on_the_dvm_clock(self):
        clock = VirtualClock()
        _net, dvm = make_dvm(clock=clock)
        dvm.deploy("node0", CounterService, name="durable",
                   bindings=("local-instance", "sim"), restartable=True)
        manager = FailoverManager(dvm, interval_s=0.5)
        seen = []
        dvm.events.subscribe("recovery.checkpoint", lambda e: seen.append(clock.now()))
        manager.start()
        clock.advance(1.2)
        manager.close()  # cancels the registration
        clock.advance(5.0)
        assert seen == [0.5, 1.0]
        dvm.close()

    def test_a_failing_checkpoint_is_counted_and_the_pump_goes_on(self, monkeypatch):
        clock = VirtualClock()
        _net, dvm = make_dvm(clock=clock)
        manager = FailoverManager(dvm, interval_s=0.5)
        calls = []

        def wedged():
            calls.append(clock.now())
            raise KeyError("wedged")

        monkeypatch.setattr(manager, "checkpoint", wedged)
        total = metrics.registry.counter("recovery.failover.pump_errors")
        typed = metrics.registry.counter("recovery.failover.pump_errors.KeyError")
        before = total.value(), typed.value()
        manager.start()
        clock.advance(1.0)
        manager.close()
        assert calls == [0.5, 1.0]
        assert (total.value(), typed.value()) == (before[0] + 2, before[1] + 2)
        dvm.close()


class TestPlacement:
    def test_least_loaded_prefers_emptier_node(self):
        _net, dvm = make_dvm()
        dvm.deploy("node0", CounterService, name="a", bindings=("local-instance", "sim"))
        dvm.deploy("node0", CounterService, name="b", bindings=("local-instance", "sim"))
        dvm.deploy("node1", CounterService, name="c", bindings=("local-instance", "sim"))
        assert least_loaded_node(dvm, {}) == "node2"
        dvm.close()

    def test_no_nodes_returns_none(self):
        _net, dvm = make_dvm(1)
        dvm.remove_node("node0")
        assert least_loaded_node(dvm, {}) is None
        dvm.close()

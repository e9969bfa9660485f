"""A checkpoint pass survives a node or a component it cannot snapshot, and counts it."""

from repro.dvm.machine import DistributedVirtualMachine
from repro.dvm.state import FullSynchronyState
from repro.netsim import lan
from repro.obs import metrics
from repro.plugins.services import CounterService
from repro.recovery import FailoverManager
from repro.recovery import failover as failover_module
from repro.util.errors import ServiceNotFoundError


def _dvm():
    dvm = DistributedVirtualMachine("ckpt", lan(3), lambda network: FullSynchronyState(network))
    for i in range(3):
        dvm.add_node(f"node{i}")
    for i in range(3):
        dvm.deploy(f"node{i}", CounterService, name=f"svc{i}",
                   bindings=("local-instance", "sim"), restartable=True)
    return dvm


def _counted(name: str) -> dict:
    return {key: value["value"] for key, value in metrics.registry.snapshot(name).items()}


def test_a_node_gone_between_listing_and_lookup_is_counted(monkeypatch):
    dvm = _dvm()
    node = dvm.node

    def evicted(host):
        if host == "node1":
            raise ServiceNotFoundError("node1 left")
        return node(host)

    monkeypatch.setattr(dvm, "node", evicted)
    manager = FailoverManager(dvm)
    assert manager.checkpoint() == 2
    assert manager.store.services() == ["svc0", "svc2"]
    assert _counted("recovery.checkpoint.node_errors") == {
        "recovery.checkpoint.node_errors": 1,
        "recovery.checkpoint.node_errors.ServiceNotFoundError": 1,
    }
    manager.close()
    dvm.close()


def test_an_unserializable_component_keeps_its_last_snapshot_and_is_counted(monkeypatch):
    dvm = _dvm()
    manager = FailoverManager(dvm)
    assert manager.checkpoint() == 3
    before = manager.store.get("svc2")
    serialize = failover_module.serialize_component
    broken = dvm.node("node2").container.component_named("svc2").instance

    def refuse(instance):
        if instance is broken:
            raise TypeError("cannot pickle")
        return serialize(instance)

    monkeypatch.setattr(failover_module, "serialize_component", refuse)
    assert manager.checkpoint() == 2
    assert manager.store.get("svc2") == before
    assert _counted("recovery.checkpoint.serialize_errors") == {
        "recovery.checkpoint.serialize_errors": 1,
        "recovery.checkpoint.serialize_errors.TypeError": 1,
    }
    manager.close()
    dvm.close()

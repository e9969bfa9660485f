"""HarnessDvm assembly and component migration (the §6 scenario mechanics)."""

import numpy as np
import pytest

from repro.core.builder import COHERENCY_SCHEMES, HarnessDvm
from repro.core.migration import (
    deserialize_component,
    move_component,
    serialize_component,
)
from repro.netsim import lan, two_clusters
from repro.plugins import BASELINE_PLUGINS
from repro.plugins.services import CounterService, MatMul
from repro.util.errors import DvmError, MigrationError


class TestHarnessDvm:
    def test_unknown_coherency_rejected(self):
        with pytest.raises(DvmError):
            HarnessDvm("x", lan(1), coherency="psychic")

    def test_all_scheme_names_buildable(self):
        for scheme in COHERENCY_SCHEMES:
            net = lan(2)
            with HarnessDvm(f"dvm-{scheme}", net, coherency=scheme) as h:
                h.add_nodes("node0", "node1")
                assert h.dvm.protocol.scheme == scheme

    def test_each_scheme_gets_the_knobs_it_takes(self):
        with HarnessDvm(
            "knobs",
            lan(2),
            coherency="neighborhood-gossip",
            neighborhood_radius=3,
            gossip_fanout=4,
            gossip_interval_s=0.5,
        ) as h:
            protocol = h.dvm.protocol
            assert (protocol.radius, protocol.fanout, protocol.interval_s) == (3, 4, 0.5)
        with HarnessDvm("radius", lan(2), coherency="neighborhood", neighborhood_radius=3) as h:
            assert h.dvm.protocol.radius == 3

    def test_failed_kernel_shutdown_on_eviction_is_counted(self, monkeypatch):
        from repro.obs.metrics import registry

        errors = registry.counter("core.builder.shutdown_errors")
        with HarnessDvm("evict", lan(2)) as h:
            kernel = h.add_node("node1")

            def broken_shutdown():
                raise RuntimeError("stuck")

            monkeypatch.setattr(kernel, "shutdown", broken_shutdown)
            before = errors.value()
            h.events.publish("dvm.member.dead", {"node": "node1"}, source="test")
            assert errors.value() - before == 1
            assert "node1" not in h.kernels

    def test_add_node_boots_kernel(self):
        with HarnessDvm("k1", lan(2)) as h:
            kernel = h.add_node("node0")
            assert kernel.host_name == "node0"
            assert h.kernel("node0") is kernel
            with pytest.raises(DvmError):
                h.kernel("node1")

    def test_duplicate_node_rejected(self):
        with HarnessDvm("k2", lan(2)) as h:
            h.add_node("node0")
            with pytest.raises(DvmError):
                h.add_node("node0")

    def test_replicated_plugins(self):
        with HarnessDvm("k3", lan(3)) as h:
            h.add_nodes("node0", "node1", "node2")
            for plugin in BASELINE_PLUGINS:
                loaded = h.load_plugin_everywhere(plugin)
                assert set(loaded) == {"node0", "node1", "node2"}
            status = h.status("node0")
            assert status["plugins"]["node1"] == ["hevent", "hmsg", "hproc", "htable"]

    def test_node_specific_plugin(self):
        from repro.plugins import PingPlugin

        with HarnessDvm("k4", lan(2)) as h:
            h.add_nodes("node0", "node1")
            h.load_plugin("node0", PingPlugin)
            assert h.kernel("node0").plugins() == ["ping"]
            assert h.kernel("node1").plugins() == []

    def test_deploy_and_stub(self, rng):
        with HarnessDvm("k5", lan(2)) as h:
            h.add_nodes("node0", "node1")
            h.deploy("node1", MatMul)
            stub = h.stub("node0", "MatMul")
            a = rng.random((4, 4))
            assert np.allclose(stub.multiply(a, a), a @ a)
            stub.close()


class TestSerialization:
    def test_round_trip_preserves_state(self):
        counter = CounterService()
        counter.increment(9)
        revived = deserialize_component(serialize_component(counter))
        assert isinstance(revived, CounterService)
        assert revived.value() == 9

    def test_unserializable_component_rejected(self):
        import threading

        class Bad:
            def __init__(self):
                self.lock = threading.Lock()

        with pytest.raises(MigrationError):
            serialize_component(Bad())

    def test_corrupt_blob_rejected(self):
        with pytest.raises(MigrationError):
            deserialize_component(b"not a pickle")


class TestMigration:
    def test_move_preserves_state_and_namespace(self):
        net = two_clusters(2)
        with HarnessDvm("mig", net) as h:
            h.add_nodes("a0", "a1", "b0")
            h.deploy("a0", CounterService)
            h.stub("a0", "CounterService").increment(13)

            handle = h.move("CounterService", "b0")
            assert handle.container_uri.startswith("container://b0/")
            owner, _ = h.lookup("a1", "CounterService")
            assert owner == "b0"
            # state travelled with the component
            assert h.stub("b0", "CounterService").value() == 13

    def test_move_to_owner_rejected(self):
        with HarnessDvm("mig2", lan(2)) as h:
            h.add_nodes("node0", "node1")
            h.deploy("node0", CounterService)
            with pytest.raises(MigrationError):
                h.move("CounterService", "node0")

    def test_move_charges_fabric(self):
        net = lan(2)
        with HarnessDvm("mig3", net) as h:
            h.add_nodes("node0", "node1")
            h.deploy("node0", CounterService)
            before = net.total_bytes
            h.move("CounterService", "node1")
            assert net.total_bytes > before

    def test_move_emits_event(self):
        net = lan(2)
        with HarnessDvm("mig4", net) as h:
            h.add_nodes("node0", "node1")
            h.deploy("node0", CounterService)
            moves = []
            h.events.subscribe("dvm.component.moved", lambda e: moves.append(e.payload))
            h.move("CounterService", "node1")
            assert moves and moves[0]["from"] == "node0" and moves[0]["to"] == "node1"

    def test_moved_component_still_remotely_callable(self, rng):
        net = lan(3)
        with HarnessDvm("mig5", net) as h:
            h.add_nodes("node0", "node1", "node2")
            h.deploy("node0", MatMul)
            h.move("MatMul", "node2")
            stub = h.stub("node1", "MatMul")
            a = rng.random((3, 3))
            assert np.allclose(stub.multiply(a, a), a @ a)
            stub.close()

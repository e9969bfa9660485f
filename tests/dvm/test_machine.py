"""DistributedVirtualMachine: membership, unified namespace, stubs, status."""

import numpy as np
import pytest

from repro.core.builder import HarnessDvm
from repro.dvm.machine import DistributedVirtualMachine
from repro.dvm.state import FullSynchronyState
from repro.netsim import lan
from repro.plugins.services import CounterService, MatMul
from repro.util.errors import DvmError, MembershipError, ServiceNotFoundError
from repro.util.ids import HarnessName
from repro.wsdl.io import document_to_string


@pytest.fixture
def dvm():
    net = lan(4)
    with DistributedVirtualMachine("testdvm", net, FullSynchronyState) as machine:
        for i in range(3):
            machine.add_node(f"node{i}")
        yield machine


class TestMembership:
    def test_add_node(self, dvm):
        assert dvm.nodes() == ["node0", "node1", "node2"]

    def test_duplicate_node_rejected(self, dvm):
        with pytest.raises(MembershipError):
            dvm.add_node("node0")

    def test_unknown_host_rejected(self, dvm):
        from repro.util.errors import TransportError

        with pytest.raises(TransportError):
            dvm.add_node("ghost")

    def test_members_seen_from_everywhere(self, dvm):
        for node in dvm.nodes():
            assert dvm.members_seen_by(node) == ["node0", "node1", "node2"]

    def test_late_joiner_sees_existing_state(self, dvm):
        dvm.deploy("node0", MatMul)
        dvm.add_node("node3")
        assert dvm.component_index("node3") == {"MatMul": "node0"}
        assert "node3" in dvm.members_seen_by("node0")

    def test_remove_node(self, dvm):
        dvm.deploy("node2", MatMul)
        dvm.remove_node("node2")
        assert dvm.nodes() == ["node0", "node1"]
        assert dvm.component_index("node0") == {}
        with pytest.raises(MembershipError):
            dvm.remove_node("node2")

    def test_member_events(self):
        net = lan(2)
        with DistributedVirtualMachine("evdvm", net, FullSynchronyState) as machine:
            topics = []
            machine.events.subscribe("dvm.member", lambda e: topics.append((e.topic, e.payload)))
            machine.add_node("node0")
            machine.add_node("node1")
            machine.remove_node("node1")
            assert ("dvm.member.joined", "node0") in topics
            assert ("dvm.member.left", "node1") in topics

    def test_protocol_factory_must_start_empty(self):
        net = lan(2)
        with pytest.raises(DvmError):
            DistributedVirtualMachine(
                "bad", net, lambda n: FullSynchronyState(n, ["node0"])
            )


class TestNamespace:
    def test_deploy_publishes_dvm_wide(self, dvm):
        dvm.deploy("node1", MatMul)
        owner, document = dvm.lookup("node2", "MatMul")
        assert owner == "node1"
        document.validate()

    def test_component_index(self, dvm):
        dvm.deploy("node0", MatMul)
        dvm.deploy("node1", CounterService)
        index = dvm.component_index("node2")
        assert index == {"MatMul": "node0", "CounterService": "node1"}

    def test_staged_publication(self, dvm):
        """§6: deploy privately in the container, validate, publish later."""
        container = dvm.node("node0").container
        container.deploy(MatMul, bindings=("local-instance", "sim"), exposure="private")
        with pytest.raises(ServiceNotFoundError):
            dvm.lookup("node1", "MatMul")
        dvm.publish("node0", "MatMul")
        owner, document = dvm.lookup("node1", "MatMul")
        assert owner == "node0"
        document.validate()

    def test_publish_unknown_component_rejected(self, dvm):
        with pytest.raises(ServiceNotFoundError):
            dvm.publish("node0", "Ghost")

    def test_undeploy_removes_from_namespace(self, dvm):
        dvm.deploy("node0", MatMul)
        dvm.undeploy("node0", "MatMul")
        with pytest.raises(ServiceNotFoundError):
            dvm.lookup("node1", "MatMul")

    def test_qualified_name(self, dvm):
        name = dvm.qualified_name("node1", "MatMul")
        assert name == HarnessName("/testdvm/node1/MatMul")

    def test_lookup_unknown(self, dvm):
        with pytest.raises(ServiceNotFoundError):
            dvm.lookup("node0", "Ghost")

    def test_status(self, dvm):
        dvm.deploy("node0", MatMul)
        status = dvm.status("node1")
        assert status["dvm"] == "testdvm"
        assert status["scheme"] == "full-synchrony"
        assert status["members"] == ["node0", "node1", "node2"]
        assert status["components"] == {"MatMul": "node0"}


class TestStubs:
    def test_co_located_stub_is_local_instance(self, dvm):
        dvm.deploy("node1", CounterService)
        stub = dvm.stub("node1", "CounterService")
        assert stub.protocol == "local-instance"
        stub.increment(2)
        assert dvm.stub("node1", "CounterService").value() == 2

    def test_remote_stub_uses_network(self, dvm, rng):
        dvm.deploy("node1", MatMul)
        stub = dvm.stub("node0", "MatMul")
        assert stub.protocol == "sim"  # fabric-charged XDR
        a = rng.random((5, 5))
        assert np.allclose(stub.multiply(a, a), a @ a)
        stub.close()

    def test_prefer_soap(self, dvm, rng):
        dvm.deploy("node1", MatMul, bindings=("local-instance", "sim", "soap"))
        stub = dvm.stub("node0", "MatMul", prefer=("soap",))
        assert stub.protocol == "soap"
        a = rng.random((3, 3))
        assert np.allclose(stub.multiply(a, a), a @ a)
        stub.close()

    def test_remote_sim_calls_charged_to_fabric(self, dvm, rng):
        dvm.deploy("node1", MatMul)
        stub = dvm.stub("node0", "MatMul")
        dvm.network.reset_stats()
        a = rng.random((8, 8))
        stub.multiply(a, a)
        # request + response, real encoded sizes (two 8x8 float64 arrays out)
        assert dvm.network.total_messages == 2
        assert dvm.network.total_bytes > 2 * a.nbytes
        stub.close()

    def test_stateful_service_shared_across_bindings(self, dvm):
        dvm.deploy("node0", CounterService)
        local = dvm.stub("node0", "CounterService")
        remote = dvm.stub("node2", "CounterService")
        local.increment(5)
        assert remote.increment(1) == 6  # same instance through the network
        remote.close()


class TestPublishedText:
    """``publish`` sends the document's kept compact text, never a stale one."""

    SCHEMES = ("full-synchrony", "decentralized", "neighborhood", "gossip")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_redeploying_another_class_under_one_name_publishes_other_text(self, scheme):
        with HarnessDvm(f"text-{scheme}", lan(4), coherency=scheme, lookup_cache_ttl_s=0) as dvm:
            dvm.add_nodes("node0", "node1", "node2")
            seen = []
            for cls in (CounterService, MatMul):
                handle = dvm.deploy("node0", cls, name="svc")
                dvm.dvm.publish("node0", "svc")
                record = dvm.dvm.protocol.get("node2", "component/svc")
                assert record["wsdl"] == document_to_string(handle.document, indent=False)
                seen.append((record["wsdl"], dvm.lookup("node2", "svc")[1]))
                dvm.undeploy("node0", "svc")
            (counter_text, counter_doc), (matmul_text, matmul_doc) = seen
            assert counter_text != matmul_text
            operations = lambda doc: {op.name for pt in doc.port_types for op in pt.operations}
            assert "increment" in operations(counter_doc)
            assert "multiply" in operations(matmul_doc) - operations(counter_doc)

    def test_two_publishes_of_one_handle_send_the_same_str_object(self, dvm):
        handle = dvm.deploy("node0", CounterService)
        sent = []
        update = dvm.protocol.update
        dvm.protocol.update = lambda src, key, value: (sent.append(value), update(src, key, value))
        dvm.publish("node0", "CounterService")
        dvm.publish("node0", "CounterService")
        assert sent[0]["wsdl"] is sent[1]["wsdl"]
        assert sent[0]["wsdl"] == document_to_string(handle.document, indent=False)

"""Component containers: deployment, lifecycle, lookup, exposure."""

import numpy as np
import pytest

from repro.bindings.context import LOCAL_DIRECTORY, ClientContext
from repro.bindings.factory import DynamicStubFactory
from repro.container.component import ComponentState
from repro.container.container import (
    ApplicationServerContainer,
    LightweightContainer,
)
from repro.plugins.services import CounterService, MatMul
from repro.util.errors import (
    ComponentStateError,
    ContainerError,
    ServiceNotFoundError,
)


@pytest.fixture
def container():
    with LightweightContainer("c1", host="hostA") as c:
        yield c


class TestDeploy:
    def test_deploy_class(self, container):
        handle = container.deploy(MatMul)
        assert handle.name == "MatMul"
        assert handle.state is ComponentState.ACTIVE
        assert isinstance(handle.instance, MatMul)

    def test_deploy_instance(self, container):
        counter = CounterService()
        counter.increment(7)
        handle = container.deploy(counter)
        assert handle.instance is counter
        assert container.get_instance(handle.instance_id).value() == 7

    def test_custom_name(self, container):
        handle = container.deploy(MatMul, name="FastMatMul")
        assert handle.name == "FastMatMul"
        assert container.component_named("FastMatMul") is handle

    def test_duplicate_name_rejected(self, container):
        container.deploy(MatMul)
        with pytest.raises(ContainerError):
            container.deploy(MatMul)

    def test_wsdl_has_instance_port(self, container):
        handle = container.deploy(MatMul)
        service = handle.document.service("MatMul")
        assert service.port("MatMulInstancePort")
        handle.document.validate()

    def test_deploy_without_start(self, container):
        handle = container.deploy(MatMul, start=False)
        assert handle.state is ComponentState.DEPLOYED
        assert not handle.invocable

    def test_unknown_binding_kind(self, container):
        with pytest.raises(ContainerError):
            container.deploy(MatMul, bindings=("corba",))

    def test_registered_in_container_registry(self, container):
        container.deploy(MatMul)
        assert container.registry.lookup_name("MatMul")

    def test_closed_container_rejects_deploy(self):
        container = LightweightContainer("closed-one", host="hostX")
        container.close()
        with pytest.raises(ContainerError):
            container.deploy(MatMul)


class TestLocalDirectory:
    def test_container_self_registers(self, container):
        assert LOCAL_DIRECTORY[container.uri] is container

    def test_close_removes_from_directory(self):
        container = LightweightContainer("temp", host="hostX")
        uri = container.uri
        container.close()
        assert uri not in LOCAL_DIRECTORY

    def test_duplicate_uri_rejected(self, container):
        with pytest.raises(ContainerError):
            LightweightContainer("c1", host="hostA")

    def test_get_instance_unknown(self, container):
        with pytest.raises(ServiceNotFoundError):
            container.get_instance("ghost#1")

    def test_instantiate(self, container):
        obj = container.instantiate("repro.plugins.services:MatMul")
        assert isinstance(obj, MatMul)


class TestLifecycle:
    def test_stop_and_restart(self, container):
        handle = container.deploy(CounterService)
        container.stop_component(handle.instance_id)
        assert handle.state is ComponentState.STOPPED
        container.start_component(handle.instance_id)
        assert handle.state is ComponentState.ACTIVE

    def test_undeploy(self, container):
        handle = container.deploy(MatMul)
        container.undeploy(handle.instance_id)
        assert handle.state is ComponentState.UNDEPLOYED
        with pytest.raises(ServiceNotFoundError):
            container.component_named("MatMul")
        with pytest.raises(ServiceNotFoundError):
            container.get_instance(handle.instance_id)

    def test_illegal_transition(self, container):
        handle = container.deploy(MatMul)  # ACTIVE
        with pytest.raises(ComponentStateError):
            handle.transition(ComponentState.DEPLOYED)

    def test_lifecycle_hooks_called(self, container):
        calls = []

        class Hooked:
            def on_start(self, c):
                calls.append(("start", c))

            def on_stop(self):
                calls.append(("stop", None))

            def work(self):
                return 1

        handle = container.deploy(Hooked())
        assert calls == [("start", container)]
        container.stop_component(handle.instance_id)
        assert calls[-1] == ("stop", None)

    def test_events_published(self, container):
        topics = []
        container.events.subscribe("container.component", lambda e: topics.append(e.topic))
        handle = container.deploy(MatMul)
        container.undeploy(handle.instance_id)
        assert "container.component.deployed" in topics
        assert "container.component.started" in topics
        assert "container.component.undeployed" in topics

    def test_describe(self, container):
        container.deploy(MatMul)
        info = container.describe()
        assert info["components"] == {"MatMul": "active"}
        assert info["kind"] == "lightweight"


class TestLocalLookup:
    def test_lookup_gets_local_instance_stub(self, container):
        container.deploy(CounterService)
        stub = container.lookup("CounterService")
        assert stub.protocol == "local-instance"
        stub.increment(4)
        # the same live instance, not a copy
        assert container.lookup("CounterService").value() == 4

    def test_lookup_unknown(self, container):
        with pytest.raises(ServiceNotFoundError):
            container.lookup("Ghost")

    def test_remote_client_uses_network_binding(self, container, rng):
        handle = container.deploy(MatMul, bindings=("local-instance", "xdr"))
        factory = DynamicStubFactory(ClientContext(host="otherHost"))
        stub = factory.create(handle.document)
        assert stub.protocol == "xdr"
        a = rng.random((4, 4))
        assert np.allclose(stub.multiply(a, a), a @ a)
        stub.close()

    def test_exposure_control(self, container):
        handle = container.deploy(CounterService)
        container.set_exposure(handle.instance_id, "private")
        assert container.registry.find("//service") == []
        # private services still resolvable within the container
        assert container.lookup("CounterService", include_private=True)
        container.set_exposure(handle.instance_id, "public")
        assert len(container.registry.find("//service")) == 1


class TestApplicationServerContainer:
    def test_deploy_publishes_to_uddi(self):
        with ApplicationServerContainer("as-test", host="hostB") as container:
            container.deploy(MatMul, bindings=("soap",))
            assert len(container.uddi.find_service("MatMul")) == 1

    def test_dedicated_endpoint_per_component(self):
        with ApplicationServerContainer("as-test2", host="hostB") as container:
            h1 = container.deploy(MatMul, bindings=("soap",))
            h2 = container.deploy(CounterService, bindings=("soap",))
            listeners = container._dedicated_listeners
            assert h1.instance_id in listeners and h2.instance_id in listeners

    def test_undeploy_closes_dedicated_endpoint(self):
        with ApplicationServerContainer("as-test3", host="hostB") as container:
            handle = container.deploy(MatMul, bindings=("soap",))
            container.undeploy(handle.instance_id)
            assert handle.instance_id not in container._dedicated_listeners

    def test_still_serves_calls(self, rng):
        with ApplicationServerContainer("as-test4", host="hostB") as container:
            container.deploy(MatMul, bindings=("soap",))
            stub = container.lookup("MatMul")
            a = rng.random(4)
            result = stub.getResult(a, a)
            assert np.allclose(result, (a.reshape(2, 2) @ a.reshape(2, 2)).ravel())

    def test_validation_rounds_configurable(self):
        with ApplicationServerContainer("as-test5", host="hostB", validation_rounds=1) as c:
            assert c.validation_rounds == 1
            c.deploy(MatMul, bindings=("soap",))


class TestCloseSurvivesAFailingUndeploy:
    def test_a_failed_undeploy_is_counted_and_the_rest_go(self, monkeypatch):
        from repro.obs import metrics

        container = LightweightContainer("failing-close", host="hostX")
        first = container.deploy(MatMul)
        second = container.deploy(CounterService)
        undeploy = container.undeploy

        def fail_first(instance_id):
            if instance_id == first.instance_id:
                raise RuntimeError("cannot undeploy")
            undeploy(instance_id)

        monkeypatch.setattr(container, "undeploy", fail_first)
        container.close()
        with pytest.raises(ServiceNotFoundError):
            container.get_instance(second.instance_id)
        assert container.uri not in LOCAL_DIRECTORY
        snap = metrics.registry.snapshot("container.undeploy_errors")
        assert snap["container.undeploy_errors"]["value"] == 1
        assert snap["container.undeploy_errors.RuntimeError"]["value"] == 1

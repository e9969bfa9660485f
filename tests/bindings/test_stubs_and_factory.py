"""Dynamic stubs, binding servers, and the selection policy (Figure 5)."""

import numpy as np
import pytest

from repro.bindings.context import LOCAL_DIRECTORY, ClientContext
from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.factory import DEFAULT_PREFERENCE, DynamicStubFactory
from repro.bindings.server import BindingServer
from repro.bindings.stubs import LocalStub, load_type
from repro.plugins.services import CounterService, MatMul
from repro.tools.wsdlgen import generate_wsdl
from repro.util.errors import (
    BindingError,
    NoBindingAvailableError,
    SoapFaultError,
)
from repro.wsdl.extensions import (
    LocalAddressExt,
    ServiceTargetExt,
    SoapAddressExt,
    XdrAddressExt,
)
from repro.wsdl.model import WsdlPort, WsdlService


@pytest.fixture
def served_matmul():
    """A MatMul instance exposed over SOAP + XDR with a complete WSDL doc."""
    dispatcher = ObjectDispatcher()
    dispatcher.register("MatMul#1", MatMul())
    server = BindingServer(dispatcher)
    http = server.expose_soap_http()
    tcp = server.expose_xdr_tcp()
    doc = generate_wsdl(MatMul, bindings=("soap", "xdr", "local"))
    host, _, port_text = tcp.url.removeprefix("tcp://").rpartition(":")
    doc = doc.with_service(
        WsdlService(
            "MatMul",
            (
                WsdlPort("soapPort", "MatMulSoapBinding",
                         (SoapAddressExt(http.url), ServiceTargetExt("MatMul#1"))),
                WsdlPort("xdrPort", "MatMulXdrBinding",
                         (XdrAddressExt(host, int(port_text), "MatMul#1"),)),
                WsdlPort("localPort", "MatMulLocalBinding", ()),
            ),
        )
    )
    yield doc
    server.close()


class TestLoadType:
    def test_colon_form(self):
        assert load_type("repro.plugins.services:MatMul") is MatMul

    def test_dotted_form(self):
        assert load_type("repro.plugins.services.MatMul") is MatMul

    def test_missing_module(self):
        with pytest.raises(BindingError):
            load_type("no.such.module:X")

    def test_missing_attribute(self):
        with pytest.raises(BindingError):
            load_type("repro.plugins.services:Nothing")

    def test_not_a_class(self):
        with pytest.raises(BindingError):
            load_type("repro.plugins.services:__name__")

    def test_malformed(self):
        with pytest.raises(BindingError):
            load_type("justaname")


class TestStubBehaviour:
    def test_operations_from_port_type(self, served_matmul):
        stub = DynamicStubFactory().create(served_matmul, port_name="soapPort")
        assert set(stub.operations) == {"getResult", "multiply"}
        stub.close()

    def test_undeclared_operation_rejected_client_side(self, served_matmul):
        stub = DynamicStubFactory().create(served_matmul, port_name="soapPort")
        with pytest.raises(AttributeError):
            stub.secretOp()
        with pytest.raises(BindingError):
            stub.invoke("secretOp")
        stub.close()

    def test_an_operation_is_bound_once(self):
        stub = LocalStub(("echo",), "Echo#1", object(), "local")
        assert stub.echo is stub.echo
        assert stub.echo.__name__ == "echo"
        assert stub.echo.__qualname__ == "LocalStub.echo"
        other = LocalStub(("echo",), "Echo#2", object(), "local")
        assert other.echo is not stub.echo

    def test_unknown_and_private_names_still_raise(self):
        stub = LocalStub(("echo",), "Echo#1", object(), "local")
        with pytest.raises(AttributeError) as unknown:
            stub.secretOp
        assert str(unknown.value) == "stub for 'Echo#1' has no operation 'secretOp'"
        with pytest.raises(AttributeError) as private:
            stub._hidden
        assert str(private.value) == "_hidden"
        assert "secretOp" not in vars(stub) and "_hidden" not in vars(stub)

    def test_a_bound_operation_still_calls_the_current_invoke(self):
        stub = LocalStub(("upper",), "Text#1", "abc", "local")
        upper = stub.upper
        assert upper() == "ABC"
        stub._obj = "xyz"
        assert upper() == stub.upper() == "XYZ"

    def test_soap_call(self, served_matmul, rng):
        stub = DynamicStubFactory().create(served_matmul, port_name="soapPort")
        a = rng.random(16)
        b = rng.random(16)
        result = stub.getResult(a, b)
        assert np.allclose(result, (a.reshape(4, 4) @ b.reshape(4, 4)).ravel())
        assert stub.protocol == "soap"
        stub.close()

    def test_xdr_call(self, served_matmul, rng):
        stub = DynamicStubFactory().create(served_matmul, port_name="xdrPort")
        a = rng.random((8, 8))
        result = stub.multiply(a, a)
        assert np.allclose(result, a @ a)
        assert stub.protocol == "xdr"
        stub.close()

    def test_server_side_error_becomes_fault(self, served_matmul):
        stub = DynamicStubFactory().create(served_matmul, port_name="soapPort")
        with pytest.raises(SoapFaultError, match="square"):
            stub.getResult(np.arange(3.0), np.arange(3.0))
        stub.close()

    def test_xdr_error_becomes_encoding_fault(self, served_matmul):
        from repro.util.errors import EncodingError

        stub = DynamicStubFactory().create(served_matmul, port_name="xdrPort")
        with pytest.raises(EncodingError, match="square"):
            stub.getResult(np.arange(3.0), np.arange(3.0))
        stub.close()

    def test_context_manager(self, served_matmul):
        with DynamicStubFactory().create(served_matmul, port_name="soapPort") as stub:
            assert stub.protocol == "soap"

    def test_local_stub_statefulness(self):
        counter = CounterService()
        stub = LocalStub(("increment", "value"), "c#1", counter, "local-instance")
        stub.increment(5)
        assert counter.value() == 5
        assert stub.wrapped_object is counter


class TestSelectionPolicy:
    def test_default_preference_order(self):
        assert DEFAULT_PREFERENCE == ("local-instance", "local", "sim", "xdr", "mime", "soap")

    def test_auto_select_prefers_local(self, served_matmul):
        stub = DynamicStubFactory().create(served_matmul)
        assert stub.protocol == "local"

    def test_prefer_overrides(self, served_matmul):
        stub = DynamicStubFactory().create(served_matmul, prefer=("soap",))
        assert stub.protocol == "soap"
        stub.close()

    def test_usable_protocols_ranked(self, served_matmul):
        protocols = DynamicStubFactory().usable_protocols(served_matmul)
        assert protocols == ["local", "xdr", "soap"]

    def test_no_remote_context_restricts(self, served_matmul):
        factory = DynamicStubFactory(ClientContext(allow_remote=False))
        assert factory.usable_protocols(served_matmul) == ["local"]

    def test_no_binding_available(self, served_matmul):
        factory = DynamicStubFactory(ClientContext(allow_remote=False))
        with pytest.raises(NoBindingAvailableError):
            factory.create(served_matmul, prefer=("soap", "xdr"))

    def test_local_instance_requires_container(self):
        doc = generate_wsdl(CounterService, bindings=("local-instance",), instance_id="c#9")
        doc = doc.with_service(
            WsdlService(
                "CounterService",
                (WsdlPort("instPort", "CounterServiceInstanceBinding",
                          (LocalAddressExt("container://h/ghost", "c#9"),)),),
            )
        )
        with pytest.raises(NoBindingAvailableError):
            DynamicStubFactory().create(doc)

    def test_local_instance_resolves_through_directory(self):
        class FakeContainer:
            def __init__(self):
                self.counter = CounterService()

            def get_instance(self, instance_id):
                assert instance_id == "c#9"
                return self.counter

        fake = FakeContainer()
        LOCAL_DIRECTORY["container://h/fake"] = fake
        doc = generate_wsdl(CounterService, bindings=("local-instance",), instance_id="c#9")
        doc = doc.with_service(
            WsdlService(
                "CounterService",
                (WsdlPort("instPort", "CounterServiceInstanceBinding",
                          (LocalAddressExt("container://h/fake", "c#9"),)),),
            )
        )
        stub = DynamicStubFactory().create(doc)
        assert stub.protocol == "local-instance"
        stub.increment(3)
        assert fake.counter.value() == 3

    def test_host_pinning_blocks_foreign_virtual_host(self):
        class FakeContainer:
            def get_instance(self, instance_id):
                return CounterService()

        LOCAL_DIRECTORY["container://nodeA/c"] = FakeContainer()
        context_same = ClientContext(host="nodeA")
        context_other = ClientContext(host="nodeB")
        assert context_same.resolve_container("container://nodeA/c") is not None
        assert context_other.resolve_container("container://nodeA/c") is None

    def test_explicit_port_bypasses_policy(self, served_matmul):
        factory = DynamicStubFactory(ClientContext(allow_remote=False))
        # explicit port selection ignores usability ranking
        stub = factory.create(served_matmul, port_name="soapPort")
        assert stub.protocol == "soap"
        stub.close()

    def test_multi_service_requires_name(self, served_matmul):
        from dataclasses import replace

        doc2 = replace(
            served_matmul,
            services=served_matmul.services
            + (WsdlService("Other", served_matmul.services[0].ports),),
        )
        with pytest.raises(BindingError, match="specify service_name"):
            DynamicStubFactory().create(doc2)
        stub = DynamicStubFactory().create(doc2, service_name="MatMul")
        stub.close()


class TestBindingServerContentTypes:
    def test_items_array_mode_negotiated(self, served_matmul, rng):
        stub = DynamicStubFactory().create(
            served_matmul, port_name="soapPort", soap_array_mode="items"
        )
        a = rng.random(9)
        result = stub.getResult(a, a)
        assert np.allclose(result, (a.reshape(3, 3) @ a.reshape(3, 3)).ravel())
        stub.close()

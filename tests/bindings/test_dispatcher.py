"""Server-side dispatch: operation guarding and target routing."""

import pytest

from repro.bindings.dispatcher import ObjectDispatcher, exposed_operations
from repro.plugins.services import CounterService
from repro.util.errors import BindingError, ServiceNotFoundError


class Sample:
    def visible(self):
        return "ok"

    def _hidden(self):
        return "secret"

    attribute = 42


class TestExposedOperations:
    def test_public_methods_only(self):
        ops = exposed_operations(Sample())
        assert "visible" in ops
        assert "_hidden" not in ops
        assert "attribute" not in ops

    def test_counter_service(self):
        assert set(exposed_operations(CounterService())) == {"increment", "value"}


class TestDispatch:
    def test_invoke(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("t1", Sample())
        assert dispatcher.invoke("t1", "visible", ()) == "ok"

    def test_unknown_target(self):
        dispatcher = ObjectDispatcher()
        with pytest.raises(ServiceNotFoundError):
            dispatcher.invoke("ghost", "visible", ())

    def test_hidden_operation_blocked(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("t1", Sample())
        with pytest.raises(BindingError):
            dispatcher.invoke("t1", "_hidden", ())

    def test_restricted_operations(self):
        dispatcher = ObjectDispatcher()
        counter = CounterService()
        dispatcher.register("c", counter, operations=["value"])
        assert dispatcher.invoke("c", "value", ()) == 0
        with pytest.raises(BindingError):
            dispatcher.invoke("c", "increment", (1,))

    def test_duplicate_target_rejected(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("t", Sample())
        with pytest.raises(BindingError):
            dispatcher.register("t", Sample())

    def test_unregister(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("t", Sample())
        dispatcher.unregister("t")
        with pytest.raises(ServiceNotFoundError):
            dispatcher.invoke("t", "visible", ())
        dispatcher.unregister("t")  # idempotent

    def test_lookup_returns_instance(self):
        dispatcher = ObjectDispatcher()
        counter = CounterService()
        dispatcher.register("c", counter)
        assert dispatcher.lookup("c") is counter

    def test_targets_sorted(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("b", Sample())
        dispatcher.register("a", Sample())
        assert dispatcher.targets() == ["a", "b"]

    def test_args_passed_through(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("c", CounterService())
        assert dispatcher.invoke("c", "increment", (5,)) == 5
        assert dispatcher.invoke("c", "increment", (3,)) == 8


class TestUnlockedReads:
    """``invoke`` and ``CodecRegistry.get`` read their dict without the
    lock; only registration takes it."""

    def test_invoke_sees_every_registration_made_while_it_reads(self):
        import threading

        dispatcher = ObjectDispatcher()
        dispatcher.register("t0", Sample())
        stop = threading.Event()
        unexpected: list = []

        def churn() -> None:
            n = 0
            while not stop.is_set():
                n += 1
                dispatcher.register(f"x{n}", Sample())
                dispatcher.unregister(f"x{n}")

        def read() -> None:
            for i in range(5000):
                try:
                    assert dispatcher.invoke("t0", "visible", ()) == "ok"
                    dispatcher.invoke(f"x{i}", "visible", ())
                except ServiceNotFoundError:
                    pass  # churned out between register and unregister
                except Exception as exc:  # noqa: BLE001 - reported below
                    unexpected.append(exc)

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            read()
        finally:
            stop.set()
            writer.join(5.0)
        assert not unexpected

    def test_a_failed_codec_lookup_is_not_remembered(self):
        from repro.encoding.registry import CodecRegistry, XdrMessageCodec
        from repro.util.errors import EncodingError

        registry = CodecRegistry()
        with pytest.raises(EncodingError, match="no codec"):
            registry.get("application/x-xdr")
        codec = XdrMessageCodec()
        registry.register(codec)
        assert registry.get("application/x-xdr") is codec

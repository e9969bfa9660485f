"""Plugin model and the Harness kernel backplane."""

import pytest

from repro.core.kernel import HarnessKernel
from repro.core.plugin import Plugin, PluginState
from repro.netsim import lan
from repro.util.errors import PluginError, PluginLoadError


class Provider(Plugin):
    plugin_name = "provider"
    provides = ("thing",)

    def __init__(self):
        super().__init__()
        self.events = []

    def on_load(self, kernel):
        self.events.append("load")

    def on_start(self):
        self.events.append("start")

    def on_stop(self):
        self.events.append("stop")

    def on_unload(self):
        self.events.append("unload")

    def do_thing(self):
        return "thing done"


class Consumer(Plugin):
    plugin_name = "consumer"
    requires = ("thing",)
    provides = ("meta-thing",)

    def meta(self):
        return self.use("thing").do_thing() + " (meta)"


class TestPluginModel:
    def test_default_name_is_lowercased_class(self):
        class MyFancyPlugin(Plugin):
            pass

        assert MyFancyPlugin.name() == "myfancyplugin"

    def test_service_must_be_declared(self):
        plugin = Provider()
        assert plugin.service("thing") is plugin
        with pytest.raises(PluginError):
            plugin.service("other")

    def test_use_requires_attachment(self):
        with pytest.raises(PluginError):
            Consumer().use("thing")

    def test_lifecycle_order(self):
        kernel = HarnessKernel("solo")
        plugin = Provider()
        kernel.load_plugin(plugin)
        assert plugin.state is PluginState.STARTED
        kernel.unload_plugin("provider")
        assert plugin.state is PluginState.UNLOADED
        assert plugin.events == ["load", "start", "stop", "unload"]
        kernel.shutdown()


class TestKernel:
    @pytest.fixture
    def kernel(self):
        k = HarnessKernel("hostK")
        yield k
        k.shutdown()

    def test_load_by_class_instance_and_string(self, kernel):
        kernel.load_plugin(Provider)
        kernel.unload_plugin("provider")
        kernel.load_plugin(Provider())
        kernel.unload_plugin("provider")
        kernel.load_plugin("repro.plugins.hmsg:MessageTransportPlugin")
        assert "hmsg" in kernel.plugins()

    def test_non_plugin_string_rejected(self, kernel):
        with pytest.raises(PluginLoadError):
            kernel.load_plugin("repro.plugins.services:MatMul")

    def test_duplicate_plugin_rejected(self, kernel):
        kernel.load_plugin(Provider)
        with pytest.raises(PluginLoadError):
            kernel.load_plugin(Provider)

    def test_missing_requirement_rejected(self, kernel):
        with pytest.raises(PluginLoadError, match="thing"):
            kernel.load_plugin(Consumer)

    def test_dependency_wiring(self, kernel):
        kernel.load_plugin(Provider)
        kernel.load_plugin(Consumer)
        consumer = kernel.plugin("consumer")
        assert consumer.meta() == "thing done (meta)"

    def test_service_clash_rejected(self, kernel):
        kernel.load_plugin(Provider)

        class Rival(Plugin):
            plugin_name = "rival"
            provides = ("thing",)

        with pytest.raises(PluginLoadError, match="already present"):
            kernel.load_plugin(Rival)

    def test_unload_with_dependants_blocked(self, kernel):
        kernel.load_plugin(Provider)
        kernel.load_plugin(Consumer)
        with pytest.raises(PluginError, match="consumer"):
            kernel.unload_plugin("provider")
        kernel.unload_plugin("consumer")
        kernel.unload_plugin("provider")

    def test_get_service(self, kernel):
        kernel.load_plugin(Provider)
        assert kernel.get_service("thing").do_thing() == "thing done"
        assert kernel.has_service("thing")
        assert not kernel.has_service("nothing")
        with pytest.raises(PluginError):
            kernel.get_service("nothing")

    def test_services_map(self, kernel):
        kernel.load_plugin(Provider)
        assert kernel.services() == {"thing": "provider"}

    def test_shutdown_detaches_everything(self, kernel):
        plugin = Provider()
        kernel.load_plugin(plugin)
        kernel.shutdown()
        assert plugin.state is PluginState.UNLOADED
        with pytest.raises(PluginError):
            kernel.load_plugin(Provider)

    def test_events_published(self, kernel):
        topics = []
        kernel.events.subscribe("kernel.plugin", lambda e: topics.append(e.topic))
        kernel.load_plugin(Provider)
        kernel.unload_plugin("provider")
        assert topics == ["kernel.plugin.loaded", "kernel.plugin.unloaded"]


class TestInterKernelMessaging:
    def test_send_and_reply(self):
        net = lan(2)
        k0 = HarnessKernel("node0", network=net)
        k1 = HarnessKernel("node1", network=net)

        class EchoPlugin(Plugin):
            plugin_name = "echo"
            provides = ("echo",)

            def handle_message(self, src, payload):
                return {"from": src, "data": payload}

        k1.load_plugin(EchoPlugin)
        reply = k0.send("node1", "echo", [1, 2, 3])
        assert reply["from"] == "node0"
        assert list(reply["data"]) == [1, 2, 3]
        k0.shutdown()
        k1.shutdown()

    def test_send_to_missing_service_raises(self):
        net = lan(2)
        k0 = HarnessKernel("node0", network=net)
        k1 = HarnessKernel("node1", network=net)
        with pytest.raises(PluginError, match="no service"):
            k0.send("node1", "nothing", {})
        k0.shutdown()
        k1.shutdown()

    def test_send_without_network(self):
        kernel = HarnessKernel("offgrid")
        with pytest.raises(PluginError, match="no network"):
            kernel.send("other", "svc", {})
        kernel.shutdown()

    def test_messages_charged_to_fabric(self):
        net = lan(2)
        k0 = HarnessKernel("node0", network=net)
        k1 = HarnessKernel("node1", network=net)

        class NullPlugin(Plugin):
            plugin_name = "null"
            provides = ("null",)

            def handle_message(self, src, payload):
                return None

        k1.load_plugin(NullPlugin)
        before = net.total_bytes
        k0.send("node1", "null", {"blob": "x" * 1000})
        assert net.total_bytes - before > 1000
        k0.shutdown()
        k1.shutdown()


class TestShutdownSurvivesAFailingPlugin:
    def test_a_plugin_that_fails_to_stop_is_counted_and_the_rest_detach(self):
        from repro.obs import metrics

        class Broken(Plugin):
            plugin_name = "broken"

            def on_stop(self):
                raise RuntimeError("stuck")

        kernel = HarnessKernel("node0")
        provider = Provider()
        kernel.load_plugin(provider)
        kernel.load_plugin(Broken)
        kernel.shutdown()
        assert provider.state is PluginState.UNLOADED
        assert provider.events[-2:] == ["stop", "unload"]
        assert kernel.container._closed
        snap = metrics.registry.snapshot("kernel.plugin_stop_errors")
        assert snap["kernel.plugin_stop_errors"]["value"] == 1
        assert snap["kernel.plugin_stop_errors.RuntimeError"]["value"] == 1

"""The Harness kernel — the software backplane (Figure 1).

One kernel runs per enrolled node.  It hosts plugins, wires their required
services to providers, owns the node's component container, and gives
plugins an inter-kernel messaging primitive (used by ``hmsg`` to build the
message-passing service the PVM plugin leans on).

Dynamic loading: plugins arrive as classes, instances, *or dotted import
strings* — "some plug-ins are provided as part of the system distribution,
while others might be developed by individual users … while yet other
plug-ins might be obtained from third-party repositories" (Section 3).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.bindings.stubs import load_type
from repro.container.container import ComponentContainer, LightweightContainer
from repro.core.plugin import Plugin, PluginState
from repro.encoding.xdr import pack_value, unpack_value
from repro.netsim.fabric import VirtualNetwork
from repro.transport.base import TransportMessage
from repro.util.errors import PluginError, PluginLoadError
from repro.util.events import EventBus

__all__ = ["HarnessKernel"]

_KERNEL_ENDPOINT = "harness-kernel"
_CT = "application/x-harness-kernel"


class HarnessKernel:
    """A per-node Harness kernel: plugin host + service backplane."""

    def __init__(
        self,
        host_name: str,
        network: VirtualNetwork | None = None,
        container: ComponentContainer | None = None,
        events: EventBus | None = None,
    ):
        self.host_name = host_name
        self.network = network
        self.events = events or EventBus()
        self.container = container or LightweightContainer(
            name=f"kernel-{host_name}", host=host_name, network=network
        )
        self._lock = threading.RLock()
        self._plugins: dict[str, Plugin] = {}
        self._services: dict[str, tuple[str, object]] = {}  # service -> (plugin, provider)
        self._closed = False
        if network is not None:
            network.host(host_name).bind(_KERNEL_ENDPOINT, self._serve)

    # -- plugin management -----------------------------------------------------------

    def load_plugin(self, plugin: Plugin | type | str, start: bool = True) -> Plugin:
        """Plug a module into the backplane.

        Accepts an instance, a Plugin subclass, or an import string
        (``pkg.module:Class``).  Required services must already be present;
        provided services must not clash.
        """
        if isinstance(plugin, str):
            cls = load_type(plugin)
            if not issubclass(cls, Plugin):
                raise PluginLoadError(f"{plugin!r} is not a Plugin subclass")
            plugin = cls()
        elif isinstance(plugin, type):
            if not issubclass(plugin, Plugin):
                raise PluginLoadError(f"{plugin.__name__} is not a Plugin subclass")
            plugin = plugin()
        name = plugin.name()
        with self._lock:
            if self._closed:
                raise PluginError(f"kernel {self.host_name} is shut down")
            if name in self._plugins:
                raise PluginLoadError(f"plugin {name!r} already loaded on {self.host_name}")
            missing = [r for r in plugin.requires if r not in self._services]
            if missing:
                raise PluginLoadError(
                    f"plugin {name!r} requires unavailable services: {missing}"
                )
            clashes = [p for p in plugin.provides if p in self._services]
            if clashes:
                raise PluginLoadError(
                    f"plugin {name!r} provides services already present: {clashes}"
                )
            self._plugins[name] = plugin
        plugin._attach(self)
        with self._lock:
            for service_name in plugin.provides:
                self._services[service_name] = (name, plugin.service(service_name))
        if start:
            plugin._start()
        self.events.publish("kernel.plugin.loaded", name, source=self.host_name)
        return plugin

    def load_plugin_source(self, source: str, class_name: str, start: bool = True) -> Plugin:
        """Load a plugin whose code arrives as *source text* — the
        "third-party repositories" path of Section 3."""
        from repro.core.loader import load_class_from_source

        cls = load_class_from_source(source, class_name)
        if not issubclass(cls, Plugin):
            raise PluginLoadError(f"{class_name!r} in dynamic source is not a Plugin")
        return self.load_plugin(cls, start=start)

    def unload_plugin(self, name: str) -> None:
        """Remove a plugin; refuses while dependants are loaded."""
        with self._lock:
            plugin = self._plugins.get(name)
            if plugin is None:
                raise PluginError(f"no plugin {name!r} on {self.host_name}")
            provided = set(plugin.provides)
            dependants = [
                other.name()
                for other in self._plugins.values()
                if other is not plugin and provided.intersection(other.requires)
            ]
            if dependants:
                raise PluginError(
                    f"cannot unload {name!r}: required by {sorted(dependants)}"
                )
            del self._plugins[name]
            for service_name in plugin.provides:
                self._services.pop(service_name, None)
        plugin._detach()
        self.events.publish("kernel.plugin.unloaded", name, source=self.host_name)

    def plugin(self, name: str) -> Plugin:
        with self._lock:
            plugin = self._plugins.get(name)
        if plugin is None:
            raise PluginError(f"no plugin {name!r} on {self.host_name}")
        return plugin

    def plugins(self) -> list[str]:
        with self._lock:
            return sorted(self._plugins)

    def get_service(self, service_name: str) -> object:
        """Provider object for *service_name* (backplane lookup)."""
        with self._lock:
            entry = self._services.get(service_name)
        if entry is None:
            raise PluginError(f"no service {service_name!r} on kernel {self.host_name}")
        return entry[1]

    def has_service(self, service_name: str) -> bool:
        with self._lock:
            return service_name in self._services

    def services(self) -> dict[str, str]:
        """service name → providing plugin name."""
        with self._lock:
            return {svc: plugin for svc, (plugin, _) in self._services.items()}

    # -- inter-kernel messaging --------------------------------------------------------

    def send(self, dst_host: str, service_name: str, payload: Any) -> Any:
        """Deliver *payload* to *service_name* on the kernel at *dst_host*.

        The remote provider's ``handle_message(src_host, payload)`` is
        invoked; its return value travels back.  Costs are charged to the
        virtual network (XDR-encoded both ways).  What the provider raises
        comes back as its own type (see :mod:`repro.util.faults`).
        """
        if self.network is None:
            raise PluginError(f"kernel {self.host_name} has no network")
        request = {"service": service_name, "src": self.host_name, "payload": payload}
        response = self.network.request(
            self.host_name, dst_host, _KERNEL_ENDPOINT,
            TransportMessage(_CT, pack_value(request)),
        )
        return unpack_value(response.payload).get("result")

    def _serve(self, message: TransportMessage) -> TransportMessage:
        """The one op, ``send``: a fault is the fabric's fault reply."""
        request = unpack_value(message.payload)
        service_name = request["service"]
        handler = getattr(self.get_service(service_name), "handle_message", None)
        if handler is None:
            raise PluginError(f"service {service_name!r} does not accept kernel messages")
        result = handler(request["src"], request["payload"])
        return TransportMessage(_CT, pack_value({"result": result}))

    # -- shutdown ------------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop and unload every plugin (reverse load order), close the container."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            plugins = list(self._plugins.values())
            self._plugins.clear()
            self._services.clear()
        for plugin in reversed(plugins):
            try:
                plugin._detach()
            except Exception:
                pass
        self.container.close()
        if self.network is not None:
            self.network.host(self.host_name).unbind(_KERNEL_ENDPOINT)

    def __enter__(self) -> "HarnessKernel":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

"""Component containers — Figure 6's middle abstraction layer.

"A component container defines a local name space, lookup service and a
management service for other components … a component container exposes an
interface that allows users to query for the characteristics and to access
the services hosted locally.  Thus a component container enhances the
computational service functionality of a runner box with the notion of a
local shared environment."

Two concrete containers realize Section 5's *deployment issue*:

* :class:`LightweightContainer` — the paper's "specialized lightweight
  component container for volatile DVMs and short lived applications":
  deployment instantiates the class, registers the instance, generates the
  WSDL in memory, done.  Network endpoints are shared and started lazily.
* :class:`ApplicationServerContainer` — models the e-commerce application
  server whose "deployment technologies do not provide adequate support
  for automated service instantiation … they usually require human
  interaction".  Deployment performs the full ritual a 2002 app server
  performed: WSDL serialize/parse/canonicalize validation rounds, static
  stub source generation + compilation, publication to a UDDI registry,
  and a dedicated per-service HTTP endpoint.  All steps are real work,
  not sleeps — the C3 benchmark measures their cost.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from repro.bindings.context import LOCAL_DIRECTORY, ClientContext
from repro.bindings.dispatcher import ObjectDispatcher, exposed_operations
from repro.bindings.factory import DynamicStubFactory
from repro.bindings.server import BindingServer
from repro.bindings.stubs import ServiceStub, load_type
from repro.container.component import ComponentHandle, ComponentState
from repro.obs import metrics as _metrics
from repro.registry.local import PRIVATE, PUBLIC, ServiceRegistry
from repro.util.errors import ContainerError, ServiceNotFoundError
from repro.util.events import EventBus
from repro.util.ids import new_id
from repro.wsdl.extensions import (
    LocalAddressExt,
    ServiceTargetExt,
    SoapAddressExt,
    XdrAddressExt,
)
from repro.wsdl.model import WsdlDocument, WsdlPort, WsdlService

__all__ = ["ComponentContainer", "LightweightContainer", "ApplicationServerContainer"]


class ComponentContainer:
    """Base container: local namespace, instance registry, lookup, exposure.

    Containers self-register in :data:`LOCAL_DIRECTORY` under their URI so
    local and local-instance bindings can resolve their instances — the
    container *is* the paper's run time that "quer[ies] the local component
    container to obtain a reference to an already instantiated, stateful
    object".
    """

    container_kind = "abstract"

    def __init__(
        self,
        name: str = "",
        host: str = "localhost",
        events: EventBus | None = None,
        network=None,
        policy=None,
        authority=None,
    ):
        self.name = name or new_id("container")
        self.host = host
        self.network = network  # VirtualNetwork | None: enables sim bindings
        # Optional access control (Section 1's "secure access control and
        # unified authorization"): when a policy is set, every *network*
        # binding dispatches through a SecureDispatcher.  Co-located access
        # through local bindings is inherently trusted — callers sharing the
        # address space cannot be defended against by the container.
        self.policy = policy
        if policy is not None and authority is None:
            from repro.container.security import TokenAuthority

            authority = TokenAuthority()
        self.authority = authority
        self.uri = f"container://{host}/{self.name}"
        self.events = events or EventBus()
        self.registry = ServiceRegistry(name=f"{self.name}.registry")
        self.dispatcher = ObjectDispatcher()
        self._lock = threading.RLock()
        self._components: dict[str, ComponentHandle] = {}
        self._by_name: dict[str, str] = {}
        self._server: BindingServer | None = None
        self._http_listener = None
        self._tcp_listener = None
        self._sim_listener = None
        self._closed = False
        if self.uri in LOCAL_DIRECTORY:
            raise ContainerError(f"container uri already in use: {self.uri}")
        LOCAL_DIRECTORY[self.uri] = self

    # -- LOCAL_DIRECTORY protocol (used by bindings) -------------------------------

    def get_instance(self, instance_id: str) -> object:
        """Resolve a pre-existing stateful instance (local-instance binding)."""
        with self._lock:
            handle = self._components.get(instance_id)
        if handle is None or not handle.alive:
            raise ServiceNotFoundError(f"no live instance {instance_id!r} in {self.uri}")
        return handle.instance

    def instantiate(self, type_name: str) -> object:
        """Create a fresh instance of *type_name* (local binding)."""
        return load_type(type_name)()

    # -- deployment ---------------------------------------------------------------

    def deploy(
        self,
        component: type | object,
        name: str | None = None,
        bindings: tuple[str, ...] = ("local-instance",),
        exposure: str = PUBLIC,
        start: bool = True,
        metadata: dict | None = None,
    ) -> ComponentHandle:
        """Deploy a component class (instantiated here) or a ready instance.

        ``bindings`` picks the access mechanisms the component's WSDL ports
        advertise; every deployed component always gets a local-instance
        port (it *is* an instance in this container).
        """
        if self._closed:
            raise ContainerError(f"container {self.name} is closed")
        from repro.tools.wsdlgen import generate_wsdl

        if isinstance(component, type):
            cls = component
            instance = cls()
        else:
            cls = type(component)
            instance = component
        service_name = name or cls.__name__
        instance_id = f"{service_name}#{new_id('c')}"

        requested = tuple(dict.fromkeys(("local-instance",) + tuple(bindings)))
        unknown = [
            k for k in requested
            if k not in ("local-instance", "local", "soap", "xdr", "sim", "mime")
        ]
        if unknown:
            raise ContainerError(f"unknown binding kind {unknown[0]!r}")
        if "sim" in requested and self.network is None:
            raise ContainerError(
                "sim binding requires a container attached to a virtual network"
            )
        document = generate_wsdl(
            cls, service_name=service_name, bindings=requested, instance_id=instance_id
        )
        ports = self._make_ports(document, service_name, instance_id, requested)
        document = document.with_service(
            WsdlService(service_name, tuple(ports), documentation=f"deployed in {self.uri}")
        )
        document.validate()

        handle = ComponentHandle(
            instance_id=instance_id,
            name=service_name,
            instance=instance,
            document=document,
            container_uri=self.uri,
            metadata=dict(metadata or {}),
        )
        with self._lock:
            if service_name in self._by_name:
                raise ContainerError(
                    f"component name {service_name!r} already deployed in {self.name}"
                )
            self._components[instance_id] = handle
            self._by_name[service_name] = instance_id
        self.dispatcher.register(instance_id, instance, exposed_operations(instance))
        entry = self.registry.register(document, exposure=exposure)
        handle.registry_key = entry.key
        self._post_deploy(handle)
        if start:
            self.start_component(instance_id)
        self.events.publish("container.component.deployed", handle, source=self.uri)
        return handle

    def _make_ports(
        self,
        document: WsdlDocument,
        service_name: str,
        instance_id: str,
        requested: tuple[str, ...],
    ) -> list[WsdlPort]:
        """Create one ``<port>`` per requested binding kind."""
        ports: list[WsdlPort] = []
        for kind in requested:
            if kind == "local-instance":
                ports.append(
                    WsdlPort(
                        f"{service_name}InstancePort",
                        f"{service_name}InstanceBinding",
                        (LocalAddressExt(self.uri, instance_id),),
                    )
                )
            elif kind == "local":
                ports.append(
                    WsdlPort(
                        f"{service_name}LocalPort",
                        f"{service_name}LocalBinding",
                        (LocalAddressExt(self.uri, instance_id),),
                    )
                )
            elif kind == "soap":
                listener = self._ensure_http()
                ports.append(
                    WsdlPort(
                        f"{service_name}SoapPort",
                        f"{service_name}SoapBinding",
                        (SoapAddressExt(listener.url), ServiceTargetExt(instance_id)),
                    )
                )
            elif kind == "mime":
                listener = self._ensure_http()
                from repro.wsdl.extensions import HttpAddressExt

                ports.append(
                    WsdlPort(
                        f"{service_name}MimePort",
                        f"{service_name}MimeBinding",
                        (HttpAddressExt(listener.url), ServiceTargetExt(instance_id)),
                    )
                )
            elif kind == "sim":
                listener = self._ensure_sim()
                sim_host, _, endpoint = listener.url.removeprefix("sim://").partition("/")
                from repro.wsdl.extensions import SimAddressExt

                ports.append(
                    WsdlPort(
                        f"{service_name}SimPort",
                        f"{service_name}SimBinding",
                        (SimAddressExt(sim_host, endpoint, instance_id),),
                    )
                )
            elif kind == "xdr":
                listener = self._ensure_tcp()
                host, _, port_text = listener.url.removeprefix("tcp://").rpartition(":")
                ports.append(
                    WsdlPort(
                        f"{service_name}XdrPort",
                        f"{service_name}XdrBinding",
                        (XdrAddressExt(host, int(port_text), instance_id),),
                    )
                )
            else:
                raise ContainerError(f"unknown binding kind {kind!r}")
        return ports

    def _post_deploy(self, handle: ComponentHandle) -> None:
        """Subclass hook: extra per-component deployment work."""

    def deploy_source(
        self,
        source: str,
        class_name: str,
        name: str | None = None,
        **kwargs,
    ) -> ComponentHandle:
        """Deploy a component whose implementation arrives as source text.

        The source is loaded into a registered dynamic module first, so the
        resulting class remains importable — local bindings and migration
        work exactly as for distribution-shipped components.
        """
        from repro.core.loader import load_class_from_source

        cls = load_class_from_source(source, class_name)
        return self.deploy(cls, name=name, **kwargs)

    # -- shared endpoints ------------------------------------------------------------

    def _ensure_server(self) -> BindingServer:
        with self._lock:
            if self._server is None:
                dispatcher = self.dispatcher
                if self.policy is not None:
                    from repro.container.security import SecureDispatcher

                    dispatcher = SecureDispatcher(self.dispatcher, self.authority, self.policy)
                self._server = BindingServer(dispatcher)
            return self._server

    def issue_token(self, principal) -> str:
        """Mint a credential for *principal* (requires an access policy)."""
        if self.authority is None:
            raise ContainerError(f"container {self.name} has no token authority")
        return self.authority.issue(principal)

    def _ensure_http(self):
        with self._lock:
            if self._http_listener is None:
                self._http_listener = self._ensure_server().expose_soap_http()
            return self._http_listener

    def _ensure_tcp(self):
        with self._lock:
            if self._tcp_listener is None:
                self._tcp_listener = self._ensure_server().expose_xdr_tcp()
            return self._tcp_listener

    def _ensure_sim(self):
        with self._lock:
            if self._sim_listener is None:
                if self.network is None:
                    raise ContainerError("container has no virtual network")
                from repro.transport.sim import SimListener

                self._sim_listener = SimListener(
                    self.network, self.host, f"svc-{self.name}",
                    self._ensure_server()._handle,
                )
            return self._sim_listener

    # -- lifecycle -------------------------------------------------------------------

    def start_component(self, instance_id: str) -> None:
        """DEPLOYED/STOPPED → ACTIVE, running the ``on_start`` hook if any."""
        handle = self._handle(instance_id)
        handle.transition(ComponentState.ACTIVE)
        hook = getattr(handle.instance, "on_start", None)
        if callable(hook):
            hook(self)
        self.events.publish("container.component.started", handle, source=self.uri)

    def stop_component(self, instance_id: str) -> None:
        """ACTIVE → STOPPED, running the ``on_stop`` hook if any."""
        handle = self._handle(instance_id)
        handle.transition(ComponentState.STOPPED)
        hook = getattr(handle.instance, "on_stop", None)
        if callable(hook):
            hook()
        self.events.publish("container.component.stopped", handle, source=self.uri)

    def undeploy(self, instance_id: str) -> None:
        """Remove the component entirely."""
        handle = self._handle(instance_id)
        handle.transition(ComponentState.UNDEPLOYED)
        with self._lock:
            self._components.pop(instance_id, None)
            self._by_name.pop(handle.name, None)
        self.dispatcher.unregister(instance_id)
        if handle.registry_key:
            try:
                self.registry.unregister(handle.registry_key)
            except ServiceNotFoundError:
                pass
        self.events.publish("container.component.undeployed", handle, source=self.uri)

    def set_exposure(self, instance_id: str, exposure: str) -> None:
        """Publish/hide a component at run time (Section 6)."""
        handle = self._handle(instance_id)
        self.registry.set_exposure(handle.registry_key, exposure)
        self.events.publish("container.component.exposure", handle, source=self.uri)

    # -- the local shared environment -----------------------------------------------

    def lookup(self, service_name: str, prefer=None, include_private: bool = True) -> ServiceStub:
        """A stub for a co-located service — local bindings win automatically.

        This is the "smart computational components [that] locally aggregate
        available services and take advantage of local bindings to achieve
        high performance" path (Section 6).
        """
        entry = self.registry.lookup_name(service_name, include_private=include_private)
        factory = DynamicStubFactory(
            ClientContext(container_uri=self.uri, host=self.host, network=self.network)
        )
        return factory.create(entry.document, prefer=prefer)

    def components(self) -> list[ComponentHandle]:
        with self._lock:
            return list(self._components.values())

    def component_named(self, name: str) -> ComponentHandle:
        with self._lock:
            instance_id = self._by_name.get(name)
        if instance_id is None:
            raise ServiceNotFoundError(f"no component named {name!r} in {self.name}")
        return self._handle(instance_id)

    def describe(self) -> dict:
        """Status summary — the container's management-service view."""
        with self._lock:
            return {
                "uri": self.uri,
                "kind": self.container_kind,
                "components": {
                    h.name: h.state.value for h in self._components.values()
                },
                "registry_size": len(self.registry),
            }

    def _handle(self, instance_id: str) -> ComponentHandle:
        with self._lock:
            handle = self._components.get(instance_id)
        if handle is None:
            raise ServiceNotFoundError(f"no component {instance_id!r} in {self.name}")
        return handle

    def close(self) -> None:
        """Undeploy everything and release endpoints + directory entry."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            instance_ids = list(self._components)
        for instance_id in instance_ids:
            try:
                self.undeploy(instance_id)
            except Exception as exc:  # one component's failure stops no other
                _metrics.registry.count_error("container.undeploy_errors", exc)
        with self._lock:
            if self._sim_listener is not None:
                self._sim_listener.close()
                self._sim_listener = None
            if self._server is not None:
                self._server.close()
                self._server = None
                self._http_listener = None
                self._tcp_listener = None
        if LOCAL_DIRECTORY.get(self.uri) is self:
            del LOCAL_DIRECTORY[self.uri]

    def __enter__(self) -> "ComponentContainer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class LightweightContainer(ComponentContainer):
    """The volatile-DVM container: deployment is instantiation + registration.

    Nothing else happens at deploy time; SOAP/XDR endpoints are shared and
    created lazily only when a component actually requests those bindings.
    """

    container_kind = "lightweight"


class ApplicationServerContainer(ComponentContainer):
    """Models a 2002-era e-commerce application server's deployment ritual.

    Per deployed component, performs (for real):

    1. *validation rounds*: serialize the WSDL, re-parse it, canonicalize
       and compare — ``validation_rounds`` times (deployment descriptors
       were validated repeatedly by these stacks);
    2. *static codegen*: generate the stub source and ``compile()`` it;
    3. *registry publication*: publish business + tModels + service to the
       configured UDDI registry;
    4. *dedicated endpoint*: start a dedicated HTTP listener for the
       component (one servlet container per service).
    """

    container_kind = "application-server"

    def __init__(
        self,
        name: str = "",
        host: str = "localhost",
        uddi=None,
        validation_rounds: int = 3,
        events: EventBus | None = None,
    ):
        super().__init__(name, host, events)
        from repro.registry.uddi import UddiRegistry

        self.uddi = uddi if uddi is not None else UddiRegistry()
        self.validation_rounds = validation_rounds
        self._business = self.uddi.save_business(f"{self.name} provider")
        self._dedicated_listeners: dict[str, object] = {}

    def _post_deploy(self, handle: ComponentHandle) -> None:
        from repro.tools.servicegen import generate_stub_source
        from repro.wsdl.io import document_from_string, document_to_string
        from repro.xmlkit import canonicalize
        from repro.wsdl.io import document_to_element

        # 1. validation rounds
        for _ in range(self.validation_rounds):
            text = document_to_string(handle.document)
            reparsed = document_from_string(text)
            if canonicalize(document_to_element(reparsed)) != canonicalize(
                document_to_element(handle.document)
            ):
                raise ContainerError(
                    f"deployment descriptor for {handle.name!r} failed validation"
                )
        # 2. static stub codegen + compilation
        source = generate_stub_source(handle.document, class_name=f"{handle.name}DeployStub")
        compile(source, f"<stub {handle.name}>", "exec")
        # 3. UDDI publication
        self.uddi.publish_wsdl(self._business.key, handle.document)
        # 4. dedicated HTTP endpoint for this component
        server = BindingServer(self.dispatcher)
        listener = server.expose_soap_http()
        self._dedicated_listeners[handle.instance_id] = (server, listener)

    def undeploy(self, instance_id: str) -> None:
        entry = self._dedicated_listeners.pop(instance_id, None)
        if entry is not None:
            server, _listener = entry
            server.close()
        super().undeploy(instance_id)

    def close(self) -> None:
        for server, _listener in self._dedicated_listeners.values():
            server.close()
        self._dedicated_listeners.clear()
        super().close()

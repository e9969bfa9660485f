"""Dynamic stub factory and binding selection policy.

Given a WSDL document and the caller's :class:`ClientContext`, the factory
picks the cheapest *usable* port and manufactures the stub for it — the
run-time counterpart of Figure 5's two arrows: a co-located client gets an
unmediated local path, a remote one gets XDR sockets or SOAP/HTTP.

Preference order (cheapest first)::

    local-instance  >  local  >  sim  >  xdr  >  mime  >  soap

A port is *usable* when its address is reachable from the context:
local-instance needs the named container to live in this process (and, on
virtual hosts, the same host); local needs an importable type; sim needs a
fabric-attached context; xdr/mime/soap need ``allow_remote``.
"""

from __future__ import annotations

from typing import Iterable

from repro.bindings.context import ClientContext
from repro.bindings.policy import BreakerRegistry, InvocationPolicy
from repro.bindings.stubs import LocalStub, ServiceStub, TransportStub, load_type
from repro.encoding.registry import CodecRegistry, default_registry
from repro.util.events import EventBus
from repro.transport.http import HttpTransport
from repro.transport.tcp import TcpTransport
from repro.util.errors import BindingError, NoBindingAvailableError
from repro.wsdl.extensions import (
    HttpAddressExt,
    LocalAddressExt,
    LocalBindingExt,
    LocalInstanceBindingExt,
    ServiceTargetExt,
    SimAddressExt,
    SoapAddressExt,
    XdrAddressExt,
    XdrBindingExt,
)
from repro.wsdl.model import WsdlDocument, WsdlPort, WsdlService

__all__ = ["DynamicStubFactory", "DEFAULT_PREFERENCE"]

DEFAULT_PREFERENCE: tuple[str, ...] = ("local-instance", "local", "sim", "xdr", "mime", "soap")

#: distinguishes "no per-call policy given, use the factory default" from
#: an explicit ``policy=None`` ("build this stub without any policy")
_UNSET = object()


class DynamicStubFactory:
    """Manufactures :class:`ServiceStub` objects from WSDL documents."""

    def __init__(
        self,
        context: ClientContext | None = None,
        codecs: CodecRegistry | None = None,
        policy: InvocationPolicy | None = None,
        events: EventBus | None = None,
        breakers: BreakerRegistry | None = None,
        tcp_pool_size: int | None = None,
        clock=None,
    ):
        self.context = context or ClientContext()
        self._codecs = codecs or default_registry
        # Default invocation policy applied to every network stub this
        # factory manufactures (None = raw, unretried invocations).  The
        # breaker registry is shared across stubs so every stub to the same
        # address trips / heals one circuit.  ``clock`` makes retry backoff
        # and breaker cooldowns test-drivable (None = wall clock).
        self.policy = policy
        self.events = events
        self.clock = clock
        self.breakers = breakers or BreakerRegistry(clock=clock)
        # Channels per TCP peer for stubs this factory builds (None = the
        # transport default, tcp.DEFAULT_POOL_SIZE).
        self.tcp_pool_size = tcp_pool_size

    # -- public API -----------------------------------------------------------

    def create(
        self,
        document: WsdlDocument,
        service_name: str | None = None,
        port_name: str | None = None,
        prefer: Iterable[str] | None = None,
        soap_array_mode: str = "base64",
        timeout: float | None = 30.0,
        credential: str | None = None,
        policy: InvocationPolicy | None = _UNSET,  # type: ignore[assignment]
    ) -> ServiceStub:
        """Build a stub for a service in *document*.

        With ``port_name`` the client "select[s] the type of protocol it
        wants to use"; without it the factory "dynamically generate[s] the
        required stub" for the best usable port (Section 4).

        ``policy`` overrides the factory's default invocation policy for
        this stub (pass ``None`` explicitly for a raw, unretried stub).
        Local bindings never carry a policy — there is no transport to fail.
        """
        document.validate()
        if policy is _UNSET:
            policy = self.policy
        service = self._select_service(document, service_name)
        candidates = self._rank_ports(document, service, port_name, prefer)
        errors: list[str] = []
        for port in candidates:
            try:
                return self._build(
                    document, service, port, soap_array_mode, timeout, credential, policy
                )
            except BindingError as exc:
                errors.append(f"{port.name}: {exc}")
        raise NoBindingAvailableError(
            f"no usable binding for service {service.name!r} "
            f"(context={self.context}, tried: {'; '.join(errors) or 'none'})"
        )

    def usable_protocols(self, document: WsdlDocument, service_name: str | None = None) -> list[str]:
        """Protocol tags of the ports this context could use, best first."""
        service = self._select_service(document, service_name)
        return [
            document.binding(port.binding).protocol
            for port in self._rank_ports(document, service, None, None)
        ]

    # -- selection ---------------------------------------------------------------

    @staticmethod
    def _select_service(document: WsdlDocument, service_name: str | None) -> WsdlService:
        if service_name is not None:
            return document.service(service_name)
        if len(document.services) != 1:
            raise BindingError(
                f"document {document.name!r} defines {len(document.services)} services; "
                "specify service_name"
            )
        return document.services[0]

    def _rank_ports(
        self,
        document: WsdlDocument,
        service: WsdlService,
        port_name: str | None,
        prefer: Iterable[str] | None,
    ) -> list[WsdlPort]:
        if port_name is not None:
            return [service.port(port_name)]
        order = tuple(prefer) if prefer is not None else DEFAULT_PREFERENCE
        ranked: list[tuple[int, int, WsdlPort]] = []
        for index, port in enumerate(service.ports):
            protocol = document.binding(port.binding).protocol
            if protocol not in order:
                continue
            if not self._usable(protocol, port):
                continue
            ranked.append((order.index(protocol), index, port))
        ranked.sort()
        return [port for _, _, port in ranked]

    def _usable(self, protocol: str, port: WsdlPort) -> bool:
        context = self.context
        if protocol == "local-instance":
            address = port.extension_of(LocalAddressExt)
            return address is not None and context.resolve_container(address.container) is not None
        if protocol == "local":
            address = port.extension_of(LocalAddressExt)
            if address is not None and address.container:
                return context.resolve_container(address.container) is not None
            return True  # bare local type: importable anywhere in-process
        if protocol == "sim":
            return (
                context.allow_remote
                and context.network is not None
                and bool(context.host)
            )
        return context.allow_remote

    # -- construction ---------------------------------------------------------------

    def _build(
        self,
        document: WsdlDocument,
        service: WsdlService,
        port: WsdlPort,
        soap_array_mode: str,
        timeout: float | None,
        credential: str | None = None,
        policy: InvocationPolicy | None = None,
    ) -> ServiceStub:
        binding = document.binding(port.binding)
        operations = document.port_type(binding.port_type).operation_names()
        target_ext = port.extension_of(ServiceTargetExt)
        target = target_ext.name if target_ext is not None else service.name
        protocol = binding.protocol

        def transport_stub(address_key: str, dispatch_target, codec, transport, tag):
            breaker = (
                self.breakers.get(address_key, policy) if policy is not None else None
            )
            return TransportStub(
                operations, dispatch_target, codec, transport, tag, timeout,
                policy=policy, events=self.events, breaker=breaker, clock=self.clock,
            )

        def credentialed(dispatch_target: str) -> str:
            # network paths carry the caller's credential in the target
            # (local paths never see the dispatcher, so none is needed)
            if credential is None:
                return dispatch_target
            from repro.container.security import with_credential

            return with_credential(credential, dispatch_target)

        if protocol == "soap":
            address = port.extension_of(SoapAddressExt)
            if address is None:
                raise BindingError(f"soap port {port.name!r} lacks a soap:address")
            codec = self._codecs.get(
                "text/xml" if soap_array_mode == "base64" else f"text/xml; arrays={soap_array_mode}"
            )
            transport = HttpTransport(address.location)
            return transport_stub(
                address.location, credentialed(target), codec, transport, "soap"
            )

        if protocol == "mime":
            address = port.extension_of(HttpAddressExt) or port.extension_of(SoapAddressExt)
            if address is None:
                raise BindingError(f"mime port {port.name!r} lacks an http address")
            codec = self._codecs.get("multipart/related")
            transport = HttpTransport(address.location)
            return transport_stub(
                address.location, credentialed(target), codec, transport, "mime"
            )

        if protocol == "sim":
            address = port.extension_of(SimAddressExt)
            if address is None:
                raise BindingError(f"sim port {port.name!r} lacks a harness:simAddress")
            if self.context.network is None or not self.context.host:
                raise BindingError("sim binding requires a fabric-attached context")
            from repro.transport.sim import SimTransport

            codec = self._codecs.get("application/x-xdr")
            sim_url = f"sim://{address.host}/{address.endpoint}"
            transport = SimTransport(self.context.network, self.context.host, sim_url)
            return transport_stub(
                sim_url, credentialed(address.target or target), codec, transport, "sim"
            )

        if protocol == "xdr":
            address = port.extension_of(XdrAddressExt)
            if address is None:
                raise BindingError(f"xdr port {port.name!r} lacks a harness:xdrAddress")
            codec = self._codecs.get("application/x-xdr")
            tcp_url = f"tcp://{address.host}:{address.port}"
            transport = TcpTransport(tcp_url, pool_size=self.tcp_pool_size)
            return transport_stub(
                tcp_url, credentialed(address.target or target), codec, transport, "xdr"
            )

        if protocol == "local-instance":
            ext = binding.extension_of(LocalInstanceBindingExt)
            address = port.extension_of(LocalAddressExt)
            if ext is None or address is None:
                raise BindingError(
                    f"local-instance port {port.name!r} needs binding ext + localAddress"
                )
            container = self.context.resolve_container(address.container)
            if container is None:
                raise BindingError(f"container {address.container!r} not in this process")
            instance = container.get_instance(ext.instance_id)  # type: ignore[attr-defined]
            return LocalStub(operations, ext.instance_id, instance, "local-instance")

        if protocol == "local":
            ext = binding.extension_of(LocalBindingExt)
            if ext is None:
                raise BindingError(f"local port {port.name!r} lacks harness:localBinding")
            address = port.extension_of(LocalAddressExt)
            if address is not None and address.container:
                container = self.context.resolve_container(address.container)
                if container is None:
                    raise BindingError(f"container {address.container!r} not in this process")
                instance = container.instantiate(ext.type_name)  # type: ignore[attr-defined]
            else:
                instance = load_type(ext.type_name)()
            return LocalStub(operations, target, instance, "local")

        raise BindingError(f"port {port.name!r} has unsupported protocol {protocol!r}")

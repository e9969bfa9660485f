"""WSDL 1.1 document model.

Mirrors the structure of the paper's Figures 7 and 8: a document has an
*abstract* part (messages, port types with operations) and a *concrete*
part (bindings associating a port type with a protocol, and services whose
ports attach bindings to endpoint addresses).  "The separation of the
abstract, interface description part from the concrete, implementation
dependent access point description part, allows the reuse of WSDL documents"
(Section 4) — so the model keeps the halves independently constructible and
:func:`repro.wsdl.model.WsdlDocument.merge` can recombine them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.util.errors import WsdlError
from repro.wsdl.extensions import ExtensibilityElement
from repro.xmlkit import XmlElement

__all__ = [
    "WsdlPart",
    "WsdlMessage",
    "WsdlOperation",
    "WsdlPortType",
    "WsdlBindingOperation",
    "WsdlBinding",
    "WsdlPort",
    "WsdlService",
    "WsdlDocument",
]


@dataclass(frozen=True)
class WsdlPart:
    """One ``<part>`` of a message: a named, XSD-typed parameter."""

    name: str
    type_name: str  # e.g. "xsd:double" or "harness:doubleArray"


@dataclass(frozen=True)
class WsdlMessage:
    """A ``<message>``: the typed payload of one direction of an operation."""

    name: str
    parts: tuple[WsdlPart, ...] = ()

    def part(self, name: str) -> WsdlPart:
        for part in self.parts:
            if part.name == name:
                return part
        raise WsdlError(f"message {self.name!r} has no part {name!r}")


@dataclass(frozen=True)
class WsdlOperation:
    """An ``<operation>``: "an exchange of messages between the client and
    the server" (Section 4).  ``input``/``output`` name messages; an empty
    output means a one-way operation."""

    name: str
    input_message: str
    output_message: str = ""


@dataclass(frozen=True)
class WsdlPortType:
    """A ``<portType>``: "a group of operations" (Section 4)."""

    name: str
    operations: tuple[WsdlOperation, ...] = ()

    def operation(self, name: str) -> WsdlOperation:
        for op in self.operations:
            if op.name == name:
                return op
        raise WsdlError(f"portType {self.name!r} has no operation {name!r}")

    def operation_names(self) -> tuple[str, ...]:
        return tuple(op.name for op in self.operations)


@dataclass(frozen=True)
class WsdlBindingOperation:
    """Binding detail for one operation (e.g. its SOAPAction)."""

    name: str
    extensions: tuple[ExtensibilityElement, ...] = ()


@dataclass(frozen=True)
class WsdlBinding:
    """A ``<binding>``: "the association of a name, a port type and a
    binding type" (Section 4).  The binding *type* is expressed by its
    extensibility elements (soap:binding, harness:localBinding, …)."""

    name: str
    port_type: str
    extensions: tuple[ExtensibilityElement, ...] = ()
    operations: tuple[WsdlBindingOperation, ...] = ()

    def extension_of(self, ext_type: type) -> ExtensibilityElement | None:
        for ext in self.extensions:
            if isinstance(ext, ext_type):
                return ext
        return None

    @property
    def protocol(self) -> str:
        """Short protocol tag derived from the binding's extensions."""
        from repro.wsdl.extensions import (
            LocalBindingExt,
            LocalInstanceBindingExt,
            MimeBindingExt,
            SimBindingExt,
            SoapBindingExt,
            XdrBindingExt,
        )

        if self.extension_of(LocalInstanceBindingExt) is not None:
            return "local-instance"
        if self.extension_of(LocalBindingExt) is not None:
            return "local"
        if self.extension_of(SimBindingExt) is not None:
            return "sim"
        if self.extension_of(XdrBindingExt) is not None:
            return "xdr"
        if self.extension_of(MimeBindingExt) is not None:
            return "mime"
        if self.extension_of(SoapBindingExt) is not None:
            return "soap"
        return "unknown"


@dataclass(frozen=True)
class WsdlPort:
    """A ``<port>``: one access point — a binding plus an address."""

    name: str
    binding: str
    extensions: tuple[ExtensibilityElement, ...] = ()

    def extension_of(self, ext_type: type) -> ExtensibilityElement | None:
        for ext in self.extensions:
            if isinstance(ext, ext_type):
                return ext
        return None


@dataclass(frozen=True)
class WsdlService:
    """A ``<service>``: the named collection of ports for one component."""

    name: str
    ports: tuple[WsdlPort, ...] = ()
    documentation: str = ""

    def port(self, name: str) -> WsdlPort:
        for port in self.ports:
            if port.name == name:
                return port
        raise WsdlError(f"service {self.name!r} has no port {name!r}")


@dataclass(frozen=True)
class WsdlDocument:
    """A complete WSDL 1.1 document."""

    name: str
    target_namespace: str
    messages: tuple[WsdlMessage, ...] = ()
    port_types: tuple[WsdlPortType, ...] = ()
    bindings: tuple[WsdlBinding, ...] = ()
    services: tuple[WsdlService, ...] = ()
    documentation: str = ""

    @cached_property
    def _compact_text(self) -> str:
        """The unindented serialisation, made on first use and kept.

        The document and every element under it are frozen, so the text
        cannot go stale; a DVM republishing one handle sends this object
        again instead of serialising afresh.  Not a field: equality, hash
        and repr are unchanged.
        """
        from repro.wsdl.io import document_to_string  # io imports this module

        return document_to_string(self, indent=False)

    # -- lookups -------------------------------------------------------------

    def message(self, name: str) -> WsdlMessage:
        for message in self.messages:
            if message.name == name:
                return message
        raise WsdlError(f"document {self.name!r} has no message {name!r}")

    def port_type(self, name: str) -> WsdlPortType:
        for port_type in self.port_types:
            if port_type.name == name:
                return port_type
        raise WsdlError(f"document {self.name!r} has no portType {name!r}")

    def binding(self, name: str) -> WsdlBinding:
        for binding in self.bindings:
            if binding.name == name:
                return binding
        raise WsdlError(f"document {self.name!r} has no binding {name!r}")

    def service(self, name: str) -> WsdlService:
        for service in self.services:
            if service.name == name:
                return service
        raise WsdlError(f"document {self.name!r} has no service {name!r}")

    # -- structure helpers -------------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity; raises :class:`WsdlError` on failure.

        * every binding references a defined portType
        * every binding operation references an operation of that portType
        * every port references a defined binding
        * every operation's input/output reference defined messages
        * names within each section are unique
        """
        for section, names in (
            ("message", [m.name for m in self.messages]),
            ("portType", [p.name for p in self.port_types]),
            ("binding", [b.name for b in self.bindings]),
            ("service", [s.name for s in self.services]),
        ):
            dupes = {n for n in names if names.count(n) > 1}
            if dupes:
                raise WsdlError(f"duplicate {section} names: {sorted(dupes)}")
        message_names = {m.name for m in self.messages}
        for port_type in self.port_types:
            for op in port_type.operations:
                if op.input_message and op.input_message not in message_names:
                    raise WsdlError(
                        f"operation {op.name!r} input references undefined "
                        f"message {op.input_message!r}"
                    )
                if op.output_message and op.output_message not in message_names:
                    raise WsdlError(
                        f"operation {op.name!r} output references undefined "
                        f"message {op.output_message!r}"
                    )
        port_type_names = {p.name for p in self.port_types}
        for binding in self.bindings:
            if binding.port_type not in port_type_names:
                raise WsdlError(
                    f"binding {binding.name!r} references undefined portType "
                    f"{binding.port_type!r}"
                )
            declared_ops = set(self.port_type(binding.port_type).operation_names())
            for bop in binding.operations:
                if bop.name not in declared_ops:
                    raise WsdlError(
                        f"binding {binding.name!r} declares operation {bop.name!r} "
                        f"not present in portType {binding.port_type!r}"
                    )
        binding_names = {b.name for b in self.bindings}
        for service in self.services:
            for port in service.ports:
                if port.binding not in binding_names:
                    raise WsdlError(
                        f"port {port.name!r} references undefined binding "
                        f"{port.binding!r}"
                    )

    def abstract_part(self) -> "WsdlDocument":
        """The implementation-independent half (messages + portTypes)."""
        return replace(self, bindings=(), services=())

    def concrete_part(self) -> "WsdlDocument":
        """The implementation-dependent half (bindings + services)."""
        return replace(self, messages=(), port_types=())

    def merge(self, other: "WsdlDocument") -> "WsdlDocument":
        """Recombine split documents (abstract + concrete reuse, Section 4)."""
        merged = replace(
            self,
            messages=self.messages + other.messages,
            port_types=self.port_types + other.port_types,
            bindings=self.bindings + other.bindings,
            services=self.services + other.services,
        )
        merged.validate()
        return merged

    def with_service(self, service: WsdlService) -> "WsdlDocument":
        """A copy with *service* appended."""
        return replace(self, services=self.services + (service,))

    def with_binding(self, binding: WsdlBinding) -> "WsdlDocument":
        """A copy with *binding* appended."""
        return replace(self, bindings=self.bindings + (binding,))

    def ports_by_protocol(self) -> dict[str, list[tuple[WsdlService, WsdlPort]]]:
        """Index every port in the document by its binding's protocol tag."""
        index: dict[str, list[tuple[WsdlService, WsdlPort]]] = {}
        for service in self.services:
            for port in service.ports:
                protocol = self.binding(port.binding).protocol
                index.setdefault(protocol, []).append((service, port))
        return index

"""Content-type keyed codec registry.

Bindings negotiate a wire encoding by content type.  The registry maps a
content-type string to a :class:`MessageCodec` that can turn an RPC call or
reply into bytes and back.  Two codecs ship by default:

* ``application/x-xdr`` — the Harness II XDR binding's encoding (fast path).
* ``text/xml`` — SOAP 1.1 envelopes (registered by :mod:`repro.soap` on
  import, to keep the dependency direction encoding → soap-free).

Third-party bindings may register additional codecs; the test-suite
registers a deliberately lossy one to exercise negotiation failures.
"""

from __future__ import annotations

import threading
from typing import Any, Protocol

from repro.encoding import xdr
from repro.util.errors import EncodingError

__all__ = ["MessageCodec", "CodecRegistry", "default_registry", "XdrMessageCodec"]


class MessageCodec(Protocol):
    """Encode/decode RPC calls and replies for one content type.

    Payload arguments and return values are bytes-like: the zero-copy wire
    path hands decoders ``memoryview`` slices of receive buffers, and
    encoders may return views over internal buffers.

    A codec may additionally offer ``call_encoder(target, operation)``
    returning an ``args -> payload`` callable — a cached *marshalling plan*
    that pre-computes everything constant per (target, operation).  Stubs
    probe for it with ``getattr`` and fall back to :meth:`encode_call`.
    """

    content_type: str

    def encode_call(self, target: str, operation: str, args: tuple | list) -> bytes: ...

    def decode_call(self, data: bytes) -> tuple[str, str, list]: ...

    def encode_reply(self, result: Any = None, fault: str | None = None) -> bytes: ...

    def decode_reply(self, data: bytes) -> Any: ...


class XdrMessageCodec:
    """The XDR message codec (see :mod:`repro.encoding.xdr`)."""

    content_type = "application/x-xdr"

    def encode_call(self, target: str, operation: str, args: tuple | list) -> bytes:
        return xdr.pack_call(target, operation, args)

    def call_encoder(self, target: str, operation: str):
        """A cached marshalling plan: the (target, operation) header is
        encoded once here, then only the arguments are packed per call."""
        prefix = xdr.make_call_prefix(target, operation)

        def encode(args: tuple | list, _prefix: bytes = prefix) -> memoryview:
            return xdr.pack_call_from_prefix(_prefix, args)

        return encode

    def decode_call(self, data: bytes) -> tuple[str, str, list]:
        return xdr.unpack_call(data)

    def encode_reply(self, result: Any = None, fault: str | None = None) -> bytes:
        return xdr.pack_reply(result, fault)

    def decode_reply(self, data: bytes) -> Any:
        return xdr.unpack_reply(data)


class CodecRegistry:
    """Thread-safe content-type → codec mapping; writes take the lock."""

    def __init__(self) -> None:
        self._codecs: dict[str, MessageCodec] = {}
        self._lock = threading.Lock()

    def register(self, codec: MessageCodec, replace: bool = False) -> None:
        """Register *codec* under its ``content_type``."""
        with self._lock:
            if codec.content_type in self._codecs and not replace:
                raise EncodingError(f"codec already registered: {codec.content_type}")
            self._codecs[codec.content_type] = codec

    def get(self, content_type: str) -> MessageCodec:
        """Codec for *content_type*; raises :class:`EncodingError` if unknown.

        Reads without the lock: one dict read is atomic, and only writers
        need to exclude each other."""
        codec = self._codecs.get(content_type)
        if codec is None:
            raise EncodingError(f"no codec for content type {content_type!r}")
        return codec

    def content_types(self) -> list[str]:
        with self._lock:
            return sorted(self._codecs)


#: Process-wide registry used by transports unless one is injected.
default_registry = CodecRegistry()
default_registry.register(XdrMessageCodec())

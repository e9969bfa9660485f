"""Client-side stubs — the WSIF idea, dynamically generated.

"This package provides a skeleton implementation for the dynamic, run-time
generation of Web Service stubs.  Thus, it is possible for a client both to
select the type of protocol it wants to use to access a service (e.g. SOAP)
or to let the framework dynamically generate the required stub." (Section 4,
on IBM's WSIF.)

A :class:`ServiceStub` exposes the operations of a WSDL portType as normal
Python methods; concrete subclasses differ only in how ``_invoke`` reaches
the service:

* :class:`TransportStub` — encode with a codec, ship over a transport
  (SOAP/HTTP and XDR/TCP both use this, with different codec+transport).
* :class:`LocalStub` — direct Python call on an object in this process:
  the paper's *Java binding* (fresh instance) and *JavaObject scheme*
  (pre-existing stateful instance) collapse to attribute access here, which
  is the point: zero marshalling, zero copies.
"""

from __future__ import annotations

import importlib
import time
from typing import Any

from repro.encoding.registry import MessageCodec
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.transport.base import ClientTransport, TransportMessage
from repro.util.errors import BindingError, EncodingError, SoapFaultError

__all__ = ["ServiceStub", "TransportStub", "LocalStub", "load_type"]


def load_type(type_name: str) -> type:
    """Import ``pkg.module:Class`` or ``pkg.module.Class`` and return the class.

    The analogue of the Java binding's "automatic retrieval of the class
    code and its instantiation" — Python's import machinery is our
    classloader.
    """
    module_name, sep, attr = type_name.partition(":")
    if not sep:
        module_name, _, attr = type_name.rpartition(".")
    if not module_name or not attr:
        raise BindingError(f"malformed type name: {type_name!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise BindingError(f"cannot import {module_name!r}: {exc}") from exc
    try:
        obj = getattr(module, attr)
    except AttributeError as exc:
        raise BindingError(f"{module_name!r} has no attribute {attr!r}") from exc
    if not isinstance(obj, type):
        raise BindingError(f"{type_name!r} is not a class")
    return obj


# A traced call records ``(obs, span name, context, status, t0, t1, t2, t3,
# end)`` raw: t1..t3 are the perf_counter stamps after encode, transit and
# decode (None where the call failed before them), *end* is when it ended.


def _phases_us(t0, t1, t2, t3, end) -> tuple[float, float, float, float]:
    """(encode, transit, decode, total) in microseconds; a phase the call
    never reached ends where the call did."""
    t1 = t1 or end
    t2 = t2 or end
    return (t1 - t0) * 1e6, (t2 - t1) * 1e6, ((t3 or end) - t2) * 1e6, (end - t0) * 1e6


def _fold_client_spans(records) -> None:
    """One finisher batch of client records, per stub protocol: one
    ``calls`` add, one ``faults`` add and one grouped phase observe, each
    row's exemplar tagged with that call's own context."""
    instruments, _names, contexts, statuses, *stamps = zip(*records)
    if instruments.count(instruments[0]) != len(records):
        for obs in dict.fromkeys(instruments):  # stubs of several protocols
            _fold_client_spans([record for record in records if record[0] == obs])
        return
    calls, faults, phases = instruments[0]
    calls.inc(len(records))
    failed = len(records) - statuses.count("ok")
    if failed:
        faults.inc(failed)
    phases.observe_rows(list(map(_phases_us, *stamps)), contexts)


def _build_client_span(record) -> _trace.Span:
    _obs, name, ctx, status, t0, t1, t2, t3, end = record
    encode_us, transit_us, decode_us, _total = _phases_us(t0, t1, t2, t3, end)
    ctx = _trace.resolve(ctx)
    return _trace.Span(
        name, ctx.trace_id, ctx.span_id, ctx.parent_id, status,
        {"encode": encode_us, "transit": transit_us, "decode": decode_us},
    )


_CLIENT_SPANS = _trace.SpanKind(_fold_client_spans, _build_client_span)


class ServiceStub:
    """Base stub: operation names become bound methods.

    ``operations`` comes from the WSDL portType, so calling anything the
    service did not declare raises :class:`BindingError` *client-side*,
    before any bytes move.
    """

    #: short protocol tag for diagnostics ("soap", "xdr", "local", ...)
    protocol: str = "abstract"

    def __init__(self, operations: tuple[str, ...], target: str):
        self._operations = tuple(operations)
        self._target = target

    @property
    def operations(self) -> tuple[str, ...]:
        return self._operations

    @property
    def target(self) -> str:
        return self._target

    def _invoke(self, operation: str, args: tuple) -> Any:
        raise NotImplementedError

    def invoke(self, operation: str, *args: Any) -> Any:
        """Explicit invocation entry point (used by generic clients)."""
        if operation not in self._operations:
            raise BindingError(
                f"operation {operation!r} not in portType "
                f"(available: {', '.join(self._operations)})"
            )
        return self._invoke(operation, args)

    def __getattr__(self, name: str) -> Any:
        # Only consulted when normal attribute lookup fails.
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self._operations:
            def call(*args: Any) -> Any:
                return self._invoke(name, args)

            call.__name__ = name
            call.__qualname__ = f"{type(self).__name__}.{name}"
            return call
        raise AttributeError(
            f"stub for {self._target!r} has no operation {name!r}"
        )

    def close(self) -> None:
        """Release any underlying connection (no-op by default)."""

    def __enter__(self) -> "ServiceStub":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class TransportStub(ServiceStub):
    """Stub invoking through a codec + transport pair.

    When an :class:`~repro.bindings.policy.InvocationPolicy` is attached the
    call is executed under it: bounded retries at idempotent-safe failure
    points, backoff, an overall deadline, and a per-target circuit breaker.
    The request bytes are encoded once, so every retry resends the identical
    message.  Without a policy the invocation path is unchanged.
    """

    def __init__(
        self,
        operations: tuple[str, ...],
        target: str,
        codec: MessageCodec,
        transport: ClientTransport,
        protocol: str,
        timeout: float | None = 30.0,
        policy=None,
        events=None,
        breaker=None,
        clock=None,
        rng=None,
    ):
        super().__init__(operations, target)
        self._codec = codec
        self._transport = transport
        self.protocol = protocol
        self._timeout = timeout
        # per-operation marshalling plans: (content type, args -> payload),
        # built lazily on first call (benign race: plans are equivalent)
        self._plans: dict[str, tuple[str, Any]] = {}
        # observability instruments, resolved on the first *traced* call so
        # untraced stubs never touch the registry
        self._obs = None
        self._span_names: dict[str, str] = {}  # per-operation client span names
        if policy is None:
            self._executor = None
        else:
            from repro.bindings.policy import PolicyExecutor

            self._executor = PolicyExecutor(
                policy, target, breaker=breaker, events=events, clock=clock, rng=rng
            )

    def _plan(self, operation: str) -> tuple[str, Any]:
        """The cached marshalling plan for *operation*.

        Codecs offering ``call_encoder`` (e.g. XDR) get their per-operation
        constants — the encoded (target, operation) header — computed once
        per (stub, operation) instead of per call; others fall back to the
        generic ``encode_call`` path.
        """
        plan = self._plans.get(operation)
        if plan is None:
            make = getattr(self._codec, "call_encoder", None)
            if make is not None:
                encoder = make(self._target, operation)
            else:
                codec, target = self._codec, self._target

                def encoder(args: tuple, _op: str = operation):
                    return codec.encode_call(target, _op, args)

            plan = (self._codec.content_type, encoder)
            self._plans[operation] = plan
        return plan

    def _invoke(self, operation: str, args: tuple) -> Any:
        if _trace.ENABLED:
            return self._invoke_traced(operation, args)
        content_type, encode = self._plan(operation)
        request = TransportMessage(content_type, encode(args))
        if self._executor is None:
            response = self._transport.request(request, timeout=self._timeout)
        else:
            response = self._executor.call(
                self._transport.request,
                request,
                operation,
                base_timeout=self._timeout,
            )
        try:
            return self._codec.decode_reply(response.payload)
        except (SoapFaultError, EncodingError):
            # remote faults surface as-is (SOAP <Fault>, XDR fault reply)
            raise
        except Exception as exc:
            raise BindingError(f"cannot decode reply for {operation!r}: {exc}") from exc

    def _instruments(self):
        obs = self._obs
        if obs is None:
            base = f"stub.{self.protocol}"
            obs = self._obs = (
                _metrics.registry.counter(f"{base}.calls"),
                _metrics.registry.counter(f"{base}.faults"),
                # the four phases fold into one grouped update per batch
                _metrics.registry.histogram_group(
                    (
                        f"{base}.encode_us",
                        f"{base}.transit_us",
                        f"{base}.decode_us",
                        f"{base}.total_us",
                    )
                ),
            )
        return obs

    def _invoke_traced(self, operation: str, args: tuple) -> Any:
        """The instrumented twin of ``_invoke``: a client span with
        encode/transit/decode timing, each phase observed into its
        histogram exactly once per call (so counts equal call counts)."""
        obs = self._obs or self._instruments()
        span_name = self._span_names.get(operation)
        if span_name is None:
            span_name = self._span_names[operation] = (
                f"client:{self.protocol}:{operation}"
            )
        ctx = _trace.new_span()
        token = _trace.activate(ctx)  # before encode: SOAP splice reads it
        status = "error"
        t1 = t2 = t3 = None
        perf = time.perf_counter
        t0 = perf()
        try:
            content_type, encode = self._plan(operation)
            request = TransportMessage(content_type, encode(args))
            t1 = perf()
            if self._executor is None:
                response = self._transport.request(request, timeout=self._timeout)
            else:
                response = self._executor.call(
                    self._transport.request,
                    request,
                    operation,
                    base_timeout=self._timeout,
                )
            t2 = perf()
            try:
                result = self._codec.decode_reply(response.payload)
            except (SoapFaultError, EncodingError):
                status = "fault"
                raise
            except Exception as exc:
                raise BindingError(
                    f"cannot decode reply for {operation!r}: {exc}"
                ) from exc
            t3 = perf()
            status = "ok"
            return result
        finally:
            _trace.deactivate(token)
            end = t3 if t3 is not None else perf()
            # this runs at the coldest instant of the call — right after
            # the transit wait — so even the timing arithmetic moves to
            # the finisher thread; the hot path pays one append
            _trace.finisher.submit(
                _CLIENT_SPANS, (obs, span_name, ctx, status, t0, t1, t2, t3, end)
            )

    def close(self) -> None:
        self._transport.close()


class LocalStub(ServiceStub):
    """Stub calling a co-located Python object directly.

    ``protocol`` distinguishes the paper's two local schemes:
    ``"local"`` wraps a freshly instantiated object of the bound type;
    ``"local-instance"`` wraps a specific pre-existing, stateful instance
    obtained from the component container.
    """

    def __init__(self, operations: tuple[str, ...], target: str, obj: object, protocol: str):
        super().__init__(operations, target)
        self._obj = obj
        self.protocol = protocol

    def _invoke(self, operation: str, args: tuple) -> Any:
        method = getattr(self._obj, operation, None)
        if method is None or not callable(method):
            raise BindingError(
                f"local object {type(self._obj).__name__} has no operation {operation!r}"
            )
        return method(*args)

    @property
    def wrapped_object(self) -> object:
        """The underlying instance (tests assert identity for statefulness)."""
        return self._obj

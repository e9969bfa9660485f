"""Server-side invocation dispatch.

A :class:`Dispatcher` resolves a *target* string (the port/instance address
carried in every call message) to a live object and invokes an operation on
it.  All server-side bindings (SOAP/HTTP, XDR/TCP, in-proc) share one
dispatcher, which is what lets a single component be reachable through
several bindings simultaneously — the multi-port services of Figures 7/8.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.util.errors import BindingError, ServiceNotFoundError

__all__ = ["ObjectDispatcher", "exposed_operations"]


def exposed_operations(obj: object) -> list[str]:
    """Public callable attribute names of *obj* (its service operations).

    Lifecycle hooks (``on_*``) are container-invoked, never remotely
    callable, so they are excluded from the published interface.
    """
    ops = []
    for name in dir(obj):
        if name.startswith("_") or name.startswith("on_"):
            continue
        if callable(getattr(obj, name)):
            ops.append(name)
    return ops


class ObjectDispatcher:
    """Maps target names to objects and performs guarded invocation.

    Only operations enumerated at registration time are callable; this is
    the server-side contract derived from the WSDL portType, so a client
    cannot reach Python internals that were never published.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._objects: dict[str, tuple[object, frozenset[str]]] = {}

    def register(self, target: str, obj: object, operations: list[str] | None = None) -> None:
        """Expose *obj* under *target*, optionally restricting operations."""
        ops = frozenset(operations if operations is not None else exposed_operations(obj))
        with self._lock:
            if target in self._objects:
                raise BindingError(f"target already registered: {target!r}")
            self._objects[target] = (obj, ops)

    def unregister(self, target: str) -> None:
        with self._lock:
            self._objects.pop(target, None)

    def targets(self) -> list[str]:
        with self._lock:
            return sorted(self._objects)

    def lookup(self, target: str) -> object:
        """The registered object itself (used by the local-instance binding)."""
        with self._lock:
            entry = self._objects.get(target)
        if entry is None:
            raise ServiceNotFoundError(f"no such target: {target!r}")
        return entry[0]

    def invoke(self, target: str, operation: str, args: list | tuple) -> Any:
        """Call ``operation(*args)`` on the object registered as *target*.

        The lookup reads without the lock (one dict read is atomic; writes
        take it): this runs on every call a server answers."""
        entry = self._objects.get(target)
        if entry is None:
            raise ServiceNotFoundError(f"no such target: {target!r}")
        obj, ops = entry
        if operation not in ops:
            raise BindingError(f"operation {operation!r} not exposed by {target!r}")
        method = getattr(obj, operation, None)
        if method is None or not callable(method):
            raise BindingError(f"target {target!r} has no callable {operation!r}")
        return method(*args)

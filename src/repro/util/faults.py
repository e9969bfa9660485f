"""One fault shape for every carrier: a failure crosses as a reply.

A peer can only send bytes back, never a live exception.  The serving side
(the simulated fabric, the mailbox protocol over the sim or TCP) answers a
failed request with :func:`fault_reply`'s dict; the caller raises it again
with :func:`raise_fault`.  Every type in :mod:`repro.util.errors` comes
back as itself, by name, with its own text; any other type comes back as
the caller's *default* type, its text led by the name it had.
"""

from __future__ import annotations

from typing import NoReturn

from repro.util import errors

__all__ = ["fault_reply", "raise_fault"]

_ERROR_TYPES = {name: getattr(errors, name) for name in errors.__all__}
#: the fields a type carries beside its text, restored on the far side
_FIELDS = {
    "MailboxFullError": ("mailbox", "capacity"),
    "SoapFaultError": ("faultcode", "faultstring", "detail"),
}


def fault_reply(exc: Exception) -> dict:
    """The one fault shape: ``error`` (the type's name), ``message``, fields."""
    name = type(exc).__name__
    out = {"error": name, "message": str(exc)}
    for field in _FIELDS.get(name, ()):
        out[field] = getattr(exc, field, None)
    return out


def raise_fault(reply: dict, default: type[errors.HarnessError]) -> NoReturn:
    """Raise the fault *reply* carries; an unknown name raises *default*."""
    name = reply.get("error") or default.__name__
    text = reply.get("message", name)
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        raise default(f"{name}: {text}")
    exc = cls.__new__(cls, text)  # no __init__: the text is the one sent
    for field in _FIELDS.get(name, ()):
        setattr(exc, field, reply.get(field))
    raise exc

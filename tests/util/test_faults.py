"""The one fault shape: every framework error crosses as itself."""

import pytest

from repro.encoding.xdr import pack_value, unpack_value
from repro.util import errors as E
from repro.util.faults import fault_reply, raise_fault


def _sample(name: str) -> Exception:
    if name == "MailboxFullError":
        return E.MailboxFullError("news", 3, detail="subscriber slow backlogged")
    if name == "SoapFaultError":
        return E.SoapFaultError("soapenv:Client", "bad call", "no such operation")
    return getattr(E, name)(f"{name} text")


def _crossed(exc: Exception, default=E.TransportError) -> Exception:
    reply = unpack_value(pack_value(fault_reply(exc)))  # what a peer can send: bytes
    with pytest.raises(E.HarnessError) as raised:
        raise_fault(reply, default)
    return raised.value


@pytest.mark.parametrize("name", E.__all__)
def test_every_framework_error_crosses_with_its_type_and_text(name):
    exc = _sample(name)
    got = _crossed(exc)
    assert type(got) is type(exc)
    assert str(got) == str(exc)


def test_detail_fields_cross_too():
    full = _crossed(_sample("MailboxFullError"))
    assert (full.mailbox, full.capacity) == ("news", 3)
    soap = _crossed(_sample("SoapFaultError"))
    assert (soap.faultcode, soap.faultstring, soap.detail) == (
        "soapenv:Client", "bad call", "no such operation",
    )


@pytest.mark.parametrize("default", [E.TransportError, E.MessagingError])
def test_any_other_type_arrives_as_the_default_naming_it(default):
    got = _crossed(UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), default)
    assert type(got) is default
    assert str(got) == (
        "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"
    )

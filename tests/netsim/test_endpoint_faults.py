"""Five handler faults on the simulated fabric: what the caller sees and pays.

Each probe sends one bad request to a fabric endpoint.  The caller gets a
typed error rebuilt from a fault reply, with the handler's own text, and the
fabric's ``(total_messages, total_bytes)`` count the request and that reply.
Before faults were replies, each probe raised the handler's own exception
object at the caller with no reply leg charged (the kernel's, a string
fault, was the one exception): ``KeyError`` (1, 8), ``XmlError`` (1, 5),
``RegistryError`` (1, 0), ``PluginError("remote kernel node1: PluginError:
…")`` (2, 160) and ``TransportError`` (1, 3).
"""

import pytest

from repro.core.kernel import HarnessKernel
from repro.dvm.state import _CT as STATE_CT
from repro.dvm.state import _ENDPOINT as STATE_ENDPOINT
from repro.dvm.state import FullSynchronyState
from repro.encoding.xdr import pack_value
from repro.netsim import lan
from repro.netsim.fabric import HostDownError, MessageDroppedError
from repro.obs import metrics
from repro.registry.distributed import _WSDL_CT, DecentralizedLookup
from repro.transport.base import TransportMessage
from repro.util.errors import (
    HarnessTimeoutError,
    PluginError,
    RegistryError,
    TransportError,
    XmlError,
)


def _faults(name):
    return metrics.registry.snapshot(name).get(name, {"value": 0})["value"]


def _probe(network, call, error, match, totals, fault_type):
    network.reset_stats()
    names = ("netsim.faults", f"netsim.faults.{fault_type}")
    before = [_faults(name) for name in names]
    with pytest.raises(error, match=match) as raised:
        call()
    assert type(raised.value) is error
    assert (network.total_messages, network.total_bytes) == totals
    assert network.stats[("node1", "node0")].messages == 1  # the fault reply
    assert [_faults(name) for name in names] == [count + 1 for count in before]


def test_state_request_without_kind():
    network = lan(2)
    FullSynchronyState(network, ["node0", "node1"])
    message = TransportMessage(STATE_CT, pack_value({}))
    _probe(
        network, lambda: network.request("node0", "node1", STATE_ENDPOINT, message),
        TransportError, "^KeyError: 'kind'$", (2, 72), "KeyError",
    )


def test_malformed_wsdl_registration():
    network = lan(2)
    DecentralizedLookup(network)
    message = TransportMessage(_WSDL_CT, b"<nope")
    _probe(
        network, lambda: network.request("node0", "node1", "lookup", message),
        XmlError, "^malformed XML: unclosed token", (2, 109), "XmlError",
    )


def test_unknown_lookup_content_type():
    network = lan(2)
    DecentralizedLookup(network)
    message = TransportMessage("text/bogus", b"")
    _probe(
        network, lambda: network.request("node0", "node1", "lookup", message),
        RegistryError, "^lookup node cannot handle 'text/bogus'$", (2, 104), "RegistryError",
    )


def test_kernel_send_to_missing_service():
    network = lan(2)
    k0 = HarnessKernel("node0", network=network)
    k1 = HarnessKernel("node1", network=network)
    _probe(
        network, lambda: k0.send("node1", "nothing", {}),
        PluginError, "^no service 'nothing' on kernel node1$", (2, 176), "PluginError",
    )
    k0.shutdown()
    k1.shutdown()


def test_unbound_endpoint():
    network = lan(2)
    message = TransportMessage("t", b"boo")
    _probe(
        network, lambda: network.request("node0", "node1", "ghost", message),
        TransportError, "^host node1 has no endpoint 'ghost'$", (2, 103), "TransportError",
    )


def test_fault_reply_can_be_dropped():
    """The fault leg takes the same drop draw as any reply."""
    network = lan(2)
    network.set_link_faults("node1", "node0", drop_rate=1.0, symmetric=False)
    network.reset_stats()
    with pytest.raises(MessageDroppedError, match="response phase"):
        network.request("node0", "node1", "ghost", TransportMessage("t", b"boo"))
    assert network.total_messages == 2


def test_fault_reply_past_the_timeout_is_a_timeout():
    network = lan(2)
    with pytest.raises(HarnessTimeoutError):
        network.request("node0", "node1", "ghost", TransportMessage("t", b"boo"), timeout=1e-9)


def test_nested_unreachable_peer_arrives_as_transport_error():
    """A handler's own failed request is its fault, not the caller's dead peer."""
    network = lan(3)

    def relay(message):
        return network.request("node1", "node2", "ghost", message)

    network.host("node1").bind("relay", relay)
    network.host("node2").crash()
    with pytest.raises(TransportError, match="^HostDownError: host node2 is down$") as raised:
        network.request("node0", "node1", "relay", TransportMessage("t", b"x"))
    assert not isinstance(raised.value, HostDownError)

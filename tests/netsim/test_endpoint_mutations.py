"""Damaged requests at every simulated endpoint: an answer or a typed fault.

One valid request per op of each fabric endpoint (state ``get`` /
``update`` / ``snapshot``, gossip ``sync`` / ``deltas``, lookup by name /
query / register, kernel ``send``) is sent whole, then cut at every length
and with each byte flipped four ways, through ``VirtualNetwork.request``.
Each outcome is either a reply the endpoint sent or a
:class:`~repro.util.errors.HarnessError` rebuilt from a fault reply, never a
builtin exception, and every exchange is charged both ways.  A property
test splices arbitrary bytes into the same requests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import HarnessKernel
from repro.core.plugin import Plugin
from repro.dvm.gossip import GossipState
from repro.dvm.state import _CT as STATE_CT
from repro.dvm.state import _ENDPOINT as STATE_ENDPOINT
from repro.dvm.state import FullSynchronyState, _get_request, _update_request
from repro.encoding.xdr import pack_value
from repro.netsim import lan
from repro.netsim.fabric import FAULT_CT
from repro.registry.distributed import _NAME_CT, _QUERY_CT, _WSDL_CT, DecentralizedLookup
from repro.transport.base import TransportMessage
from repro.util.errors import HarnessError
from repro.wsdl.io import document_to_string
from repro.wsdl.model import WsdlDocument


class _Echo(Plugin):
    plugin_name = "echo"
    provides = ("echo",)

    def handle_message(self, src, payload):
        return {"from": src, "data": payload}


def _state():
    network = lan(2)
    protocol = FullSynchronyState(network, ["node0", "node1"])
    entry = protocol.update("node1", "app/k", {"n": 7, "s": "seven"})
    return network, STATE_ENDPOINT, {
        "get": _get_request("app/k"),
        "update": _update_request(entry),
        "snapshot": TransportMessage(STATE_CT, pack_value({"kind": "snapshot", "prefix": "app/"})),
    }


def _gossip():
    network = lan(2)
    protocol = GossipState(network, ["node0", "node1"], seed=1)
    protocol.update("node0", "app/a", 1)
    protocol.update("node1", "app/b", "two")
    view = protocol._views["node0"]
    with protocol.nodes["node0"].lock:
        sync = protocol._sync_payload_locked(view)
        digest, _ = protocol._digest_locked(view)
        batch = protocol._collect_locked(view, {})
    deltas = pack_value({"kind": "deltas", "deltas": batch, "d": digest})
    return network, STATE_ENDPOINT, {
        "sync": TransportMessage(STATE_CT, sync),
        "deltas": TransportMessage(STATE_CT, deltas),
    }


def _lookup():
    network = lan(2)
    lookup = DecentralizedLookup(network)
    doc = WsdlDocument(name="s0", target_namespace="urn:s0")
    lookup.register("node1", doc)
    wsdl = document_to_string(WsdlDocument(name="s1", target_namespace="urn:s1"), indent=False)
    return network, lookup.endpoint, {
        "name": TransportMessage(_NAME_CT, b"s0"),
        "query": TransportMessage(_QUERY_CT, b"//definitions[@name='s0']"),
        "register": TransportMessage(_WSDL_CT, wsdl.encode("utf-8")),
    }


def _kernel():
    network = lan(2)
    HarnessKernel("node1", network=network).load_plugin(_Echo)
    request = {"service": "echo", "src": "node0", "payload": [1, "two", 3.0]}
    return network, "harness-kernel", {
        "send": TransportMessage("application/x-harness-kernel", pack_value(request)),
    }


PLANES = {"state": _state, "gossip": _gossip, "lookup": _lookup, "kernel": _kernel}
CASES = [(plane, op) for plane, build in PLANES.items() for op in build()[2]]
_MASKS = (0x01, 0x04, 0x80, 0xFF)


def _damaged(packed: bytes):
    """Every truncation of *packed*, then each byte flipped four ways."""
    for cut in range(len(packed)):
        yield packed[:cut]
    for index in range(len(packed)):
        for mask in _MASKS:
            bad = bytearray(packed)
            bad[index] ^= mask
            yield bytes(bad)


def _outcome(network, endpoint, message):
    """The reply or the typed fault, after checking both legs were charged."""
    network.reset_stats()
    try:
        outcome = network.request("node0", "node1", endpoint, message)
    except HarnessError as exc:
        outcome = exc
    assert network.total_messages == 2, (message, outcome)
    assert isinstance(outcome, HarnessError) or outcome.content_type != FAULT_CT
    return outcome


@pytest.mark.parametrize("plane, op", CASES)
def test_every_damaged_request_gets_an_answer_or_a_typed_fault(plane, op):
    network, endpoint, requests = PLANES[plane]()
    reference = requests[op]
    answer = _outcome(network, endpoint, reference)
    assert isinstance(answer, TransportMessage), answer  # the whole request is served
    faults = 0
    for payload in _damaged(bytes(reference.payload)):
        message = TransportMessage(reference.content_type, payload)
        faults += isinstance(_outcome(network, endpoint, message), HarnessError)
    assert faults  # the damage reached the handlers


@pytest.fixture(scope="module")
def built():
    return {plane: build() for plane, build in PLANES.items()}


@given(
    case=st.sampled_from(CASES),
    start=st.integers(min_value=0, max_value=400),
    length=st.integers(min_value=0, max_value=16),
    garbage=st.binary(max_size=24),
)
@settings(deadline=None)
def test_spliced_requests_get_an_answer_or_a_typed_fault(built, case, start, length, garbage):
    plane, op = case
    network, endpoint, requests = built[plane]
    reference = requests[op]
    payload = bytes(reference.payload)
    start = min(start, len(payload))
    spliced = payload[:start] + garbage + payload[start + length:]
    _outcome(network, endpoint, TransportMessage(reference.content_type, spliced))

"""The state plane's message plans: same bytes, same answers, same counts.

``dvm/state.py`` builds its ``get`` / ``update`` requests and their replies
from heads packed once and entry fragments packed once.  These tests hold
that to the wire format it replaced: every planned message equals
``pack_value`` of the dict it stands for, every request that is not exactly
a planned one is answered as the generic decoder answers it, an entry
survives every path it travels, and the fabric's message and byte totals
for a seeded script are the literal numbers measured before the plans
existed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import HarnessDvm
from repro.dvm.gossip import GossipState
from repro.dvm.state import (
    _CT,
    _ENTRY_HEAD,
    _MISS_REPLY,
    _OK_REPLY,
    _UPDATE_HEAD,
    DecentralizedState,
    FullSynchronyState,
    StateEntry,
    _get_request,
)
from repro.encoding.xdr import pack_value, unpack_value
from repro.netsim import lan
from repro.plugins.services import CounterService
from repro.tools.wsdlgen import generate_wsdl
from repro.transport.base import TransportMessage
from repro.util.errors import CoherencyError, EncodingError
from repro.util.ids import reset_ids
from repro.wsdl.io import document_to_string

RECORD = {
    "node": "node3",
    "wsdl": document_to_string(
        generate_wsdl(CounterService, service_name="svc3"), indent=False
    ),
    "restartable": False,
    "bindings": ["local-instance", "sim"],
}

# empty, non-ASCII, and every length mod 4 (XDR pads strings to 4 bytes)
keys = st.one_of(
    st.sampled_from(["", "a", "ab", "abc", "abcd", "component/svc3", "clé/ключ/鍵"]),
    st.text(max_size=24),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
values = st.one_of(
    st.just(RECORD),
    st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=6), inner, max_size=4),
        ),
        max_leaves=12,
    ),
)
entries = st.builds(
    StateEntry, keys, values, st.integers(0, 2**40), st.sampled_from(["node0", "nœud1"])
)


def reference_serve(node, payload) -> bytes:
    """What ``_StateNode._serve`` answered before the plans: decode all, pack all."""
    request = unpack_value(payload)
    kind = request["kind"]
    if kind == "update":
        node.apply(StateEntry.from_wire(request["entry"]))
        reply = {"ok": True}
    elif kind == "get":
        entry = node.get(request["key"])
        reply = {"entry": entry.to_wire() if entry else None}
    elif kind == "snapshot":
        prefix = request.get("prefix", "")
        reply = {
            "entries": [
                e.to_wire() for k, e in node.store.items() if k.startswith(prefix)
            ]
        }
    else:
        raise CoherencyError(f"unknown state request kind {kind!r}")
    return pack_value(reply)


def outcome(call):
    """The reply bytes, or the type and text of what was raised."""
    try:
        return bytes(call())
    except Exception as exc:  # the comparison is the point: any error, compared
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def node():
    protocol = DecentralizedState(lan(2), ["node0", "node1"])
    protocol.update("node0", "component/svc3", RECORD)
    protocol.update("node0", "", "empty key")
    protocol.update("node0", "clé", None)
    return protocol.nodes["node0"]


class TestPlannedBytes:
    @given(keys)
    def test_get_request(self, key):
        message = _get_request(key)
        assert message.content_type == _CT
        assert message.payload == pack_value({"kind": "get", "key": key})

    @given(entries)
    def test_update_request_and_entry_reply(self, entry):
        wire = entry.to_wire()
        assert _UPDATE_HEAD + entry._wire == pack_value({"kind": "update", "entry": wire})
        assert _ENTRY_HEAD + entry._wire == pack_value({"entry": wire})

    def test_constant_replies(self):
        assert _MISS_REPLY.payload == pack_value({"entry": None})
        assert _OK_REPLY.payload == pack_value({"ok": True})

    @given(keys)
    def test_served_get_is_what_pack_value_would_send(self, node, key):
        held = node.get(key)
        reply = node._serve(_get_request(key))
        assert reply.content_type == _CT
        assert reply.payload == pack_value({"entry": held.to_wire() if held else None})

    @given(entries)
    @settings(max_examples=50)
    def test_served_update_is_ok_and_applies(self, entry):
        target = DecentralizedState(lan(1), ["node0"]).nodes["node0"]
        request = TransportMessage(_CT, _UPDATE_HEAD + entry._wire)
        assert target._serve(request).payload == pack_value({"ok": True})
        assert pack_value(target.get(entry.key).to_wire()) == entry._wire


def _variants(key: str) -> dict[str, bytes]:
    planned = pack_value({"kind": "get", "key": key})
    return {
        "planned": planned,
        "permuted keys": pack_value({"key": key, "kind": "get"}),
        "extra field": pack_value({"kind": "get", "key": key, "hint": 1}),
        "extra field first": pack_value({"hint": 1, "kind": "get", "key": key}),
        "key missing": pack_value({"kind": "get"}),
        "key is an int": pack_value({"kind": "get", "key": 7}),
        "key is opaque": pack_value({"kind": "get", "key": key.encode()}),
        "key is a list": pack_value({"kind": "get", "key": [key]}),
        "unknown kind": pack_value({"kind": "got", "key": key}),
        "snapshot": pack_value({"kind": "snapshot", "prefix": key[:3]}),
        "not a dict": pack_value([key]),
        "truncated by 1": planned[:-1],
        "truncated by 4": planned[:-4],
        "truncated to the head": planned[: -len(pack_value(key))],
        "trailing word": planned + b"\x00\x00\x00\x00",
        "bad utf-8": planned[:-4] + b"\xff\xfe\xfd\xfc" if len(key) >= 4 else planned,
        "wrong value tag": planned[: -len(pack_value(key))] + pack_value(key)[:3] + b"\x63"
        + pack_value(key)[4:],
        "length past the end": planned[: -len(pack_value(key)) + 4] + b"\x00\x00\xff\xff",
        "empty": b"",
    }


class TestFallback:
    """Whatever is not exactly a planned request gets the old answer."""

    @pytest.mark.parametrize("key", ["component/svc3", "", "clé", "absent", "abcde"])
    def test_serve_answers_every_variant_as_the_decoder_would(self, node, key):
        for name, payload in _variants(key).items():
            message = TransportMessage(_CT, payload)
            got = outcome(lambda: node._serve(message).payload)
            want = outcome(lambda: reference_serve(node, payload))
            assert got == want, name

    def test_malformed_requests_raise_the_typed_error(self, node):
        planned = pack_value({"kind": "get", "key": "component/svc3"})
        for payload in (planned[:-1], planned + b"\x00\x00\x00\x00", b""):
            with pytest.raises(EncodingError):
                node._serve(TransportMessage(_CT, payload))

    def test_payload_may_be_a_view(self, node):
        payload = memoryview(bytearray(_get_request("component/svc3").payload))
        reply = node._serve(TransportMessage(_CT, payload))
        assert unpack_value(reply.payload)["entry"]["value"] == RECORD

    def test_nonzero_padding_reads_as_it_always_did(self, node):
        planned = bytearray(pack_value({"kind": "get", "key": "clé"}))  # 4 bytes + 0 pad
        padded = bytearray(pack_value({"kind": "get", "key": "abcde"}))
        padded[-1] = 0x7F
        for payload in (bytes(planned), bytes(padded)):
            message = TransportMessage(_CT, payload)
            assert node._serve(message).payload == reference_serve(node, payload)

    def test_a_full_entry_reply_that_is_not_planned_still_decodes(self):
        # _remote_get compares only against the constant miss; anything else
        # goes through unpack_value, whatever the order of its fields
        protocol = DecentralizedState(lan(2), ["node0", "node1"])
        entry = protocol.update("node1", "k", RECORD)
        odd = pack_value({"note": "x", "entry": dict(reversed(entry.to_wire().items()))})
        protocol.network.host("node1").unbind("dvm-state")
        protocol.network.host("node1").bind(
            "dvm-state", lambda message: TransportMessage(_CT, odd)
        )
        assert protocol._remote_get("node0", "node1", _get_request("k")) == entry


class TestEntryRoundTrips:
    """An entry compares equal to the original after every path it travels."""

    def test_push(self):
        protocol = FullSynchronyState(lan(3), ["node0", "node1", "node2"])
        entry = protocol.update("node0", "component/svc3", RECORD)
        for name in ("node1", "node2"):
            assert protocol.nodes[name].get("component/svc3") == entry

    def test_push_packs_the_entry_once_for_all_members(self, monkeypatch):
        import repro.dvm.state as state

        packed = []
        real = state.pack_value
        monkeypatch.setattr(
            state, "pack_value", lambda value: packed.append(value) or real(value)
        )
        protocol = FullSynchronyState(lan(8), [f"node{i}" for i in range(8)])
        entry = protocol.update("node0", "k", RECORD)
        assert packed == [entry.to_wire()]

    def test_remote_get(self):
        protocol = DecentralizedState(lan(2), ["node0", "node1"])
        entry = protocol.update("node1", "component/svc3", RECORD)
        request = _get_request("component/svc3")
        assert protocol._remote_get("node0", "node1", request) == entry
        assert protocol._remote_get("node0", "node1", _get_request("absent")) is None
        assert protocol.get("node0", "component/svc3") == RECORD

    def test_gossip_deltas_and_pull_on_miss(self):
        names = [f"node{i}" for i in range(4)]
        protocol = GossipState(lan(4), names, fanout=3, seed=2)
        entry = protocol.update("node0", "component/svc3", RECORD)
        assert protocol.get("node3", "component/svc3") == RECORD  # read repair
        assert protocol.nodes["node3"].get("component/svc3") == entry
        protocol.run_until_converged()
        for name in names:
            assert protocol.nodes[name].get("component/svc3") == entry

    def test_pull_state(self):
        net = lan(3)
        protocol = FullSynchronyState(net, ["node0", "node1"])
        first = protocol.update("node0", "component/svc3", RECORD)
        second = protocol.update("node1", "clé", None)
        protocol.add_member("node2")
        assert protocol.nodes["node2"].snapshot() == {
            "component/svc3": first,
            "clé": second,
        }


#: (messages, bytes) on the fabric after set-up and after the 200 steps,
#: measured at the commit before the message plans; a plan that changed the
#: wire would change these
FABRIC_TOTALS = {
    "full-synchrony": ((750, 577320), (1950, 1928880)),
    "decentralized": ((0, 0), (4800, 523712)),
    "neighborhood": ((266, 165668), (3516, 1882984)),
    "gossip": ((1828, 914176), (5968, 3110724)),
}


@pytest.mark.parametrize("scheme", sorted(FABRIC_TOTALS))
def test_fabric_totals_are_pinned(scheme):
    """16 hosts, 16 components, 200 steps of 80 % lookup and 20 % publish."""
    hosts_n, steps, seed = 16, 200, 5
    reset_ids()  # instance ids sit in every record, and their width is bytes
    network = lan(hosts_n, seed=seed)
    hosts = [f"node{i}" for i in range(hosts_n)]
    with HarnessDvm(
        f"pin-{scheme}", network, coherency=scheme, neighborhood_radius=2,
        gossip_seed=seed, lookup_cache_ttl_s=0,
    ) as dvm:
        dvm.add_nodes(*hosts)
        for i, host in enumerate(hosts):
            dvm.deploy(host, CounterService, name=f"svc{i}")
        after_setup = (network.total_messages, network.total_bytes)
        rng = np.random.default_rng(seed)
        writes = rng.permutation(np.arange(steps) < steps // 5).tolist()
        nodes = rng.integers(0, hosts_n, size=steps).tolist()
        services = rng.integers(0, hosts_n, size=steps).tolist()
        for write, node, service in zip(writes, nodes, services):
            if write:
                dvm.dvm.publish(hosts[service], f"svc{service}")
            else:
                owner, document = dvm.lookup(hosts[node], f"svc{service}")
                assert (owner, document.name) == (hosts[service], f"svc{service}")
        after_steps = (network.total_messages, network.total_bytes)
    assert (after_setup, after_steps) == FABRIC_TOTALS[scheme]

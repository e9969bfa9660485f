"""The state plane's messages: same bytes, same answers, same counts.

``dvm/state.py`` builds its ``update`` request and entry reply from heads
packed once and entry fragments packed once, and keeps each distinct message
once in a bounded, content-keyed table: a payload decoded once for every
peer that receives it, a ``get`` request built once per key.  These tests
hold that to the wire format it replaced: every planned message equals
``pack_value`` of the dict it stands for, every request, planned or not, is
answered as the generic decoder answers it, an entry survives every path it
travels, the fabric's message and byte totals for a seeded script are the
literal numbers measured before any of it existed, and any script of
publishes, lookups, evictions and joins (lossy and duplicating links
included) leaves every store, answer and fabric total as a run with nothing
shared leaves them.
"""

import gc
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dvm.state as state
from repro.core.builder import HarnessDvm
from repro.dvm.gossip import GossipState
from repro.dvm.state import (
    _CT,
    _ENTRY_HEAD,
    _MISS_REPLY,
    _OK_REPLY,
    _TABLE,
    _TABLE_CAP,
    _TABLE_MAX_PAYLOAD,
    _UPDATE_HEAD,
    DecentralizedState,
    FullSynchronyState,
    NeighborhoodState,
    StateEntry,
    _get_request,
    _MessageTable,
)
from repro.encoding.xdr import pack_value, unpack_value
from repro.netsim import lan
from repro.netsim.fabric import MessageDroppedError
from repro.obs import metrics
from repro.plugins.services import CounterService, WSTime
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


# -- the message table --------------------------------------------------------

SCHEMES = {
    "full-synchrony": FullSynchronyState,
    "decentralized": DecentralizedState,
    "neighborhood": partial(NeighborhoodState, radius=1),
    "gossip": partial(GossipState, fanout=2, seed=3),
}


@pytest.fixture
def fresh_table():
    """The process-wide table, emptied: counts below start from nothing."""
    _TABLE._entries.clear()
    return _TABLE


@contextmanager
def without_table():
    """The state plane as it is with nothing shared: every decode, every build."""
    with mock.patch.object(
        _MessageTable, "decode", lambda self, payload: unpack_value(payload)
    ), mock.patch.object(
        _MessageTable, "build", lambda self, name, make, *args: make(*args)
    ):
        yield


@contextmanager
def counted_unpacks():
    """Every ``unpack_value`` the state plane runs, gossip's included."""
    calls = []
    real = state.unpack_value
    with mock.patch.object(
        state, "unpack_value", lambda payload: calls.append(len(payload)) or real(payload)
    ):
        yield calls


def same(a, b) -> bool:
    """Equality of two decoded values, ndarrays compared by type and content."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)
    elif isinstance(value, list):
        for item in value:
            yield from arrays_in(item)


def assert_table_intact():
    """Every retained entry is still what its key says; no array is writeable."""
    for key, held in list(_TABLE._entries.items()):
        if type(key) is bytes:
            assert len(key) <= _TABLE_MAX_PAYLOAD
            assert same(held, unpack_value(key)), key
            assert not any(a.flags.writeable for a in arrays_in(held))
    assert len(_TABLE._entries) <= _TABLE_CAP


class TestMessageTable:
    def test_the_table_declares_itself(self, fresh_table):
        protocol = DecentralizedState(lan(3), ["node0", "node1", "node2"])
        protocol.update("node1", "k", RECORD)
        assert protocol.get("node0", "k") == RECORD
        assert protocol.get("node2", "k") == RECORD
        seen = metrics.registry.snapshot("dvm.state.")
        assert set(seen) == {
            "dvm.state.decodes", "dvm.state.decode_shared",
            "dvm.state.builds", "dvm.state.build_shared",
            "dvm.state.table_entries", "dvm.state.table_cap",
        }
        # one get request built and decoded, one entry reply decoded; the
        # second read and the second peer are served from the table
        assert seen["dvm.state.builds"]["value"] == 1
        assert seen["dvm.state.build_shared"]["value"] == 1
        assert seen["dvm.state.decodes"]["value"] == 2
        assert seen["dvm.state.decode_shared"]["value"] == 4
        assert seen["dvm.state.table_entries"]["value"] == len(_TABLE._entries) == 3
        assert seen["dvm.state.table_cap"]["value"] == _TABLE_CAP

    def test_it_stays_at_its_cap(self, fresh_table):
        for i in range(2 * _TABLE_CAP):
            assert _TABLE.decode(pack_value(i)) == i
        assert len(_TABLE._entries) == _TABLE_CAP
        assert metrics.registry.gauge("dvm.state.table_entries").value() == _TABLE_CAP
        # the oldest went: the newest half is what is held
        assert pack_value(2 * _TABLE_CAP - 1) in _TABLE._entries
        assert pack_value(0) not in _TABLE._entries

    def test_an_oversize_payload_is_decoded_but_not_retained(self, fresh_table):
        names = [f"node{i}" for i in range(16)]
        protocol = FullSynchronyState(lan(16), names)
        for i, name in enumerate(names):
            protocol.update(name, f"component/svc{i}", RECORD)
        dump = protocol.nodes["node0"]._serve(
            TransportMessage(_CT, pack_value({"kind": "snapshot", "prefix": ""}))
        ).payload
        big = pack_value("x" * (1 << 20))
        assert len(dump) > _TABLE_MAX_PAYLOAD and len(big) > 1 << 20
        held = dict(_TABLE._entries)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for payload in (dump, big):
                value = _TABLE.decode(payload)
                assert same(value, unpack_value(payload))
                del value
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024, grown
        assert _TABLE._entries == held
        # and by the road a real dump travels: a newcomer's state transfer
        protocol.network.add_host("node16")
        protocol.add_member("node16")
        assert len(protocol.nodes["node16"].store) == 16
        assert_table_intact()

    def test_views_and_failures_leave_nothing_behind(self, fresh_table):
        payload = pack_value({"kind": "get", "key": "k"})
        assert _TABLE.decode(memoryview(payload)) == {"kind": "get", "key": "k"}
        with pytest.raises(EncodingError):
            _TABLE.decode(payload[:-1])
        assert not _TABLE._entries

    def test_threads_sharing_the_table_get_right_answers_and_a_bounded_table(
        self, fresh_table
    ):
        # more distinct payloads than slots, so inserts, evictions and hits race
        payloads = [pack_value({"kind": "get", "key": f"k{i}"}) for i in range(_TABLE_CAP + 64)]
        stop = time.monotonic() + 0.5
        wrong: list = []

        def worker(offset: int) -> None:
            try:
                i = offset
                while time.monotonic() < stop:
                    i = (i * 7 + 1) % len(payloads)
                    if _TABLE.decode(payloads[i]) != {"kind": "get", "key": f"k{i}"}:
                        wrong.append(i)
                    if _get_request(f"k{i}").payload != payloads[i]:
                        wrong.append(-i)
            except Exception as exc:  # a raced dict would raise here
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(_TABLE._entries) <= _TABLE_CAP
        assert_table_intact()

    def test_unpack_runs_once_for_a_sixteen_member_update(self, fresh_table):
        names = [f"node{i}" for i in range(16)]
        protocol = FullSynchronyState(lan(16), names)
        with counted_unpacks() as calls:
            entry = protocol.update("node0", "component/svc3", RECORD)
        assert len(calls) == 1
        for name in names:
            assert protocol.nodes[name].get("component/svc3") == entry


# -- integrity: any script, with the table and without ------------------------

HOSTS = 8
script_values = st.one_of(
    st.just(RECORD),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),  # decodes to an ndarray
    st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=3),
    values,
)
script_ops = st.one_of(
    st.tuples(st.just("publish"), st.integers(0, HOSTS - 1), st.integers(0, 3), script_values),
    st.tuples(st.just("lookup"), st.integers(0, HOSTS - 1), st.integers(0, 3)),
    st.tuples(st.just("evict"), st.integers(0, HOSTS - 1)),
    st.tuples(st.just("add"), st.integers(0, HOSTS - 1)),
)


def run_script(scheme: str, script, *, faults: dict | None = None, send_retries: int = 0):
    """Answers, final stores and fabric totals of *script* on a fresh protocol.

    A node index is taken modulo the members at that moment; ``evict`` keeps
    two members, ``add`` enrols the first host outside.  An error is an
    answer too.
    """
    network = lan(HOSTS, seed=7)
    if faults:
        network.set_default_faults(**faults)
    protocol = SCHEMES[scheme](
        network, [f"node{i}" for i in range(5)], send_retries=send_retries
    )
    answers = []
    for op, *args in script:
        members = protocol.members
        try:
            if op == "publish":
                protocol.update(members[args[0] % len(members)], f"key{args[1]}", args[2])
                if scheme == "gossip":
                    protocol.quiesce()
            elif op == "lookup":
                answers.append(protocol.get(members[args[0] % len(members)], f"key{args[1]}"))
            elif op == "evict" and len(members) > 2:
                protocol.remove_member(members[args[0] % len(members)])
            elif op == "add":
                outside = [h.name for h in network.hosts() if h.name not in members]
                if outside:
                    protocol.add_member(outside[args[0] % len(outside)])
        except (CoherencyError, MessageDroppedError) as exc:
            answers.append((type(exc), str(exc)))
    stores = {
        name: {k: (e.value, e.lamport, e.origin) for k, e in node.store.items()}
        for name, node in protocol.nodes.items()
    }
    return answers, stores, (network.total_messages, network.total_bytes)


def assert_same_run(shared, plain):
    assert shared[2] == plain[2]  # messages and bytes on the fabric
    assert len(shared[0]) == len(plain[0]) and all(map(same_answer, shared[0], plain[0]))
    assert shared[1].keys() == plain[1].keys()
    for name, store in shared[1].items():
        other = plain[1][name]
        assert store.keys() == other.keys(), name
        for key, (value, lamport, origin) in store.items():
            assert (lamport, origin) == other[key][1:], (name, key)
            assert same_answer(value, other[key][0]), (name, key)


def same_answer(a, b) -> bool:
    # the writer's own replica holds the value as written (a list stays a
    # list there, a tuple a tuple); everyone else holds it as decoded
    return same(a, b) or (not isinstance(a, (np.ndarray, dict, list)) and a == b)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@given(script=st.lists(script_ops, max_size=24))
@settings(deadline=None)
def test_any_script_leaves_the_table_intact_and_the_stores_as_without_it(scheme, script):
    _TABLE._entries.clear()
    shared = run_script(scheme, script)
    assert_table_intact()
    with without_table():
        plain = run_script(scheme, script)
    assert_same_run(shared, plain)


SCRIPT = [
    ("publish", 0, 0, RECORD), ("lookup", 3, 0), ("publish", 1, 1, [1, 2, 3]),
    ("lookup", 4, 1), ("lookup", 2, 0), ("publish", 0, 0, {"again": True}),
    ("evict", 1), ("lookup", 0, 0), ("add", 0), ("lookup", 4, 1), ("lookup", 4, 0),
    ("publish", 2, 2, None), ("lookup", 1, 2), ("publish", 3, 0, RECORD), ("lookup", 0, 0),
]


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize(
    "faults, send_retries",
    [
        ({"duplicate_rate": 1.0}, 0),  # every request delivered twice
        ({"duplicate_rate": 0.3}, 0),
        ({"drop_rate": 0.2}, 4),  # lost either way, resent
        ({"drop_rate": 0.3}, 0),  # lost and surfaced
        ({"drop_rate": 0.15, "duplicate_rate": 0.25}, 2),
    ],
)
def test_duplicated_dropped_and_retried_messages_answer_as_without_the_table(
    scheme, faults, send_retries, fresh_table
):
    shared = run_script(scheme, SCRIPT, faults=faults, send_retries=send_retries)
    assert_table_intact()
    with without_table():
        plain = run_script(scheme, SCRIPT, faults=faults, send_retries=send_retries)
    assert_same_run(shared, plain)
    # a shared answer does not make a lost one appear: something was lost
    if faults.get("drop_rate") and not send_retries and scheme != "gossip":
        assert shared[2][0] > 0


@pytest.mark.parametrize("scheme", sorted(FABRIC_TOTALS))
def test_a_redeploy_under_the_same_name_is_seen_everywhere(scheme, fresh_table):
    network = lan(6, seed=2)
    hosts = [f"node{i}" for i in range(6)]
    with HarnessDvm(
        f"again-{scheme}", network, coherency=scheme, neighborhood_radius=2,
        gossip_seed=2, lookup_cache_ttl_s=0,
    ) as dvm:
        dvm.add_nodes(*hosts)
        dvm.deploy("node1", CounterService, name="svc")
        first = {host: dvm.lookup(host, "svc") for host in hosts}
        assert {owner for owner, _ in first.values()} == {"node1"}
        dvm.dvm.undeploy("node1", "svc")
        dvm.deploy("node4", WSTime, name="svc")
        for host in hosts:
            owner, document = dvm.lookup(host, "svc")
            assert owner == "node4"
            assert document != first[host][1]
            assert document == dvm.dvm.node("node4").container.component_named("svc").document
        assert_table_intact()

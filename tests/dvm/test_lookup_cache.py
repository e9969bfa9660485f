"""The DVM's TTL'd registry-lookup cache and its invalidation rules."""

import pytest

import repro.dvm.machine as machine_module
from repro.core.builder import HarnessDvm
from repro.dvm.machine import DistributedVirtualMachine
from repro.dvm.state import FullSynchronyState
from repro.netsim import lan
from repro.plugins.services import CounterService, MatMul
from repro.tools.wsdlgen import generate_wsdl
from repro.util.errors import ServiceNotFoundError
from repro.wsdl.io import document_to_string


@pytest.fixture
def dvm():
    net = lan(4)
    with DistributedVirtualMachine("cachedvm", net, FullSynchronyState) as machine:
        for i in range(3):
            machine.add_node(f"node{i}")
        yield machine


class TestLookupCache:
    def test_repeat_lookup_hits_cache(self, dvm):
        dvm.deploy("node0", MatMul)
        first = dvm.lookup("node1", "MatMul")
        second = dvm.lookup("node1", "MatMul")
        assert first == second
        assert dvm._lookup_cache.hits >= 1
        # cached WSDL is the very same parsed document — no re-parse per call
        assert first[1] is second[1]

    def test_miss_never_cached(self, dvm):
        """Staged publication: a lookup miss must not mask a later deploy."""
        with pytest.raises(ServiceNotFoundError):
            dvm.lookup("node1", "MatMul")
        dvm.deploy("node0", MatMul)
        assert dvm.lookup("node1", "MatMul")[0] == "node0"

    def test_undeploy_invalidates(self, dvm):
        dvm.deploy("node0", MatMul)
        dvm.lookup("node1", "MatMul")  # primes the cache
        dvm.undeploy("node0", "MatMul")
        with pytest.raises(ServiceNotFoundError):
            dvm.lookup("node1", "MatMul")

    def test_membership_event_invalidates(self, dvm):
        dvm.deploy("node0", MatMul)
        dvm.lookup("node1", "MatMul")
        assert len(dvm._lookup_cache) == 1
        dvm.add_node("node3")  # publishes dvm.member.joined
        assert len(dvm._lookup_cache) == 0

    def test_redeploy_elsewhere_visible_immediately(self, dvm):
        """Failover shape: undeploy on one node, deploy on another."""
        dvm.deploy("node0", CounterService)
        assert dvm.lookup("node2", "CounterService")[0] == "node0"
        dvm.undeploy("node0", "CounterService")
        dvm.deploy("node1", CounterService)
        assert dvm.lookup("node2", "CounterService")[0] == "node1"

    def test_ttl_zero_disables(self):
        net = lan(2)
        with DistributedVirtualMachine(
            "nocache", net, FullSynchronyState, lookup_cache_ttl_s=0
        ) as machine:
            machine.add_node("node0")
            machine.add_node("node1")
            machine.deploy("node0", MatMul)
            machine.lookup("node1", "MatMul")
            machine.lookup("node1", "MatMul")
            assert machine._lookup_cache.hits == 0
            assert len(machine._lookup_cache) == 0

    def test_ttl_expiry_refreshes(self, dvm):
        dvm.deploy("node0", MatMul)
        dvm.lookup("node1", "MatMul")
        # reach inside: force the clock past the TTL
        cache = dvm._lookup_cache
        with cache._lock:
            cache._entries = {
                k: (expires - 10_000.0, v) for k, (expires, v) in cache._entries.items()
            }
        assert dvm.lookup("node1", "MatMul")[0] == "node0"  # refetched, not stale


SCHEMES = ("full-synchrony", "decentralized", "neighborhood", "gossip")


@pytest.fixture
def parse_memo():
    """The content-keyed memo under ``lookup``, emptied for the test."""
    machine_module._parse_wsdl.cache_clear()
    yield machine_module._parse_wsdl
    machine_module._parse_wsdl.cache_clear()


def uncached_dvm(scheme: str, hosts: int = 4) -> HarnessDvm:
    """A DVM whose TTL cache is off, so every lookup reaches the parse memo."""
    harness = HarnessDvm(
        f"memo-{scheme}", lan(hosts), coherency=scheme, lookup_cache_ttl_s=0
    )
    harness.add_nodes(*(f"node{i}" for i in range(hosts)))
    return harness


def operations(document) -> set[str]:
    return {op.name for op in document.port_types[0].operations}


class TestParseMemo:
    """Parsed WSDL is memoised by its text: shared, bounded, never stale."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_redeploy_under_the_same_name_is_seen_at_once(self, scheme, parse_memo):
        with uncached_dvm(scheme) as harness:
            harness.deploy("node0", CounterService, name="svc")
            for _ in range(2):  # the second lookup is served from the memo
                owner, document = harness.lookup("node2", "svc")
                assert owner == "node0"
                assert "multiply" not in operations(document)
            harness.undeploy("node0", "svc")
            if scheme == "gossip":
                # an undeploy announces nothing, so the epidemic carries it
                harness.dvm.protocol.quiesce()
            with pytest.raises(ServiceNotFoundError):
                harness.lookup("node2", "svc")
            harness.deploy("node1", MatMul, name="svc")
            owner, document = harness.lookup("node2", "svc")
            assert owner == "node1"
            assert "multiply" in operations(document)  # the new class's port type
            assert harness.dvm._lookup_cache.hits == 0  # TTL cache stayed off

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_nodes_share_one_parsed_document(self, scheme, parse_memo):
        with uncached_dvm(scheme) as harness:
            harness.deploy("node0", MatMul)
            documents = [harness.lookup(f"node{i}", "MatMul")[1] for i in range(4)]
            assert all(document is documents[0] for document in documents)
            assert parse_memo.cache_info().misses == 1

    def test_parses_are_counted(self, parse_memo):
        parses = machine_module._LOOKUP_PARSES
        with uncached_dvm("full-synchrony") as harness:
            harness.deploy("node0", MatMul)
            before = parses.value()
            for _ in range(3):
                harness.lookup("node1", "MatMul")
            assert parses.value() == before + 1

    def test_memo_stays_within_its_bound(self, parse_memo):
        size = machine_module._PARSE_MEMO_SIZE
        for i in range(size + 8):
            text = document_to_string(
                generate_wsdl(CounterService, service_name=f"svc{i}"), indent=False
            )
            assert parse_memo(text).name == f"svc{i}"
        info = parse_memo.cache_info()
        assert info.maxsize == size
        assert info.currsize == size

    def test_a_miss_parses_nothing_and_is_not_remembered(self, parse_memo):
        with uncached_dvm("decentralized") as harness:
            with pytest.raises(ServiceNotFoundError):
                harness.lookup("node1", "MatMul")
            assert parse_memo.cache_info().currsize == 0
            harness.deploy("node0", MatMul)  # staged publication: visible at once
            assert harness.lookup("node1", "MatMul")[0] == "node0"

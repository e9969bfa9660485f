"""The lookup plane's wire: same answers, same message and byte totals.

Each scheme runs one fixed script on a seeded fabric: registrations from
spread-out hosts, expression discoveries that hit one name, every name and
no name, one host crash, more of the same after it, and, on the sharded
registry, by-name lookups and a fresh host joining the ring.  The answers
(names in the order they came back, or the typed fault) and the fabric's
message and byte totals are literals measured before the schemes shared
one lookup loop; a change that reorders the peers a scheme asks, or sends
one message more or less, changes them.
"""

import pytest

from repro.netsim import lan
from repro.plugins.services import MatMul, WSTime
from repro.registry.distributed import (
    CentralizedLookup,
    DecentralizedLookup,
    NeighborhoodLookup,
)
from repro.registry.sharded import ShardedRegistry
from repro.tools.wsdlgen import generate_wsdl
from repro.util.errors import HarnessError

HOSTS = 16
SERVICES = 10
CRASHED = "node5"


def make(scheme: str, network):
    if scheme == "centralized":
        return CentralizedLookup(network, "node0")
    if scheme == "decentralized":
        return DecentralizedLookup(network)
    if scheme == "neighborhood":
        return NeighborhoodLookup(network, replication=2)
    return ShardedRegistry(network, replication=2)


def doc(i: int):
    cls = MatMul if i % 2 == 0 else WSTime
    return generate_wsdl(cls, service_name=f"s{i}", bindings=("soap",))


def queries(i: int) -> str:
    return (
        "//portType",
        f"//portType[@name='s{i % SERVICES}PortType']",
        "//portType[@name='nothingPortType']",
    )[i % 3]


def run(scheme: str):
    """The script's answers and ``(total_messages, total_bytes)``."""
    network = lan(HOSTS, seed=3)
    lookup = make(scheme, network)
    answers: list = []

    def ask(call, *args):
        try:
            result = call(*args)
        except HarnessError as exc:
            answers.append(type(exc).__name__)
            return
        if isinstance(result, list):
            answers.append(" ".join(d.name for d in result))
        elif result is None or isinstance(result, int):
            answers.append(result)
        else:
            answers.append(result.name)

    def discoveries(offset: int) -> None:
        for i in range(6):
            ask(lookup.discover, f"node{(offset + i * 7) % HOSTS}", queries(offset + i))

    for i in range(SERVICES):
        lookup.register(f"node{(i * 5 + 1) % HOSTS}", doc(i))
    discoveries(0)
    network.host(CRASHED).crash()
    discoveries(1)
    ask(lookup.register, "node9", doc(SERVICES))
    discoveries(2)
    if scheme == "sharded":
        for i in range(SERVICES + 1):
            ask(lookup.lookup_name, f"node{(i * 3) % HOSTS}", f"s{i}")
        network.add_host("joiner")
        ask(lookup.add_host, "joiner")
        for i in range(SERVICES + 1):
            ask(lookup.lookup_name, "joiner", f"s{i}")
        ask(lookup.discover, "joiner", "//portType")
    return answers, (network.total_messages, network.total_bytes)


#: measured before the schemes shared one lookup loop and one lookup node
PINNED = {
    "centralized": (
        ["s0 s1 s2 s3 s4 s5 s6 s7 s8 s9", "s1", "", "s0 s1 s2 s3 s4 s5 s6 s7 s8 s9",
         "s4", "", "s1", "", "s0 s1 s2 s3 s4 s5 s6 s7 s8 s9", "s4", "",
         "s0 s1 s2 s3 s4 s5 s6 s7 s8 s9", None, "", "s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10",
         "s4", "", "s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10", "s7"],
        (58, 126451),
    ),
    "decentralized": (
        ["s3 s0 s7 s4 s1 s8 s5 s2 s9 s6", "s1", "", "s4 s3 s0 s7 s1 s8 s5 s2 s9 s6",
         "s4", "", "s1", "", "s6 s3 s0 s7 s1 s8 s5 s2 s9", "", "",
         "s7 s3 s0 s1 s8 s5 s2 s9 s6", None, "", "s8 s10 s3 s0 s7 s1 s5 s2 s9 s6", "",
         "", "s9 s3 s0 s7 s1 s8 s10 s5 s2 s6", "s7"],
        (529, 93634),
    ),
    "neighborhood": (
        ["s3 s8 s0 s5", "s1", "", "s4 s7 s1", "s4", "", "s1", "", "s6 s9", "s4", "",
         "s7 s1 s4", None, "", "s8 s10 s3 s0", "s4", "", "s9 s6", "s7"],
        (343, 102400),
    ),
    "sharded": (
        ["s1 s5 s6 s2 s3 s7 s9 s8 s4 s0", "s1", "", "s7 s8 s1 s5 s6 s2 s3 s9 s4 s0",
         "s4", "", "s1", "", "s4 s1 s5 s6 s2 s3 s7 s9 s0 s8", "s4", "",
         "s5 s9 s1 s6 s2 s3 s7 s4 s0 s8", None, "", "s0 s2 s10 s1 s5 s6 s3 s7 s9 s4 s8",
         "s4", "", "s1 s5 s6 s10 s2 s3 s7 s9 s4 s0 s8", "s7", "s0", "s1", "s2", "s3",
         "s4", "s5", "s6", "s7", "s8", "s9", "s10", 1, "s0", "s1", "s2", "s3", "s4",
         "s5", "s6", "s7", "s8", "s9", "s10", "s5 s1 s6 s10 s2 s3 s7 s9 s4 s0 s8"],
        (648, 292624),
    ),
}


@pytest.mark.parametrize("scheme", sorted(PINNED))
def test_answers_and_fabric_totals_are_pinned(scheme):
    assert run(scheme) == PINNED[scheme]


#: C5's table: (register, discover) messages at 4 and 16 nodes
C5_COSTS = {
    ("centralized", 4): (2, 2),
    ("centralized", 16): (2, 2),
    ("decentralized", 4): (0, 6),
    ("decentralized", 16): (0, 30),
    ("neighborhood", 4): (4, 4),
    ("neighborhood", 16): (4, 30),
}


def test_c5_cost_spectrum_is_pinned():
    costs = {}
    for n_nodes in (4, 16):
        for name in ("centralized", "decentralized", "neighborhood"):
            network = lan(n_nodes)
            lookup = make(name, network)
            network.reset_stats()
            lookup.register(
                "node1", generate_wsdl(MatMul, service_name=f"M-{name}", bindings=("soap",))
            )
            register = network.total_messages
            network.reset_stats()
            lookup.discover(f"node{n_nodes - 1}", f"//portType[@name='M-{name}PortType']")
            costs[(name, n_nodes)] = (register, network.total_messages)
    assert costs == C5_COSTS

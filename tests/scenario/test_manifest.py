"""Manifest parsing: strict schema, typed failures, seeded copies."""

import pytest

from repro.scenario.manifest import (
    ScenarioManifest,
    load_manifest,
    parse_manifest,
)
from repro.util.errors import ScenarioError


def minimal(**overrides) -> dict:
    data = {
        "name": "t",
        "seed": 3,
        "duration_s": 2.0,
        "tick_s": 0.5,
        "topology": {"kind": "lan", "hosts": 3},
        "services": [
            {
                "name": "counter",
                "type": "repro.plugins.services:CounterService",
                "node": "node0",
            }
        ],
        "workload": {
            "service": "counter",
            "from_nodes": ["node1"],
            "ops": [{"op": "increment", "args": [1]}],
        },
        "faults": [{"at": 1.0, "action": "kill", "node": "node2"}],
        "checks": [{"check": "no_lost_calls"}],
    }
    data.update(overrides)
    return data


def workload(**overrides) -> dict:
    """``minimal()`` with its workload's keys overridden."""
    return minimal(workload={**minimal()["workload"], **overrides})


def mailbox(**overrides) -> dict:
    """A mailbox-mode manifest with its workload's keys overridden."""
    return workload(
        mode="mailbox", broker_node="node0", consumers=["node2"], **overrides
    )


def topology(**keys) -> dict:
    return minimal(topology=keys)


def service(**keys) -> dict:
    return minimal(services=[{**minimal()["services"][0], **keys}])


#: one case per load-time check in manifest.py, with its message: (id, manifest
#: mapping or raw JSON file text, message pattern)
LOAD_ERRORS = [
    ("section-not-mapping", minimal(topology=[1]), "topology must be a mapping, got list"),
    ("unknown-key", minimal(surprise=True), r"manifest: unknown keys \['surprise'\]"),
    (
        "missing-key",
        minimal(services=[{"name": "c", "type": "a:B"}]),
        r"service: missing required keys \['node'\]",
    ),
    ("topology-kind", topology(kind="torus"), "topology: unknown kind 'torus'"),
    (
        "per-cluster",
        topology(kind="two_clusters", per_cluster=0),
        "topology: per_cluster must be >= 1",
    ),
    ("hosts", topology(hosts=0), "topology: hosts must be >= 1"),
    (
        "degree",
        topology(kind="random_regular", hosts=4, degree=4),
        "topology: need 1 <= degree < hosts",
    ),
    (
        "degree-parity",
        topology(kind="random_regular", hosts=5, degree=3),
        r"topology: hosts\*degree must be even",
    ),
    (
        "coherency",
        minimal(dvm={"coherency": "psychic"}),
        "dvm: unknown coherency scheme 'psychic'",
    ),
    ("fanout", minimal(dvm={"gossip_fanout": 0}), "dvm: gossip_fanout must be >= 1"),
    (
        "service-type",
        service(type="CounterService"),
        "service 'counter': type must be 'pkg.module:Class'",
    ),
    (
        "cadence",
        minimal(self_healing={"heartbeat_every_ticks": 0}),
        "self_healing: cadences must be >= 1 tick",
    ),
    (
        "indirect-probes",
        minimal(self_healing={"indirect_probes": -1}),
        "self_healing: indirect_probes must be >= 0",
    ),
    (
        "sample",
        minimal(self_healing={"sample": 0}),
        r"self_healing: sample must be >= 1 \(or omitted\)",
    ),
    (
        "coalesce",
        minimal(self_healing={"coalesce_after": 0}),
        "self_healing: coalesce_after must be >= 1",
    ),
    (
        "op-weight",
        workload(ops=[{"op": "increment", "weight": 0}]),
        "workload op 'increment': weight must be > 0",
    ),
    ("workload-mode", workload(mode="teleport"), "workload: unknown mode 'teleport'"),
    (
        "replication-mode",
        workload(replication=2),
        "workload: 'replication' needs mode='shard_lookup'",
    ),
    (
        "mailbox-only-key",
        workload(broker_node="node0"),
        "workload: 'broker_node' needs mode='mailbox'",
    ),
    (
        "mailbox-mode",
        mailbox(mailbox={"mode": "psychic"}),
        "workload mailbox: unknown mode 'psychic'",
    ),
    (
        "mailbox-overflow",
        mailbox(mailbox={"overflow": "explode"}),
        "workload mailbox: unknown overflow 'explode'",
    ),
    ("ops", workload(ops=[]), "workload: rpc mode needs at least one op"),
    ("server-mode", workload(server={"workers": 2}), "workload: 'server' knobs need mode='reactor'"),
    ("from-nodes", workload(from_nodes=[]), "workload: from_nodes must not be empty"),
    ("calls-per-tick", workload(calls_per_tick=0), "workload: calls_per_tick must be >= 1"),
    ("concurrency", workload(concurrency=0), "workload: concurrency must be >= 1"),
    (
        "call-timeout",
        workload(call_timeout_s=0),
        "workload: call_timeout_s must be positive",
    ),
    (
        "replication",
        workload(mode="shard_lookup", replication=0),
        "workload: replication must be >= 1",
    ),
    (
        "broker-node",
        workload(mode="mailbox", consumers=["node2"]),
        "workload: mailbox mode needs 'broker_node'",
    ),
    (
        "consumers",
        workload(mode="mailbox", broker_node="node0"),
        "workload: mailbox mode needs 'consumers'",
    ),
    (
        "consume-per-tick",
        mailbox(consume_per_tick=0),
        "workload: consume_per_tick must be >= 1",
    ),
    ("ack-delay", mailbox(ack_delay_ticks=-1), "workload: ack_delay_ticks must be >= 0"),
    (
        "lease",
        mailbox(lease_s=0),
        r"workload: lease_s must be positive \(or null\)",
    ),
    (
        "fault-shape",
        minimal(faults=[{"action": "heal"}]),
        "fault entries need 'at' and 'action'",
    ),
    (
        "fault-action",
        minimal(faults=[{"at": 1.0, "action": "meteor"}]),
        "unknown fault action 'meteor'",
    ),
    (
        "fault-at",
        minimal(faults=[{"at": -1.0, "action": "heal"}]),
        "fault 'heal': 'at' must be >= 0",
    ),
    ("check-shape", minimal(checks=[{"ratio": 0.9}]), "check entries need a 'check' name"),
    ("duration", minimal(duration_s=0), "duration_s and tick_s must be positive"),
    (
        "reactor-wall",
        workload(mode="reactor"),
        "workload mode 'reactor' drives real sockets",
    ),
    ("settle", minimal(settle_ticks=-1), "settle_ticks must be >= 0"),
    (
        "fault-late",
        minimal(faults=[{"at": 99.0, "action": "heal"}]),
        r"fault 'heal' at t=99.0s lands after duration 2.0s",
    ),
    ("check-name", minimal(checks=[{"check": "vibes_good"}]), "unknown check 'vibes_good'"),
    ("json", "{nope", r"m.json: invalid JSON"),
    ("json-not-mapping", "[1, 2]", "m.json: manifest must be a mapping"),
]


class TestEveryLoadCheck:
    """Each load-time check in manifest.py fires, with its message."""

    @pytest.mark.parametrize(
        "data, match", [case[1:] for case in LOAD_ERRORS], ids=[c[0] for c in LOAD_ERRORS]
    )
    def test_rejected_at_load(self, tmp_path, data, match):
        with pytest.raises(ScenarioError, match=match):
            if isinstance(data, str):
                path = tmp_path / "m.json"
                path.write_text(data)
                load_manifest(path)
            else:
                parse_manifest(data)


class TestParsing:
    def test_minimal_manifest_parses(self):
        manifest = parse_manifest(minimal())
        assert isinstance(manifest, ScenarioManifest)
        assert manifest.n_ticks == 4
        assert manifest.services[0].bindings == ("local-instance", "sim")
        assert manifest.faults[0].params == {"node": "node2"}
        assert manifest.checks[0].check == "no_lost_calls"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            parse_manifest(minimal(surprise=True))

    def test_unknown_fault_action_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault action"):
            parse_manifest(
                minimal(faults=[{"at": 1.0, "action": "meteor", "node": "node0"}])
            )

    def test_unknown_check_rejected(self):
        with pytest.raises(ScenarioError, match="unknown check"):
            parse_manifest(minimal(checks=[{"check": "vibes_good"}]))

    def test_fault_after_duration_rejected(self):
        with pytest.raises(ScenarioError, match="lands after"):
            parse_manifest(minimal(faults=[{"at": 99.0, "action": "heal"}]))

    def test_faults_sorted_by_time(self):
        manifest = parse_manifest(
            minimal(
                faults=[
                    {"at": 1.5, "action": "heal"},
                    {"at": 0.5, "action": "kill", "node": "node2"},
                ]
            )
        )
        assert [f.at for f in manifest.faults] == [0.5, 1.5]

    def test_rpc_workload_needs_ops(self):
        workload = {"service": "counter", "from_nodes": ["node1"]}
        with pytest.raises(ScenarioError, match="at least one op"):
            parse_manifest(minimal(workload=workload))

    def test_lookup_mode_needs_no_ops(self):
        workload = {"service": "counter", "from_nodes": ["node1"], "mode": "lookup"}
        manifest = parse_manifest(minimal(workload=workload))
        assert manifest.workload.mode == "lookup"

    def test_policy_jitter_defaults_to_zero(self):
        workload = minimal()["workload"]
        workload["policy"] = {"max_attempts": 3}
        manifest = parse_manifest(minimal(workload=workload))
        assert manifest.workload.policy["jitter"] == 0.0

    def test_unknown_policy_key_rejected(self):
        workload = minimal()["workload"]
        workload["policy"] = {"warp_factor": 9}
        with pytest.raises(ScenarioError, match="unknown keys"):
            parse_manifest(minimal(workload=workload))

    def test_bad_topology_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown kind"):
            parse_manifest(minimal(topology={"kind": "torus"}))

    def test_with_seed_is_a_copy(self):
        manifest = parse_manifest(minimal())
        reseeded = manifest.with_seed(99)
        assert reseeded.seed == 99 and manifest.seed == 3
        assert reseeded.name == manifest.name


class TestLoading:
    def test_load_json_file(self, tmp_path):
        import json

        path = tmp_path / "m.json"
        path.write_text(json.dumps(minimal()))
        assert load_manifest(path).name == "t"

    def test_invalid_json_is_typed(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_manifest(path)

    def test_non_mapping_is_typed(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(ScenarioError, match="must be a mapping"):
            load_manifest(path)


class TestValueTypes:
    """A value that does not convert is a typed error naming its key."""

    @pytest.mark.parametrize(
        "data, match",
        [
            (topology(hosts="three"), "topology: .*'hosts'"),
            (topology(hosts=None), "topology: .*'hosts'"),
            (minimal(seed="x"), "manifest: .*'seed'"),
            (service(type=5), "service"),
            (workload(from_nodes="node1"), "workload: .*'from_nodes'"),
            (service(bindings="sim"), "service: .*'bindings'"),
            (workload(ops=[{"op": "increment", "args": "ab"}]), "workload op: .*'args'"),
            (minimal(faults=[{"at": "soon", "action": "heal"}]), "fault 'heal': .*'at'"),
            (workload(policy={"max_attempts": "x"}), "workload policy: .*'max_attempts'"),
            (workload(policy={"max_attempts": 0}), "workload policy: max_attempts must be >= 1"),
        ],
        ids=[
            "int-text",
            "int-null",
            "seed-text",
            "type-int",
            "array-text",
            "bindings-text",
            "args-text",
            "at-text",
            "policy-text",
            "policy-range",
        ],
    )
    def test_mistyped_value_rejected(self, data, match):
        with pytest.raises(ScenarioError, match=match):
            parse_manifest(data)

    def test_mistyped_reactor_server_knob_rejected(self):
        """A ``server`` knob takes the type of the listener's default for
        it: text for ``workers`` fails at load, not at listener start."""
        data = workload(mode="reactor", server={"workers": "two"})
        data["wall"] = True
        with pytest.raises(ScenarioError, match="workload server: .*'workers'"):
            parse_manifest(data)

    def test_null_keeps_a_none_default(self):
        manifest = parse_manifest(minimal(self_healing={"sample": None}))
        assert manifest.self_healing.sample is None


class TestParameterBinding:
    """Fault and check parameters are bound against their handler's
    signature at load time, not discovered missing mid-run."""

    def test_misspelled_fault_parameter(self):
        with pytest.raises(ScenarioError, match="fault 'kill': .*'nod'"):
            parse_manifest(minimal(faults=[{"at": 1.0, "action": "kill", "nod": "node2"}]))

    def test_misspelled_optional_check_parameter(self):
        checks = [{"check": "typed_faults_only", "alowed": ["HostDownError"]}]
        with pytest.raises(ScenarioError, match="check 'typed_faults_only': .*'alowed'"):
            parse_manifest(minimal(checks=checks))

    def test_missing_required_check_parameter(self):
        with pytest.raises(ScenarioError, match="check 'min_success_rate': .*'ratio'"):
            parse_manifest(minimal(checks=[{"check": "min_success_rate"}]))

    @pytest.mark.parametrize(
        "fault, match",
        [
            ({"action": "partition", "groups": []}, "partition fault needs non-empty 'groups'"),
            ({"action": "partition"}, "fault 'partition': missing required keys"),
            ({"action": "reactor_capacity"}, "reactor_capacity fault needs 'queue_max'"),
        ],
        ids=["partition-empty", "partition-missing", "capacity-no-knob"],
    )
    def test_fault_values_checked_at_load(self, fault, match):
        with pytest.raises(ScenarioError, match=match):
            parse_manifest(minimal(faults=[{"at": 1.0, **fault}]))

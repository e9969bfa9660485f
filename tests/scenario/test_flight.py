"""The scenario runner's flight-dump wiring: fault-triggered dumps,
events.jsonl references, and determinism with/without an output dir."""

from __future__ import annotations

import json

import pytest

from repro.scenario import library
from repro.scenario.manifest import parse_manifest
from repro.scenario.runner import run_scenario

_KILL_MANIFEST = {
    "name": "flight-test",
    "description": "Kill one node; the flight recorder must dump.",
    "claim": "test fixture",
    "seed": 11,
    "duration_s": 4.0,
    "tick_s": 0.5,
    "topology": {"kind": "lan", "hosts": 3},
    "services": [
        {
            "name": "counter",
            "type": "repro.plugins.services:CounterService",
            "node": "node2",
            "restartable": True,
        }
    ],
    "self_healing": {"observer": "node0", "suspect_after": 1, "evict_after": 2},
    "workload": {
        "service": "counter",
        "from_nodes": ["node0"],
        "calls_per_tick": 2,
        "resilient": True,
        "ops": [{"op": "increment", "args": [1], "weight": 1}],
    },
    "faults": [{"at": 1.0, "action": "kill", "node": "node2"}],
    "checks": [{"check": "event_count", "topic": "dvm.member.dead", "min": 1}],
}


def test_node_death_dumps_flight_ring(tmp_path):
    result = run_scenario(parse_manifest(_KILL_MANIFEST), out_dir=tmp_path)
    assert result.passed

    dump = tmp_path / "flight-node2.jsonl"
    assert dump.exists()
    entries = [json.loads(line) for line in dump.read_text().splitlines()]
    assert entries  # non-empty: the ring saw the run leading up to the death
    kinds = {entry["kind"] for entry in entries}
    assert "event" in kinds
    # the trigger event itself made it into the ring before the dump
    topics = [e["data"].get("topic") for e in entries if e["kind"] == "event"]
    assert "dvm.member.dead" in topics

    # events.jsonl references the dump by trigger, subject, and filename
    events = [
        json.loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    dumped = [e for e in events if e["topic"] == "obs.flight.dumped"]
    assert dumped
    payload = dumped[0]["payload"]
    assert payload == {
        "trigger": "dvm.member.dead",
        "node": "node2",
        "file": "flight-node2.jsonl",
    }


def test_dump_announcement_is_deterministic_without_out_dir(tmp_path):
    """Same seed, with and without artifacts on disk: identical event
    streams — the soak harness's determinism check depends on it."""
    manifest = parse_manifest(_KILL_MANIFEST)
    with_dir = run_scenario(manifest, out_dir=tmp_path / "a")
    without_dir = run_scenario(manifest)
    assert with_dir.events_sha256 == without_dir.events_sha256
    assert not list((tmp_path / "a").glob("../b/*"))  # no stray writes


def test_dump_debounced_per_subject(tmp_path):
    """One node death dumps once even though later rounds republish
    nothing new for that subject."""
    run = run_scenario(parse_manifest(_KILL_MANIFEST), out_dir=tmp_path)
    assert run.passed
    events = [
        json.loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    dumped = [e for e in events if e["topic"] == "obs.flight.dumped"]
    assert len(dumped) == len({e["payload"]["node"] for e in dumped})


def test_metric_deltas_ride_the_ring(tmp_path):
    run_scenario(parse_manifest(_KILL_MANIFEST), out_dir=tmp_path)
    entries = [
        json.loads(line)
        for line in (tmp_path / "flight-node2.jsonl").read_text().splitlines()
    ]
    metric_entries = [e for e in entries if e["kind"] == "metrics"]
    assert metric_entries  # per-tick counter deltas were sampled
    assert any("server.requests" in e["data"] for e in metric_entries)


def _deterministic_manifests() -> list[str]:
    return [n for n in library.scenario_names() if not library.load_scenario(n).wall]


@pytest.mark.parametrize("name", _deterministic_manifests())
def test_dump_events_are_the_trail_before_the_announcement(name, tmp_path):
    """A flight dump's event entries are the trail's entries just before
    the ``obs.flight.dumped`` record that names the file: same time,
    topic, source and payload, position by position."""
    from repro.scenario import library

    run_scenario(library.load_scenario(name), out_dir=tmp_path)
    trail = [
        json.loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    # a file dumped twice (two triggers, one subject) holds the later dump
    announced = {
        r["payload"]["file"]: i
        for i, r in enumerate(trail)
        if r["topic"] == "obs.flight.dumped"
    }
    assert sorted(announced) == sorted(p.name for p in tmp_path.glob("flight-*.jsonl"))
    for filename, at in announced.items():
        dumped = [
            json.loads(line)
            for line in (tmp_path / filename).read_text().splitlines()
        ]
        events = [e for e in dumped if e["kind"] == "event"]
        assert 0 < len(events) <= at
        expected = [
            {"t": r["t"], "topic": r["topic"], "source": r["source"], "payload": r["payload"]}
            for r in trail[at - len(events):at]
        ]
        assert [{"t": e["t"], **e["data"]} for e in events] == expected, filename

"""Flight dumps: the tail of a scenario's one record stream, its entry
shape, the dump label, the per-subject debounce and the dump artifact
(DESIGN.md §12)."""

from __future__ import annotations

import json

from repro.scenario.events import EventLog, dump_label
from repro.scenario.manifest import parse_manifest
from repro.scenario.runner import run_scenario
from repro.util.clock import VirtualClock
from repro.util.events import EventBus

#: node2 dies, comes back, and dies again: two deaths of one subject
_TWICE_DEAD = {
    "name": "twice-dead",
    "description": "Kill node2, restart it, kill it again.",
    "claim": "test fixture",
    "seed": 5,
    "duration_s": 8.0,
    "tick_s": 0.5,
    "topology": {"kind": "lan", "hosts": 3},
    "services": [
        {
            "name": "counter",
            "type": "repro.plugins.services:CounterService",
            "node": "node1",
            "restartable": True,
        }
    ],
    "self_healing": {"observer": "node0", "suspect_after": 1, "evict_after": 2},
    "workload": {
        "service": "counter",
        "from_nodes": ["node0"],
        "calls_per_tick": 1,
        "ops": [{"op": "increment", "args": [1], "weight": 1}],
    },
    "faults": [
        {"at": 1.0, "action": "kill", "node": "node2"},
        {"at": 3.0, "action": "restart", "node": "node2"},
        {"at": 5.0, "action": "kill", "node": "node2"},
    ],
    "checks": [{"check": "event_count", "topic": "dvm.member.dead", "min": 2}],
}


class TestDumpLabel:
    def test_strips_instance_tags(self):
        assert dump_label("counter#c-3") == "counter"

    def test_sanitizes_filename_hostiles(self):
        assert dump_label("a/b c:d") == "a-b-c-d"

    def test_empty_falls_back(self):
        assert dump_label("") == "unknown"
        assert dump_label("###") == "unknown"


class TestRing:
    def test_capacity_bounds_the_ring(self):
        """A tail shorter than the log holds its last records, oldest
        first, and leaves the trail whole."""
        log = EventLog(VirtualClock())
        for i in range(10):
            log.record("t", {"i": i})
            log.note("metrics", {"i": i})
        entries = log.tail(4)
        assert [(e["kind"], e["data"].get("payload", e["data"])) for e in entries] == [
            ("event", {"i": 8}), ("metrics", {"i": 8}),
            ("event", {"i": 9}), ("metrics", {"i": 9}),
        ]
        assert len(log.tail(100)) == 20
        assert log.tail(0) == []
        assert len(log) == 10
        assert [r["seq"] for r in log.records()] == list(range(10))

    def test_entry_shape(self):
        clock = VirtualClock()
        clock.advance(1.5)
        log = EventLog(clock)
        log.note("metrics", {"server.requests": 3})
        log.record("dvm.member.dead", {"node": "n1"}, source="dvm")
        assert log.tail(2) == [
            {"t": 1.5, "kind": "metrics", "data": {"server.requests": 3}},
            {
                "t": 1.5,
                "kind": "event",
                "data": {"topic": "dvm.member.dead", "payload": {"node": "n1"}, "source": "dvm"},
            },
        ]
        # notes stay out of the trail and its digest
        assert [r["topic"] for r in log.records()] == ["dvm.member.dead"]
        alone = EventLog(clock)
        alone.record("dvm.member.dead", {"node": "n1"}, source="dvm")
        assert log.sha256() == alone.sha256()


class TestFeeds:
    def test_bus_attach_records_events_until_close(self):
        bus = EventBus()
        log = EventLog(VirtualClock())
        log.attach(bus)
        bus.publish("dvm.member.dead", {"node": "n1"}, source="dvm")
        log.detach()
        bus.publish("dvm.member.dead", {"node": "n2"}, source="dvm")
        entries = log.tail(10)
        assert len(entries) == 1
        assert entries[0]["data"]["topic"] == "dvm.member.dead"
        assert entries[0]["data"]["payload"] == {"node": "n1"}


class TestDump:
    def test_should_dump_debounces_per_key(self, tmp_path):
        """A subject that dies twice is dumped once."""
        result = run_scenario(parse_manifest(_TWICE_DEAD), out_dir=tmp_path)
        assert result.passed
        trail = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        deaths = [r for r in trail if r["topic"] == "dvm.member.dead"]
        assert [r["payload"]["node"] for r in deaths] == ["node2", "node2"]
        dumped = [r["payload"] for r in trail if r["topic"] == "obs.flight.dumped"]
        assert dumped == [
            {"trigger": "dvm.member.dead", "node": "node2", "file": "flight-node2.jsonl"}
        ]

    def test_dump_writes_jsonl(self, tmp_path):
        """One key-sorted JSON object per line, events and metric deltas
        in the order they happened."""
        run_scenario(parse_manifest(_TWICE_DEAD), out_dir=tmp_path)
        lines = (tmp_path / "flight-node2.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        assert lines == [json.dumps(e, sort_keys=True) for e in entries]
        assert {e["kind"] for e in entries} == {"event", "metrics"}
        assert [e["t"] for e in entries] == sorted(e["t"] for e in entries)
        assert entries[-1]["data"]["topic"] == "dvm.member.dead"

    def test_dump_applies_transform(self, tmp_path):
        """The dump is scrubbed: no process-lifetime ids or instance tags."""
        run_scenario(parse_manifest(_TWICE_DEAD), out_dir=tmp_path)
        text = (tmp_path / "flight-node2.jsonl").read_text()
        assert "instance_id" not in text
        assert "#c-" not in text

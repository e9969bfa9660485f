"""The run's one record stream: the ``events.jsonl`` audit trail and its tail.

Every event that crosses the DVM's :class:`~repro.util.events.EventBus`
during a scenario — fault injections (``scenario.fault``), detector
transitions (``dvm.member.suspected``/``dead``/``recovered``), circuit
breaker flips (``invoke.breaker.*``), retries, checkpoint and failover
progress (``recovery.*``), workload tick summaries — lands here as one
JSON line, stamped with the *simulated* time it was delivered at.  The
same stream also holds *notes*, records that are not trail entries (the
runner's per-tick metric deltas); :meth:`EventLog.tail` reads both, and
is what a flight dump writes when something breaks.

Reproducibility contract: re-running the same manifest with the same seed
yields **byte-identical** canonical lines.  Two things make that hold:

* the log carries no wall-clock timestamps at all (wall timing lives in the
  separate ``result.json`` artifact), and
* payloads are *scrubbed* — process-lifetime identifiers (``instance_id``,
  ``trace_id``, ``span_id``) are dropped and non-JSON values are reduced to
  their stable ``name`` attribute or class name, so a handle deployed as
  ``h-17`` in one run and ``h-412`` in the next serializes identically.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from pathlib import Path
from typing import Any

from repro.util.clock import Clock
from repro.util.events import Event, EventBus, Subscription

__all__ = ["EventLog", "dump_label", "scrub"]

#: payload keys whose values are process-lifetime ids, not run facts
_VOLATILE_KEYS = frozenset({"instance_id", "trace_id", "span_id"})

#: instance tags like ``counter#c-17`` embed a process-lifetime counter
#: (:func:`repro.util.ids.new_id`) inside strings — normalize the numeric
#: suffix away so stub targets serialize identically across runs
_ID_TAG = re.compile(r"#([A-Za-z]+)-\d+")

_MAX_DEPTH = 8

_LABEL_RE = re.compile(r"[^a-zA-Z0-9._-]+")


def scrub(value: Any, _depth: int = 0) -> Any:
    """Reduce *value* to deterministic, JSON-serializable form.

    Mappings and sequences recurse (volatile keys dropped, depth-capped);
    strings lose embedded instance-tag counters (``#c-17`` → ``#c``); other
    primitives pass through; anything else collapses to its ``name``
    attribute when that is a string, else its class name — stable across
    runs where a ``repr`` (object addresses, fresh ids) is not.
    """
    if isinstance(value, str):
        return _ID_TAG.sub(r"#\1", value)
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if _depth >= _MAX_DEPTH:
        return "..."
    if isinstance(value, dict):
        return {
            str(k): scrub(v, _depth + 1)
            for k, v in value.items()
            if str(k) not in _VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [scrub(v, _depth + 1) for v in items]
    if isinstance(value, (bytes, bytearray, memoryview)):
        return f"<{len(value)} bytes>"
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return f"<{type(value).__name__} {name}>"
    return f"<{type(value).__name__}>"


def dump_label(text: str) -> str:
    """A filename-safe label for a flight-dump trigger subject.

    Strips per-run volatile instance tags (``counter#c-3`` → ``counter``)
    so the label — which lands in deterministic audit events — is stable
    across same-seed runs.
    """
    base = text.split("#", 1)[0]
    return _LABEL_RE.sub("-", base).strip("-") or "unknown"


class EventLog:
    """Append-only record stream of one scenario run.

    Attach it to a bus with :meth:`attach` (it subscribes to every topic)
    and/or write trail entries directly with :meth:`record`; :meth:`note`
    adds a record of another kind.  The trail view (:meth:`records`,
    :meth:`canonical_lines`, :meth:`sha256`, :meth:`write_jsonl`, ``len``)
    reads trail entries only; its canonical byte form is one compact,
    key-sorted JSON object per line::

        {"payload":...,"seq":12,"source":"dvm","t":4.5,"topic":"dvm.member.dead"}
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        self._lock = threading.Lock()
        # every record in order: trail entries carry a "seq", notes a "kind"
        self._moments: list[dict] = []
        self._n_trail = 0
        self._subscription: Subscription | None = None

    # -- collection ---------------------------------------------------------

    def attach(self, bus: EventBus) -> Subscription:
        """Subscribe to every topic on *bus*; returns the subscription."""
        self._subscription = bus.subscribe("", self._on_event)
        return self._subscription

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    def _on_event(self, event: Event) -> None:
        self.record(event.topic, event.payload, source=event.source)

    def record(self, topic: str, payload: Any = None, source: str = "") -> dict:
        """Append one trail entry, stamped with the current simulated time."""
        with self._lock:
            entry = {
                "seq": self._n_trail,
                "t": round(self._clock.now(), 9),
                "topic": topic,
                "source": scrub(source),
                "payload": scrub(payload),
            }
            self._moments.append(entry)
            self._n_trail += 1
            return entry

    def note(self, kind: str, data: Any) -> None:
        """Append a record of *kind* that is not a trail entry; it shows in
        :meth:`tail` only."""
        with self._lock:
            self._moments.append(
                {"t": round(self._clock.now(), 9), "kind": kind, "data": data}
            )

    # -- reading ------------------------------------------------------------

    def records(self, topic_prefix: str = "") -> list[dict]:
        """All trail entries (optionally only topics under *topic_prefix*)."""
        with self._lock:
            records = [r for r in self._moments if "seq" in r]
        if not topic_prefix:
            return records
        return [
            r
            for r in records
            if r["topic"] == topic_prefix or r["topic"].startswith(topic_prefix + ".")
        ]

    def tail(self, n: int) -> list[dict]:
        """The last *n* records of every kind, oldest first, each as
        ``{"t", "kind", "data"}``: a trail entry is kind ``"event"`` with
        its topic, source and payload as data."""
        with self._lock:
            last = self._moments[-n:] if n > 0 else []
        return [
            r
            if "kind" in r
            else {
                "t": r["t"],
                "kind": "event",
                "data": {"topic": r["topic"], "payload": r["payload"], "source": r["source"]},
            }
            for r in last
        ]

    def __len__(self) -> int:
        with self._lock:
            return self._n_trail

    # -- canonical byte form ------------------------------------------------

    def canonical_lines(self) -> list[bytes]:
        """The trail as compact, key-sorted JSON lines (no trailing \\n)."""
        return [
            json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
            for record in self.records()
        ]

    def sha256(self) -> str:
        """Hex digest over the canonical lines — the reproducibility anchor."""
        digest = hashlib.sha256()
        for line in self.canonical_lines():
            digest.update(line)
            digest.update(b"\n")
        return digest.hexdigest()

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the canonical trail to *path* (creating parent dirs)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"".join(line + b"\n" for line in self.canonical_lines()))
        return path

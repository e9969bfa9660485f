"""Declarative chaos harness for the HARNESS II framework.

A *scenario* is one JSON manifest declaring a complete robustness
experiment: the simulated topology, the services deployed on it, a
workload mix, a timed fault script (kills, partitions, lossy links, slow
consumers, blackholes), and pass criteria expressed as named invariant
checkers.  The runner plays the script tick by tick on a virtual clock,
records every event crossing the DVM bus into a deterministic
``events.jsonl`` audit trail, and evaluates the checks — same manifest,
same seed, byte-identical trail.

Layout:

* :mod:`~repro.scenario.manifest` — the schema and strict parser;
* :mod:`~repro.scenario.faults` — the fault-action vocabulary;
* :mod:`~repro.scenario.checks` — the invariant-checker vocabulary;
* :mod:`~repro.scenario.workload` — the seeded traffic driver;
* :mod:`~repro.scenario.events` — the run's record stream: the scrubbed,
  hashable audit trail and the tail a flight dump writes;
* :mod:`~repro.scenario.runner` — the tick loop and artifacts;
* :mod:`~repro.scenario.library` — the bundled manifests and soak driver.

See DESIGN.md §11 for the architecture and EXPERIMENTS.md for the SCN
table mapping bundled scenarios to the paper's robustness claims.
"""

from repro.scenario.checks import CheckContext, CheckResult, known_checks, run_checks
from repro.scenario.events import EventLog, scrub
from repro.scenario.faults import FAULT_HANDLERS, apply_fault, fault_handler
from repro.scenario.library import (
    MANIFEST_DIR,
    load_scenario,
    manifest_path,
    run_all,
    scenario_names,
    verify_reproducible,
)
from repro.scenario.manifest import (
    CheckSpec,
    DvmSpec,
    FaultAction,
    MailboxSpec,
    OpSpec,
    ScenarioManifest,
    SelfHealingSpec,
    ServiceSpec,
    TopologySpec,
    WorkloadSpec,
    load_manifest,
    parse_manifest,
)
from repro.scenario.runner import ScenarioResult, ScenarioRuntime, run_scenario
from repro.scenario.workload import CallRecord, WorkloadDriver, WorkloadStats

__all__ = [
    "ScenarioManifest",
    "TopologySpec",
    "DvmSpec",
    "ServiceSpec",
    "SelfHealingSpec",
    "OpSpec",
    "MailboxSpec",
    "WorkloadSpec",
    "FaultAction",
    "CheckSpec",
    "parse_manifest",
    "load_manifest",
    "CheckContext",
    "CheckResult",
    "known_checks",
    "run_checks",
    "EventLog",
    "scrub",
    "FAULT_HANDLERS",
    "apply_fault",
    "fault_handler",
    "CallRecord",
    "WorkloadStats",
    "WorkloadDriver",
    "ScenarioRuntime",
    "ScenarioResult",
    "run_scenario",
    "MANIFEST_DIR",
    "scenario_names",
    "manifest_path",
    "load_scenario",
    "verify_reproducible",
    "run_all",
]

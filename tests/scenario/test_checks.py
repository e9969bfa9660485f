"""Invariant checkers, driven through synthetic contexts (no full run)."""

import pytest

from repro.scenario.checks import CheckContext, known_checks, run_checks
from repro.scenario.events import EventLog
from repro.scenario.manifest import parse_manifest
from repro.scenario.workload import CallRecord, WorkloadStats
from repro.util.clock import VirtualClock


def manifest_with(checks: list[dict], calls_per_tick: int = 2) -> object:
    return parse_manifest(
        {
            "name": "synthetic",
            "duration_s": 1.0,
            "tick_s": 0.5,  # 2 ticks
            "topology": {"hosts": 2},
            "workload": {
                "service": "svc",
                "from_nodes": ["node0"],
                "calls_per_tick": calls_per_tick,
                "ops": [{"op": "ping"}],
            },
            "checks": checks,
        }
    )


def stats_of(*records: CallRecord) -> WorkloadStats:
    stats = WorkloadStats()
    for record in records:
        stats.add(record)
    return stats


def call(ok=True, error=None, typed=True, latency=0.001, t=0.0) -> CallRecord:
    return CallRecord(op="ping", t=t, ok=ok, error=error, typed=typed, latency_s=latency)


def evaluate(checks, stats=None, log=None, runtime=None):
    ctx = CheckContext(
        manifest=manifest_with(checks),
        runtime=runtime,
        stats=stats if stats is not None else WorkloadStats(),
        log=log if log is not None else EventLog(VirtualClock()),
    )
    return run_checks(ctx)


class TestVocabulary:
    def test_known_checks_cover_the_paper_criteria(self):
        names = known_checks()
        for expected in (
            "no_lost_calls",
            "min_success_rate",
            "typed_faults_only",
            "p99_under",
            "max_call_s",
            "failover_within",
            "event_count",
            "no_event",
            "final_members",
            "detector_converged",
            "final_call",
        ):
            assert expected in names


class TestWorkloadChecks:
    def test_no_lost_calls_counts_against_manifest(self):
        # 2 ticks x 2 calls_per_tick = 4 expected
        (good,) = evaluate(
            [{"check": "no_lost_calls"}], stats=stats_of(*[call() for _ in range(4)])
        )
        assert good.passed
        (short,) = evaluate(
            [{"check": "no_lost_calls"}], stats=stats_of(call(), call())
        )
        assert not short.passed

    def test_no_lost_calls_flags_unresolved(self):
        records = [call() for _ in range(3)] + [call(ok=False, error=None)]
        (result,) = evaluate([{"check": "no_lost_calls"}], stats=stats_of(*records))
        assert not result.passed and "unresolved=1" in result.detail

    def test_min_success_rate(self):
        stats = stats_of(call(), call(), call(), call(ok=False, error="E"))
        (ok,) = evaluate([{"check": "min_success_rate", "ratio": 0.75}], stats=stats)
        (bad,) = evaluate([{"check": "min_success_rate", "ratio": 0.9}], stats=stats)
        assert ok.passed and not bad.passed

    def test_typed_faults_only(self):
        typed = stats_of(call(ok=False, error="HarnessTimeoutError"))
        untyped = stats_of(call(ok=False, error="KeyError", typed=False))
        (ok,) = evaluate([{"check": "typed_faults_only"}], stats=typed)
        (bad,) = evaluate([{"check": "typed_faults_only"}], stats=untyped)
        assert ok.passed and not bad.passed
        assert "KeyError" in bad.detail

    def test_typed_faults_allowed_list(self):
        stats = stats_of(call(ok=False, error="HostDownError"))
        (ok,) = evaluate(
            [{"check": "typed_faults_only", "allowed": ["HostDownError"]}], stats=stats
        )
        (bad,) = evaluate(
            [{"check": "typed_faults_only", "allowed": ["CircuitOpenError"]}],
            stats=stats,
        )
        assert ok.passed and not bad.passed

    def test_latency_bounds(self):
        stats = stats_of(*[call(latency=0.01) for _ in range(99)], call(latency=0.5))
        (p99,) = evaluate([{"check": "p99_under", "bound_s": 0.1}], stats=stats)
        (worst,) = evaluate([{"check": "max_call_s", "bound_s": 0.1}], stats=stats)
        assert p99.passed  # one outlier at the tail does not move p99 past 0.1
        assert not worst.passed  # but the worst call busts the hard bound


class TestTrailChecks:
    def test_event_count_window(self):
        log = EventLog(VirtualClock())
        log.record("dvm.member.dead", "n1")
        log.record("dvm.member.dead", "n2")
        (ok,) = evaluate(
            [{"check": "event_count", "topic": "dvm.member.dead", "min": 2, "max": 2}],
            log=log,
        )
        (bad,) = evaluate(
            [{"check": "event_count", "topic": "dvm.member.dead", "max": 1}], log=log
        )
        assert ok.passed and not bad.passed

    def test_no_event(self):
        log = EventLog(VirtualClock())
        log.record("recovery.failover", {})
        (bad,) = evaluate([{"check": "no_event", "topic": "recovery.failover"}], log=log)
        (ok,) = evaluate([{"check": "no_event", "topic": "scenario.fault"}], log=log)
        assert ok.passed and not bad.passed

    def test_failover_within_measures_from_suspicion(self):
        clock = VirtualClock()
        log = EventLog(clock)
        log.record("dvm.member.suspected", {"node": "node2", "misses": 2})
        clock.advance(1.5)
        log.record("recovery.failover", {"from": "node2", "to": "node1"})
        (ok,) = evaluate([{"check": "failover_within", "deadline_s": 2.0}], log=log)
        (bad,) = evaluate([{"check": "failover_within", "deadline_s": 1.0}], log=log)
        assert ok.passed and not bad.passed

    def test_failover_within_requires_a_failover(self):
        (result,) = evaluate(
            [{"check": "failover_within", "deadline_s": 2.0}],
            log=EventLog(VirtualClock()),
        )
        assert not result.passed and "no recovery.failover" in result.detail


class TestRobustness:
    def test_crashing_checker_becomes_failed_result(self):
        # queue_depth_under reads the mailbox audit, which only a mailbox
        # workload leaves on the runtime: the checker raises at run time,
        # and the harness must report the crash, not die mid-soak
        (result,) = evaluate([{"check": "queue_depth_under", "bound": 4}])
        assert not result.passed
        assert "checker crashed: ScenarioError" in result.detail
        assert result.params == {"bound": 4}


class TestSloBurnUnder:
    def _records(self, n_ok, n_bad, spread_s=1.0):
        records = []
        for i in range(n_ok):
            records.append(call(t=i * spread_s / max(n_ok, 1)))
        for i in range(n_bad):
            records.append(
                call(ok=False, error="HarnessTimeoutError",
                     t=i * spread_s / max(n_bad, 1))
            )
        return stats_of(*records)

    def test_clean_run_passes(self):
        (verdict,) = evaluate(
            [{"check": "slo_burn_under", "objective": 0.9, "max_burn": 1.0}],
            stats=self._records(20, 0),
        )
        assert verdict.passed
        assert "bound" in verdict.detail

    def test_sustained_errors_fail_every_window(self):
        (verdict,) = evaluate(
            [{"check": "slo_burn_under", "objective": 0.99, "max_burn": 2.0}],
            stats=self._records(10, 10),
        )
        assert not verdict.passed

    def test_latency_threshold_counts_slow_calls_as_bad(self):
        slow = stats_of(*[call(latency=0.2, t=i * 0.1) for i in range(10)])
        (verdict,) = evaluate(
            [{
                "check": "slo_burn_under", "objective": 0.9, "max_burn": 1.0,
                "latency_threshold_s": 0.05,
            }],
            stats=slow,
        )
        assert not verdict.passed
        fast = stats_of(*[call(latency=0.01, t=i * 0.1) for i in range(10)])
        (verdict,) = evaluate(
            [{
                "check": "slo_burn_under", "objective": 0.9, "max_burn": 1.0,
                "latency_threshold_s": 0.05,
            }],
            stats=fast,
        )
        assert verdict.passed

    def test_in_vocabulary(self):
        assert "slo_burn_under" in known_checks()

"""Heartbeat failure detector: accrual, eviction, observer failover."""

import pytest

from repro.dvm.failure import FailureDetector, NodeHealth
from repro.dvm.machine import DistributedVirtualMachine
from repro.dvm.state import FullSynchronyState
from repro.netsim import lan
from repro.obs import metrics
from repro.plugins.services import CounterService
from repro.util.clock import VirtualClock
from repro.util.errors import DvmError, MembershipError


def make_dvm(n: int = 3, seed: int = 0, clock=None):
    net = lan(n, seed=seed)
    dvm = DistributedVirtualMachine(
        "fd", net, lambda network: FullSynchronyState(network), clock=clock
    )
    for i in range(n):
        dvm.add_node(f"node{i}")
    return net, dvm


class TestThresholds:
    def test_invalid_thresholds_rejected(self):
        _net, dvm = make_dvm(2)
        with pytest.raises(DvmError):
            FailureDetector(dvm, suspect_after=0)
        with pytest.raises(DvmError):
            FailureDetector(dvm, suspect_after=3, evict_after=2)
        dvm.close()


class TestDetection:
    def test_healthy_cluster_never_suspects(self):
        _net, dvm = make_dvm(3)
        detector = FailureDetector(dvm, observer="node0")
        for _ in range(10):
            assert detector.tick() == []
        assert all(h is NodeHealth.ALIVE for h in detector.statuses().values())
        dvm.close()

    def test_crash_suspect_then_evict(self):
        net, dvm = make_dvm(3)
        events = []
        dvm.events.subscribe("dvm.member", lambda e: events.append(e.topic))
        detector = FailureDetector(dvm, observer="node0", suspect_after=2, evict_after=3)
        net.host("node2").crash()
        assert detector.tick() == []  # miss 1: still alive
        assert detector.health("node2") is NodeHealth.ALIVE
        assert detector.tick() == []  # miss 2: suspected
        assert detector.health("node2") is NodeHealth.SUSPECTED
        assert "dvm.member.suspected" in events
        assert detector.tick() == ["node2"]  # miss 3: dead + evicted
        assert detector.health("node2") is NodeHealth.DEAD
        assert "dvm.member.dead" in events
        assert dvm.nodes() == ["node0", "node1"]
        dvm.close()

    def test_suspected_member_rehabilitates(self):
        net, dvm = make_dvm(3)
        events = []
        dvm.events.subscribe("dvm.member.recovered", lambda e: events.append(e.payload))
        detector = FailureDetector(dvm, observer="node0", suspect_after=1, evict_after=5)
        net.host("node1").crash()
        detector.tick()
        detector.tick()
        assert detector.health("node1") is NodeHealth.SUSPECTED
        net.host("node1").restart()
        detector.tick()
        assert detector.health("node1") is NodeHealth.ALIVE
        assert events == ["node1"]
        # the miss counter reset: surviving one more outage takes full accrual
        net.host("node1").crash()
        detector.tick()
        assert detector.health("node1") is NodeHealth.SUSPECTED  # 1 fresh miss
        dvm.close()

    def test_eviction_deregisters_components(self):
        net, dvm = make_dvm(3)
        lost = []
        dvm.events.subscribe("dvm.component.lost", lambda e: lost.append(e.payload))
        dvm.deploy("node2", CounterService, name="counter", bindings=("local-instance", "sim"))
        detector = FailureDetector(dvm, observer="node0", suspect_after=1, evict_after=1)
        net.host("node2").crash()
        assert detector.tick() == ["node2"]
        assert lost == [{"service": "counter", "node": "node2"}]
        assert "counter" not in dvm.component_index("node0")
        dvm.close()

    def test_observer_death_falls_over_to_next_member(self):
        net, dvm = make_dvm(3)
        detector = FailureDetector(dvm, observer="node0", suspect_after=1, evict_after=2)
        net.host("node0").crash()
        evicted = []
        for _ in range(3):
            evicted += detector.tick()
        # node1 took over observing and expelled the dead observer
        assert evicted == ["node0"]
        assert dvm.nodes() == ["node1", "node2"]
        dvm.close()

    def test_lossy_link_absorbed_by_accrual(self):
        # seeded fabric: deterministic drop pattern.  10% per-leg drops shake
        # the heartbeat but never produce evict_after consecutive misses.
        net, dvm = make_dvm(3, seed=5)
        net.set_default_faults(drop_rate=0.10)
        detector = FailureDetector(dvm, observer="node0", suspect_after=2, evict_after=5)
        evicted = []
        for _ in range(60):
            evicted += detector.tick()
        assert evicted == []
        assert dvm.nodes() == ["node0", "node1", "node2"]
        dvm.close()


class TestEvictNode:
    def test_witness_must_be_surviving_member(self):
        _net, dvm = make_dvm(3)
        with pytest.raises(MembershipError):
            dvm.evict_node("node1", by="node1")
        with pytest.raises(MembershipError):
            dvm.evict_node("node1", by="ghost")
        with pytest.raises(MembershipError):
            dvm.evict_node("ghost", by="node0")
        dvm.close()

    def test_evicted_member_disappears_from_membership_views(self):
        net, dvm = make_dvm(3)
        net.host("node2").crash()
        dvm.evict_node("node2", by="node0")
        assert dvm.members_seen_by("node0") == ["node0", "node1"]
        assert dvm.members_seen_by("node1") == ["node0", "node1"]
        dvm.close()


def pump_errors(name: str = "dvm.detector.pump_errors") -> int:
    return metrics.registry.counter(name).value()


def firing_times(detector: FailureDetector, clock: VirtualClock, n: int) -> list[float]:
    """The clock times of the first *n* ticks once the detector is started."""
    fired: list[float] = []
    detector.tick = lambda: fired.append(clock.now())
    detector.start(clock)
    while len(fired) < n:
        clock.advance(detector.interval_s)
    detector.stop()
    return fired[:n]


class TestPeriodic:
    def test_start_registers_and_stop_cancels(self, monkeypatch):
        clock = VirtualClock()
        _net, dvm = make_dvm(2, clock=clock)
        detector = FailureDetector(dvm, observer="node0", interval_s=0.5, jitter=0.0)
        fired = []
        monkeypatch.setattr(detector, "tick", lambda: fired.append(clock.now()))
        detector.start()  # registers on the DVM's clock
        detector.start()  # idempotent: still one registration
        clock.advance(1.6)
        detector.stop()
        clock.advance(5.0)
        assert fired == [0.5, 1.0, 1.5]
        dvm.close()

    def test_a_failing_tick_is_counted_and_the_pump_goes_on(self, monkeypatch):
        clock = VirtualClock()
        _net, dvm = make_dvm(2)
        detector = FailureDetector(dvm, observer="node0", interval_s=0.5, jitter=0.0)
        ticks = []

        def wedged():
            ticks.append(clock.now())
            raise KeyError("wedged")

        monkeypatch.setattr(detector, "tick", wedged)
        total, typed = pump_errors(), pump_errors("dvm.detector.pump_errors.KeyError")
        detector.start(clock)
        clock.advance(1.0)
        detector.stop()
        assert ticks == [0.5, 1.0]  # the second tick ran: the pump survived the first
        assert pump_errors() - total == 2
        assert pump_errors("dvm.detector.pump_errors.KeyError") - typed == 2
        dvm.close()


class TestHeartbeatJitter:
    def test_invalid_jitter_rejected(self):
        _net, dvm = make_dvm(2)
        with pytest.raises(DvmError):
            FailureDetector(dvm, jitter=-0.1)
        with pytest.raises(DvmError):
            FailureDetector(dvm, jitter=1.0)
        dvm.close()

    def test_intervals_stay_within_jitter_band(self):
        _net, dvm = make_dvm(2)
        detector = FailureDetector(dvm, interval_s=0.5, jitter=0.1, seed=99)
        fired = firing_times(detector, VirtualClock(), 200)
        gaps = [b - a for a, b in zip([0.0] + fired, fired)]
        assert all(0.45 - 1e-9 <= gap <= 0.55 + 1e-9 for gap in gaps)
        # jitter actually spreads the schedule — not a constant stream
        assert len({round(gap, 9) for gap in gaps}) > 100
        dvm.close()

    def test_same_seed_same_schedule(self):
        _net, dvm = make_dvm(2)
        a = FailureDetector(dvm, interval_s=0.5, jitter=0.1, seed=42)
        b = FailureDetector(dvm, interval_s=0.5, jitter=0.1, seed=42)
        assert firing_times(a, VirtualClock(), 50) == firing_times(b, VirtualClock(), 50)
        dvm.close()

    def test_different_seeds_diverge(self):
        _net, dvm = make_dvm(2)
        a = FailureDetector(dvm, interval_s=0.5, jitter=0.1, seed=1)
        b = FailureDetector(dvm, interval_s=0.5, jitter=0.1, seed=2)
        assert firing_times(a, VirtualClock(), 20) != firing_times(b, VirtualClock(), 20)
        dvm.close()

    def test_zero_jitter_is_exact(self):
        _net, dvm = make_dvm(2)
        detector = FailureDetector(dvm, interval_s=0.25, jitter=0.0)
        assert firing_times(detector, VirtualClock(), 10) == [
            0.25 * k for k in range(1, 11)
        ]
        dvm.close()


class TestIndirectProbing:
    """SWIM ping-req: a broken observer path alone must not evict anybody."""

    def test_asymmetric_path_is_refuted_by_proxies(self):
        net, dvm = make_dvm(5)
        detector = FailureDetector(
            dvm, observer="node0", suspect_after=2, evict_after=3, indirect_probes=2, seed=4
        )
        # the observer cannot reach node1 at all, but every proxy can
        net.set_link_faults("node0", "node1", drop_rate=1.0, symmetric=True)
        for _ in range(10):
            assert detector.tick() == []
        assert detector.health("node1") is NodeHealth.ALIVE
        assert dvm.nodes() == [f"node{i}" for i in range(5)]
        dvm.close()

    def test_truly_dead_member_still_evicted_through_nacks(self):
        net, dvm = make_dvm(5)
        detector = FailureDetector(
            dvm, observer="node0", suspect_after=2, evict_after=3, indirect_probes=2, seed=4
        )
        net.host("node1").crash()
        dead = []
        for _ in range(3):
            dead += detector.tick()
        assert dead == ["node1"]
        assert detector.health("node1") is NodeHealth.DEAD
        dvm.close()

    def test_probe_knobs_validated(self):
        _net, dvm = make_dvm(2)
        with pytest.raises(DvmError):
            FailureDetector(dvm, indirect_probes=-1)
        with pytest.raises(DvmError):
            FailureDetector(dvm, sample=0)
        with pytest.raises(DvmError):
            FailureDetector(dvm, coalesce_after=0)
        dvm.close()


class TestCoalescing:
    def test_small_cohort_keeps_per_member_events(self):
        net, dvm = make_dvm(3)
        suspected = []
        dvm.events.subscribe("dvm.member.suspected", lambda e: suspected.append(e.payload))
        detector = FailureDetector(
            dvm, observer="node0", suspect_after=1, evict_after=3, coalesce_after=8
        )
        net.host("node2").crash()
        detector.tick()
        assert suspected == [{"node": "node2", "misses": 1}]
        dvm.close()

    def test_fleet_suspicions_and_evictions_coalesce(self):
        from repro.dvm.state import DecentralizedState
        from repro.netsim import lan as _lan

        n = 1000
        net = _lan(n, seed=6, detail_stats=False)
        dvm = DistributedVirtualMachine(
            "fleet", net, lambda network: DecentralizedState(network)
        )
        for i in range(n):
            dvm.add_node(f"node{i}")
        suspected, dead_events = [], []
        dvm.events.subscribe("dvm.member.suspected", lambda e: suspected.append(e.payload))
        dvm.events.subscribe("dvm.member.dead", lambda e: dead_events.append(e.payload))
        detector = FailureDetector(
            dvm, observer="node0", suspect_after=1, evict_after=2, coalesce_after=8
        )
        for i in range(1, n):
            net.host(f"node{i}").crash()
        assert detector.tick() == []
        # 999 simultaneous suspicions: exactly one batched publication
        assert len(suspected) == 1
        assert suspected[0]["coalesced"] is True
        assert suspected[0]["count"] == n - 1
        dead = detector.tick()
        assert len(dead) == n - 1
        assert len(dead_events) == 1
        assert dvm.nodes() == ["node0"]
        dvm.close()


class TestSampling:
    def test_sample_covers_every_member_across_the_cycle(self):
        _net, dvm = make_dvm(10)
        detector = FailureDetector(dvm, observer="node0", sample=3, seed=11)
        seen = set()
        for _ in range(3):
            picked = detector._probe_targets("node0")
            assert len(picked) == 3
            assert len(set(picked)) == 3
            seen.update(picked)
        assert seen == {f"node{i}" for i in range(1, 10)}
        dvm.close()

    def test_no_sample_probes_everyone(self):
        _net, dvm = make_dvm(6)
        detector = FailureDetector(dvm, observer="node0")
        assert set(detector._probe_targets("node0")) == {f"node{i}" for i in range(1, 6)}
        dvm.close()

    def test_sampled_detector_still_evicts(self):
        net, dvm = make_dvm(6)
        detector = FailureDetector(
            dvm, observer="node0", suspect_after=1, evict_after=2, sample=2, seed=3
        )
        net.host("node4").crash()
        dead = []
        for _ in range(12):  # sample=2 needs a few cycles to accrue misses
            dead += detector.tick()
        assert dead == ["node4"]
        dvm.close()

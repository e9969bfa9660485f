"""The maintenance schedule of every bundled scenario, pinned.

Gossip rounds, checkpoints and heartbeat ticks are the periodic work a
scenario runs on its clock.  A class-level probe records ``(clock time,
kind)`` for each firing (gossip rounds nested in a deploy's ``quiesce``
sweep are not firings) and the schedule must be:

* on the ``tick_s`` grid;
* within one instant, gossip before checkpoint before detector, at most one
  of each kind;
* over when the tick loop is: nothing fires after the last tick, whatever
  the workload driver's ``finish`` does to the clock afterwards.
"""

import pytest

from repro.dvm.failure import FailureDetector
from repro.dvm.gossip import GossipState
from repro.recovery.failover import FailoverManager
from repro.scenario import runner
from repro.scenario.library import load_scenario, scenario_names

KINDS = ("gossip", "checkpoint", "detector")
GOSSIP_FAMILY = ("gossip", "neighborhood-gossip")


def maintained(name: str) -> bool:
    manifest = load_scenario(name)
    return not manifest.wall and (
        manifest.self_healing.enabled or manifest.dvm.coherency in GOSSIP_FAMILY
    )


MAINTAINED = [name for name in scenario_names() if maintained(name)]


@pytest.fixture
def firings(monkeypatch):
    log: list[tuple[float, str]] = []
    runtimes: list = []
    sweeping = [0]

    real_init = runner.ScenarioRuntime.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        runtimes.append(self)

    monkeypatch.setattr(runner.ScenarioRuntime, "__init__", init)

    def probe(cls, method: str, kind: str) -> None:
        real = getattr(cls, method)

        def fired(self, *args, **kwargs):
            if not sweeping[0]:
                log.append((runtimes[-1].clock.now(), kind))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, fired)

    real_quiesce = GossipState.quiesce

    def quiesce(self, *args, **kwargs):
        sweeping[0] += 1
        try:
            return real_quiesce(self, *args, **kwargs)
        finally:
            sweeping[0] -= 1

    monkeypatch.setattr(GossipState, "quiesce", quiesce)
    probe(GossipState, "gossip_round", "gossip")
    probe(FailoverManager, "checkpoint", "checkpoint")
    probe(FailureDetector, "tick", "detector")
    return log


def test_the_probe_covers_every_virtual_scenario_with_maintenance():
    assert len(MAINTAINED) >= 14


@pytest.mark.parametrize("name", MAINTAINED)
def test_maintenance_fires_on_the_tick_grid_in_order(name, firings):
    manifest = load_scenario(name)
    result = runner.run_scenario(manifest)
    assert result.passed
    assert firings, "a scenario with maintenance fired nothing"
    tick = manifest.tick_s
    last_tick = (manifest.settle_ticks + manifest.n_ticks - 1) * tick
    by_instant: dict[float, list[str]] = {}
    for at, kind in firings:
        steps = at / tick
        assert abs(steps - round(steps)) < 1e-9, f"{kind} off the grid at t={at}"
        assert at <= last_tick + 1e-9, f"{kind} at t={at}, after the last tick"
        by_instant.setdefault(at, []).append(kind)
    for at, kinds in by_instant.items():
        order = [KINDS.index(kind) for kind in kinds]
        assert order == sorted(set(order)), f"t={at}: {kinds}"

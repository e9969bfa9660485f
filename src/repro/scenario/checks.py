"""Invariant checkers: the pass criteria of a chaos scenario.

A manifest's ``checks`` list names entries from this registry; after the
fault script and workload finish, the runner evaluates each against the
final state — the workload's :class:`~repro.scenario.workload.WorkloadStats`,
the :class:`~repro.scenario.events.EventLog` audit trail, and the live
runtime (detector statuses, DVM membership).  Every checker returns
``(passed, detail)`` with a human-readable detail string, which
:func:`run_checks` records as a :class:`CheckResult`; a scenario passes iff
every check passes.  A checker's keyword-only parameters are its manifest
keys: the manifest parser binds each entry against them at load time.

Vocabulary:

``no_lost_calls``
    Every accepted call resolved with an outcome; none vanished.  The
    expected count is derived from the manifest (ticks × calls_per_tick).
``min_success_rate``
    Overall workload success rate ≥ ``ratio``.
``typed_faults_only``
    No untyped exception escaped a call; optionally restrict the allowed
    ``HarnessError`` class names via ``allowed``.
``p99_under`` / ``max_call_s``
    Simulated-latency bounds: p99 of successful calls, and the worst single
    call (graceful degradation = typed rejects, never hangs).
``slo_burn_under``
    Error-budget burn (:mod:`repro.obs.slo`): with objective ``objective``
    (e.g. 0.95 success), the worst trailing-window burn rate must stay at
    or under ``max_burn`` budgets — under the multi-window AND, so the
    check fails only when *every* configured window burned too fast.
    ``windows_s`` defaults to [5, 20] ticks; ``latency_threshold_s`` also
    counts slow-but-successful calls as bad.
``failover_within``
    Every completed failover landed within ``deadline_s`` of the victim
    node first being suspected.
``event_count`` / ``no_event``
    Audit-trail shape: a topic (prefix) occurred between ``min`` and
    ``max`` times, or not at all.
``final_members``
    DVM membership at the end equals ``expect`` exactly.
``detector_converged``
    No member is still SUSPECTED once the script has played out.
``converged_within``
    Gossip-family coherency only: the DVM re-announced
    ``dvm.gossip.converged`` within ``deadline_s`` of the script's last
    ``heal`` (or of t=0 when the script never heals), and the protocol
    still reports convergence at the end of the run.
``final_call``
    One last invocation must succeed, optionally matching ``expect`` or
    ``expect_min`` — proves end-to-end liveness (and, for a failed-over
    counter, restored state).
``no_lost_messages``
    Mailbox workloads only: every accepted publish is accounted for —
    acked by some consumer or recorded as an ``mbox.dropped`` event; a seq
    that simply vanished fails the check.  Requires
    ``workload.mode == "mailbox"`` (the driver publishes the audit).
``queue_depth_under``
    Mailbox workloads only: the mailbox's high-water backlog never
    exceeded ``bound`` — the overflow policy really bounded the queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.util.errors import HarnessError, ScenarioError

__all__ = ["CHECKERS", "CheckResult", "CheckContext", "known_checks", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant check."""

    check: str
    passed: bool
    detail: str
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "detail": self.detail,
            "params": dict(self.params),
        }


@dataclass
class CheckContext:
    """Everything a checker may inspect after the run."""

    manifest: object  # ScenarioManifest
    runtime: object  # ScenarioRuntime
    stats: object  # WorkloadStats (empty when the manifest has no workload)
    log: object  # EventLog


#: check name → checker ``fn(ctx, *, <params>) -> (passed, detail)``; its
#: keyword-only parameters are the check's manifest keys, bound at load time
CHECKERS: dict[str, Callable[..., tuple[bool, str]]] = {}

#: ``final_call``'s ``expect`` when the manifest sets none
_UNSET = object()


def _check(name: str) -> Callable:
    def register(fn: Callable) -> Callable:
        CHECKERS[name] = fn
        return fn

    return register


def known_checks() -> frozenset[str]:
    """The registered checker names."""
    return frozenset(CHECKERS)


def run_checks(ctx: CheckContext) -> list[CheckResult]:
    """Evaluate every check the manifest declares, in declaration order;
    a checker that raises becomes a failed result."""
    results = []
    for spec in ctx.manifest.checks:
        try:
            passed, detail = CHECKERS[spec.check](ctx, **spec.params)
        except Exception as exc:
            passed, detail = False, f"checker crashed: {type(exc).__name__}: {exc}"
        results.append(CheckResult(spec.check, passed, detail, dict(spec.params)))
    return results


# -- workload invariants --------------------------------------------------------


@_check("no_lost_calls")
def _no_lost_calls(ctx: CheckContext) -> tuple[bool, str]:
    stats = ctx.stats
    expected = 0
    if ctx.manifest.workload is not None:
        expected = ctx.manifest.n_ticks * ctx.manifest.workload.calls_per_tick
    unresolved = sum(1 for r in stats.records if not r.ok and r.error is None)
    passed = stats.issued == expected and unresolved == 0
    return passed, f"issued={stats.issued} expected={expected} unresolved={unresolved}"


@_check("min_success_rate")
def _min_success_rate(ctx: CheckContext, *, ratio) -> tuple[bool, str]:
    ratio = float(ratio)
    rate = ctx.stats.success_rate
    return (
        rate >= ratio,
        f"success_rate={rate:.4f} (ok={ctx.stats.ok}/{ctx.stats.issued}) bound={ratio}",
    )


@_check("typed_faults_only")
def _typed_faults_only(ctx: CheckContext, *, allowed=None) -> tuple[bool, str]:
    untyped = ctx.stats.untyped_failures()
    if untyped:
        sample = sorted({r.error for r in untyped if r.error})[:5]
        return False, f"{len(untyped)} untyped failure(s): {sample}"
    if allowed is not None:
        seen = set(ctx.stats.error_counts())
        extra = sorted(seen - set(allowed))
        if extra:
            return False, f"disallowed fault types: {extra} (allowed: {sorted(allowed)})"
    return (
        True,
        f"all failures typed ({ctx.stats.failed} total: {ctx.stats.error_counts()})",
    )


@_check("p99_under")
def _p99_under(ctx: CheckContext, *, bound_s, ok_only=True) -> tuple[bool, str]:
    bound = float(bound_s)
    ok_only = bool(ok_only)
    p99 = ctx.stats.percentile(99, ok_only=ok_only)
    return p99 <= bound, f"p99={p99:.6f}s bound={bound}s (ok_only={ok_only})"


@_check("slo_burn_under")
def _slo_burn_under(
    ctx: CheckContext, *, objective, max_burn, windows_s=None, latency_threshold_s=None
) -> tuple[bool, str]:
    from repro.obs.slo import BurnSeries

    objective = float(objective)
    limit = float(max_burn)
    tick = ctx.manifest.tick_s
    if windows_s is None:
        windows_s = (5 * tick, 20 * tick)
    windows = [float(w) for w in windows_s]
    series = BurnSeries(objective)
    bad = total = 0
    for record in sorted(ctx.stats.records, key=lambda r: (r.t, r.latency_s)):
        total += 1
        if not record.ok or (
            latency_threshold_s is not None
            and record.latency_s > float(latency_threshold_s)
        ):
            bad += 1
        series.observe(record.t + record.latency_s, bad, total)
    worst = {w: series.max_burn(w) for w in windows}
    # multi-window AND: the budget is violated only when every window
    # burned past the limit, so the binding bound is the minimum
    bound = min(worst.values()) if worst else 0.0
    per_window = ", ".join(f"{w:g}s={b:.2f}x" for w, b in sorted(worst.items()))
    return (
        bound <= limit,
        f"worst burn per window [{per_window}], co-exceedance bound "
        f"{bound:.2f}x (limit {limit:g}x, objective {objective:g}, "
        f"{bad}/{total} bad)",
    )


@_check("max_call_s")
def _max_call_s(ctx: CheckContext, *, bound_s) -> tuple[bool, str]:
    bound = float(bound_s)
    worst = ctx.stats.max_latency()
    return (
        worst <= bound,
        f"max_call={worst:.6f}s bound={bound}s over {ctx.stats.issued} calls",
    )


# -- messaging invariants -------------------------------------------------------


def _mailbox_audit(ctx: CheckContext):
    audit = getattr(ctx.runtime, "mailbox_audit", None)
    if audit is None:
        raise ScenarioError(
            "no mailbox audit on the runtime (needs workload mode 'mailbox')"
        )
    return audit


@_check("no_lost_messages")
def _no_lost_messages(ctx: CheckContext) -> tuple[bool, str]:
    audit = _mailbox_audit(ctx)
    published = set(audit["published"])
    acked = set(audit["acked"])
    dropped = set()
    for rec in ctx.log.records("mbox.dropped"):
        payload = rec.get("payload") or {}
        if payload.get("mailbox") == audit["mailbox"] and "seq" in payload:
            dropped.add(int(payload["seq"]))
    lost = published - acked - dropped
    detail = (
        f"published={len(published)} acked={len(acked)} "
        f"dropped={len(dropped & published)} lost={len(lost)}"
    )
    if lost:
        detail += f" (e.g. seqs {sorted(lost)[:5]})"
    return not lost, detail


@_check("queue_depth_under")
def _queue_depth_under(ctx: CheckContext, *, bound) -> tuple[bool, str]:
    bound = int(bound)
    stats = _mailbox_audit(ctx)["stats"]()
    high = int(stats.get("high_water", 0))
    return (
        high <= bound,
        f"high_water={high} bound={bound} "
        f"(final depth={stats.get('depth', 0)}, "
        f"rejected={stats.get('rejected', 0)}, dropped={stats.get('dropped', 0)})",
    )


# -- audit-trail invariants -----------------------------------------------------


@_check("failover_within")
def _failover_within(ctx: CheckContext, *, deadline_s) -> tuple[bool, str]:
    deadline = float(deadline_s)
    suspects: dict[str, list[float]] = {}
    for rec in ctx.log.records("dvm.member.suspected"):
        payload = rec.get("payload") or {}
        # a coalesced suspicion event carries the cohort under "nodes"
        entries = payload.get("nodes", [payload]) if isinstance(payload, dict) else []
        for entry in entries:
            node = entry.get("node", "") if isinstance(entry, dict) else str(entry)
            suspects.setdefault(node, []).append(rec["t"])
    failovers = ctx.log.records("recovery.failover")
    failovers = [r for r in failovers if r["topic"] == "recovery.failover"]
    if not failovers:
        return False, "no recovery.failover event occurred"
    worst = 0.0
    for rec in failovers:
        victim = (rec.get("payload") or {}).get("from", "")
        onset = [t for t in suspects.get(victim, []) if t <= rec["t"]]
        if onset:
            worst = max(worst, rec["t"] - max(onset))
    return (
        worst <= deadline,
        f"{len(failovers)} failover(s), worst suspicion→failover {worst:.3f}s "
        f"(deadline {deadline}s)",
    )


@_check("event_count")
def _event_count(ctx: CheckContext, *, topic, min=0, max=None) -> tuple[bool, str]:
    topic = str(topic)
    lo, hi = int(min), max
    count = len(ctx.log.records(topic))
    passed = count >= lo and (hi is None or count <= int(hi))
    return passed, f"{count} event(s) under {topic!r} (min={lo}, max={hi})"


@_check("no_event")
def _no_event(ctx: CheckContext, *, topic) -> tuple[bool, str]:
    topic = str(topic)
    count = len(ctx.log.records(topic))
    return count == 0, f"{count} event(s) under {topic!r}"


# -- end-state invariants -------------------------------------------------------


@_check("final_members")
def _final_members(ctx: CheckContext, *, expect) -> tuple[bool, str]:
    expect = sorted(expect)
    actual = sorted(ctx.runtime.harness.dvm.nodes())
    return actual == expect, f"members={actual} expected={expect}"


@_check("detector_converged")
def _detector_converged(ctx: CheckContext) -> tuple[bool, str]:
    detector = ctx.runtime.harness.detector
    if detector is None:
        return False, "self-healing not enabled"
    statuses = {m: h.value for m, h in detector.statuses().items()}
    members = set(ctx.runtime.harness.dvm.nodes())
    unsettled = {m: s for m, s in statuses.items() if m in members and s != "alive"}
    return (
        not unsettled,
        f"unsettled={unsettled}" if unsettled else f"all {len(members)} members alive",
    )


@_check("converged_within")
def _converged_within(ctx: CheckContext, *, deadline_s) -> tuple[bool, str]:
    deadline = float(deadline_s)
    protocol = ctx.runtime.harness.dvm.protocol
    if not hasattr(protocol, "converged"):
        return (
            False,
            f"{type(protocol).__name__} has no convergence signal "
            "(use a gossip-family coherency scheme)",
        )
    heals = [
        rec["t"]
        for rec in ctx.log.records("scenario.fault")
        if (rec.get("payload") or {}).get("action") == "heal"
    ]
    t0 = max(heals) if heals else 0.0
    anchor = "last heal" if heals else "start"
    if not protocol.converged():
        return False, f"protocol diverged at end of run (anchor: {anchor} at {t0:.3f}s)"
    announced = [
        rec["t"] for rec in ctx.log.records("dvm.gossip.converged") if rec["t"] >= t0
    ]
    if not announced:
        return False, f"no dvm.gossip.converged event after {anchor} at {t0:.3f}s"
    delay = min(announced) - t0
    return (
        delay <= deadline,
        f"converged {delay:.3f}s after {anchor} (deadline {deadline}s)",
    )


@_check("final_call")
def _final_call(
    ctx: CheckContext, *, op, args=(), service=None, node=None, expect=_UNSET, expect_min=None
) -> tuple[bool, str]:
    workload = ctx.manifest.workload
    service = service or (workload.service if workload else None)
    node = node or (workload.from_nodes[0] if workload else None)
    if not service or not node:
        raise ScenarioError("final_call needs 'service'/'node' without a workload")
    if node not in ctx.runtime.harness.dvm.nodes():
        live = sorted(ctx.runtime.harness.dvm.nodes())
        if not live:
            return False, "no live node to call from"
        node = live[0]
    op = str(op)
    args = list(args)
    try:
        stub = ctx.runtime.harness.stub(node, service)
        try:
            value = stub.invoke(op, *args)
        finally:
            close = getattr(stub, "close", None)
            if close:
                close()
    except HarnessError as exc:
        return False, f"{op}{tuple(args)} raised {type(exc).__name__}: {exc}"
    if expect is not _UNSET and value != expect:
        return False, f"{op} returned {value!r}, expected {expect!r}"
    if expect_min is not None and not (
        isinstance(value, (int, float)) and value >= expect_min
    ):
        return False, f"{op} returned {value!r}, expected >= {expect_min}"
    return True, f"{op} returned {value!r}"

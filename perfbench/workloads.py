"""The three workloads: continuous verification, the Fig. 3 FIB guard,
and §5/§6 audits.

A workload's inputs come from a fixed list of slots.  The slot fixes
the structure of an input: topology, uplinks, churn schedule,
misconfiguration campaign, sabotage.  In ``stream-mesh`` and
``audit-rr`` it fixes the whole simulated capture, and the run's
``--seed`` picks which routers' logs lag, hence the arrival order.  In
``guard-mesh`` the simulator is the guard's environment, and the seed
drives its timing jitter.  Every run covers the same slots, so the mix
of topologies, and with it the cost, is the same from seed to seed.

Processing one input has three phases:

* **set-up** — simulate and capture (timed; feeds ``setup_s``);
* **measured** — the program under test receives the generated
  inputs (in ``guard-mesh`` the simulator is the environment the guard
  runs inside, so it runs in this phase too);
* **check** — correctness of every output, untimed and untraced.

Each workload function ``f(slot, seed, recorder)`` runs all three for
one input and returns an :class:`InputResult`.  With a recorder, the
measured phase runs with the layer functions wrapped (see
:mod:`spans`) and each operation is a root span with its own id.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.capture.collector import Collector
from repro.capture.io_events import IOKind
from repro.core.pipeline import IntegratedControlPlane, PipelineMode
from repro.hbr.inference import InferenceEngine
from repro.net.config import ConfigChange, local_pref_map
from repro.protocols.network import Network
from repro.repair.provenance import ProvenanceTracer
from repro.scenarios.generators import (
    build_random_network,
    build_scaled_network,
    churn_workload,
    external_prefixes,
    misconfig_campaign,
)
from repro.snapshot.base import DataPlaneSnapshot, VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.verify.incremental import IncrementalVerifier, incremental_engine
from repro.verify.policy import (
    BlackholeFreedomPolicy,
    LoopFreedomPolicy,
    PreferredExitPolicy,
)
from repro.verify.verifier import DataPlaneVerifier

#: Input slots per workload (see the module docstring).  Every
#: operation on these slots passes its checks on every seed; the
#: inputs on which the program gives a wrong result are in FINDINGS.
SLOTS = {
    "stream-mesh": (0,),
    "guard-mesh": (0, 2),
    "audit-rr": (970302523,),
}

#: Per-router log lags: one router in eight lags SLOW_LAG, the rest
#: FAST_LAG, so arrival order differs from timestamp order.
SLOW_LAG = 0.5
FAST_LAG = 0.05

#: stream-mesh: full-mesh iBGP + OSPF, 2 uplinks, 4 churned prefixes.
STREAM_ROUTERS = 16
STREAM_CHURN_EVENTS = 10

#: guard-mesh: full mesh, 4 prefixes from both uplinks, a campaign of
#: local-pref changes spaced past the 25 s soft-reconfiguration delay
#: so each change's effect settles before the next one lands.
GUARD_ROUTERS = 10
GUARD_ROUNDS = 6
GUARD_CHANGE_GAP = 30.0
GUARD_SETTLE = 60.0

#: audit-rr: route-reflector family, churn on four prefixes, one
#: anchor prefix both uplinks announce steadily, and a sabotage of the
#: preferred uplink's local-pref at t=3 s that takes effect after the
#: 25 s soft-reconfiguration delay (~28 s).
AUDIT_ROUTERS = 24
AUDIT_SABOTAGE_AT = 3.0
#: Eleven audits before the sabotage bites (the first few while churn
#: is still converging), two while its updates propagate, and one
#: after the snapshotter's unmatched-send age limit (30 s) has passed
#: for every update the sabotage caused.  The wait covers the slowest
#: log lag twice over, so a deferral means a snapshot that stays
#: inconsistent, not one that is merely late.  The audit at 5 s is in
#: FINDINGS: it misses violations on every seed.
AUDIT_INSTANTS = (
    4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0,
    29.0, 40.0, 65.0,
)
AUDIT_WAIT = 1.0
AUDIT_END = 70.0
AUDIT_REPAIR_WAIT = 5.0
AUDIT_REPAIR_SETTLE = 60.0

#: Inputs on which the program gives a wrong result on every seed, as
#: (workload, slot, keyword arguments).  They are not timed: a run
#: whose outputs are wrong measures nothing a user can rely on.
#: findings.py runs them and reports each failed check (see NOTES.md).
#: guard-mesh slots 1, 3 and 6 revert innocent campaign changes, slot
#: 5 on some seeds; slot 1 stands for them.
FINDINGS = (
    ("guard-mesh", 1, {}),
    ("audit-rr", 970302523, {"instants": (5.0,)}),
)


@dataclass
class InputResult:
    """What one processed input contributes to a run's metrics."""

    setup_s: float
    #: Wall seconds of the measured phase.
    measured_s: float
    #: Per-operation latencies (FIB deltas, guarded writes, audits).
    op_latencies: List[float] = field(default_factory=list)
    #: The measured phase cut into deterministic pieces (every event
    #: fed, every stretch of the guard episode, every audit), so
    #: repeats can be compared piece by piece.
    segments: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Workload-specific figures (events fed, audits answered, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: (edges, events) of the HBG the program holds for this input.
    hbg_size: tuple = (0, 0)


def slot_seeds(seed: int, slots: int) -> List[int]:
    """The per-slot seeds of one run."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(slots)]


def lag_map(routers, seed: int) -> Dict[str, float]:
    rng = random.Random(seed ^ 0x5EED)
    shuffled = sorted(routers)
    rng.shuffle(shuffled)
    slow = set(shuffled[: max(1, len(shuffled) // 8)])
    return {r: SLOW_LAG if r in slow else FAST_LAG for r in routers}


def _measure_next(recorder) -> None:
    """End of set-up: start every input's measured phase from the same
    collected heap, with the set-up's objects (the simulated network
    that generated the input) frozen out of the cyclic collector, so a
    full collection during the measured phase walks what the program
    allocates rather than the benchmark's own heap; then switch span
    recording on when tracing."""
    gc.collect()
    gc.freeze()
    _tracing(recorder, True)


def _measured_done(recorder) -> None:
    """End of the measured phase: undo :func:`_measure_next`."""
    _tracing(recorder, False)
    gc.unfreeze()


def _tracing(recorder, active: bool) -> None:
    """Switch span recording on for the measured phase, off around it."""
    if recorder is not None:
        recorder.active = active


def _op(recorder, op_id: str, name: str, fn, *args):
    """Run one operation, as a root span when tracing."""
    if recorder is None:
        return fn(*args)
    return recorder.op(op_id, name, fn, *args)


def _violation_keys(violations) -> List[tuple]:
    return sorted(v.key() for v in violations)


def _canonical_graph(graph) -> tuple:
    events = sorted(event.event_id for event in graph.events())
    edges = sorted(
        (
            edge.cause,
            edge.effect,
            edge.evidence.technique,
            edge.evidence.rule,
            edge.evidence.confidence,
        )
        for edge in graph.edges()
    )
    return events, edges


# -- stream-mesh ---------------------------------------------------------


def stream_mesh(slot: int, seed: int, recorder=None) -> InputResult:
    started = time.perf_counter()
    net, specs = build_random_network(
        STREAM_ROUTERS, uplinks=2, seed=slot, rng=random.Random(slot)
    )
    net.start()
    churn_workload(
        net,
        specs,
        external_prefixes(4),
        events=STREAM_CHURN_EVENTS,
        start=2.0,
        seed=slot,
    )
    net.run(60)
    events = net.collector.all_events()
    internal = net.topology.internal_routers()
    lags = lag_map(internal, seed)
    order = sorted(
        events, key=lambda e: (e.timestamp + lags.get(e.router, FAST_LAG), e.event_id)
    )
    policies = [LoopFreedomPolicy(), BlackholeFreedomPolicy()]
    setup_s = time.perf_counter() - started
    _measure_next(recorder)

    collector = Collector()
    view = VerifierView(collector, lags=lags, default_lag=FAST_LAG)
    engine = incremental_engine()
    streaming = engine.streaming()
    verifier = IncrementalVerifier(
        internal,
        topology=net.topology,
        policies=policies,
        view=view,
        engine=engine,
    ).attach(streaming)
    collector.subscribe(streaming.observe)
    latencies: List[float] = []
    segments: List[float] = []
    raised = answered = 0
    begun = time.perf_counter()
    for position, event in enumerate(order):
        t0 = time.perf_counter()
        try:
            _op(recorder, f"{slot}/e{position}", "bench.feed",
                collector.ingest, event)
        except Exception as error:  # noqa: BLE001 - counted as failed
            raised += 1
            print(f"stream-mesh: ingest raised {error!r}", file=sys.stderr)
            continue
        finally:
            segments.append(time.perf_counter() - t0)
        if event.kind is IOKind.FIB_UPDATE:
            latencies.append(segments[-1])
            report = verifier.last_report(event.prefix)
            answered += report is not None and report.consistent
    measured_s = time.perf_counter() - begun
    _measured_done(recorder)

    result = InputResult(setup_s=setup_s, measured_s=measured_s)
    result.op_latencies = latencies
    result.segments = segments
    result.attempted = len(latencies) + raised
    # A delta is answered when its prefix's §5 check finds the cut
    # consistent; otherwise its verdict waits on lagging logs.
    result.extra["events"] = len(order)
    result.extra["answered"] = answered
    result.hbg_size = (streaming.graph.edge_count(), len(streaming.graph))
    batch = InferenceEngine(config=streaming.engine.config).build_graph(events)
    if _canonical_graph(streaming.graph) != _canonical_graph(batch):
        result.problems.append(
            f"slot {slot}: streaming HBG differs from build_graph"
        )
    final = DataPlaneSnapshot.from_fib_events(events)
    expected = DataPlaneVerifier(net.topology, policies).verify(final)
    if _violation_keys(verifier.violations()) != _violation_keys(
        expected.violations
    ):
        result.problems.append(
            f"slot {slot}: incremental violations "
            f"{_violation_keys(verifier.violations())} != batch "
            f"{_violation_keys(expected.violations)}"
        )
    result.failed = raised + (len(latencies) if result.problems else 0)
    return result


# -- guard-mesh ------------------------------------------------------------


def _uplink_lps(net, specs) -> Dict[str, int]:
    lps = {}
    for spec in specs:
        name = f"{spec.router.lower()}-uplink-lp"
        lps[spec.router] = (
            net.configs.get(spec.router).route_maps[name].clauses[0].set_local_pref
        )
    return lps


def guard_mesh(slot: int, seed: int, recorder=None) -> InputResult:
    started = time.perf_counter()
    net, specs = build_random_network(
        GUARD_ROUTERS, uplinks=2, seed=seed, rng=random.Random(slot)
    )
    net.start()
    prefixes = external_prefixes(4)
    for prefix in prefixes:
        for spec in specs:
            net.announce_prefix(spec.external, prefix)
    net.run(40)
    preferred = max(specs, key=lambda s: s.local_pref)
    fallback = min(specs, key=lambda s: s.local_pref)
    uplink_of = {
        preferred.router: preferred.external,
        fallback.router: fallback.external,
    }
    policies = [
        PreferredExitPolicy(
            prefix=prefix,
            preferred_exit=preferred.router,
            fallback_exit=fallback.router,
            uplink_of=uplink_of,
        )
        for prefix in prefixes
    ]
    policies.append(LoopFreedomPolicy(prefixes=prefixes))
    campaign = misconfig_campaign(specs, rounds=GUARD_ROUNDS, seed=slot)
    setup_s = time.perf_counter() - started
    _measure_next(recorder)

    latencies: List[float] = []
    blocked = [0]
    harmful: Dict[int, bool] = {}

    def timed(guard):
        def guarded_write(router, old, new):
            t0 = time.perf_counter()
            if recorder is None:
                allowed = guard(router, old, new)
            else:
                allowed = recorder.op(
                    f"{slot}/w{len(latencies)}", "core.guard",
                    guard, router, old, new,
                )
            latencies.append(time.perf_counter() - t0)
            blocked[0] += not allowed
            return allowed

        return guarded_write

    # Network.set_fib_guard is the public interposition point the
    # pipeline arms; timing the guard it installs measures each write.
    net.set_fib_guard = lambda guard: Network.set_fib_guard(
        net, None if guard is None else timed(guard)
    )

    segments: List[float] = []

    def episode():
        mark = time.perf_counter()

        def cut():
            nonlocal mark
            now = time.perf_counter()
            segments.append(now - mark)
            mark = now

        pipeline = IntegratedControlPlane(net, policies, mode=PipelineMode.REPAIR)
        pipeline.arm()
        cut()
        for change in campaign:
            net.apply_config_change(change)
            lps = _uplink_lps(net, specs)
            harmful[change.change_id] = (
                lps[preferred.router] <= lps[fallback.router]
            )
            net.run(GUARD_CHANGE_GAP)
            cut()
        net.run(GUARD_SETTLE)
        cut()
        return pipeline

    captured = len(net.collector)
    t0 = time.perf_counter()
    pipeline = _op(recorder, f"{slot}/episode", "bench.guard_episode", episode)
    measured_s = time.perf_counter() - t0
    _measured_done(recorder)

    result = InputResult(setup_s=setup_s, measured_s=measured_s)
    result.op_latencies = latencies
    result.segments = segments
    result.attempted = len(latencies)
    result.extra["blocked"] = blocked[0]
    # Every guarded write gets its verdict before the write proceeds.
    result.extra["answered"] = len(latencies)
    result.extra["events"] = len(net.collector) - captured
    result.hbg_size = (pipeline.hbg.edge_count(), len(pipeline.hbg))
    noncompliant = 0
    for router in net.topology.internal_routers():
        for prefix in prefixes:
            path, outcome = net.trace_path(router, prefix.first_address())
            if outcome != "delivered" or preferred.external not in path:
                noncompliant += 1
                result.problems.append(
                    f"slot {slot}: {router} -> {prefix} ends "
                    f"{outcome} via {'->'.join(path)}"
                )
    # A guarded write whose incident reverted a change that did not put
    # the preferred uplink at or below the fallback gave a wrong result.
    position = {change.change_id: index for index, change in enumerate(campaign)}
    wrong_writes = 0
    for incident in pipeline.incidents:
        innocent = [
            action.change_reverted
            for action in (incident.repair.actions if incident.repair else ())
            if action.succeeded
            and not harmful.get(action.change_reverted.change_id, False)
        ]
        wrong_writes += bool(innocent)
        for change in innocent:
            result.problems.append(
                f"slot {slot}: reverted campaign change "
                f"{position.get(change.change_id, '(none)')} ({change.description} on "
                f"{change.router}), which left the preferred uplink above "
                f"the fallback"
            )
    result.failed = wrong_writes + (1 if noncompliant else 0)
    return result


# -- audit-rr --------------------------------------------------------------


def _zero_lag_keys(fib_events, verifier, at: float) -> List[tuple]:
    snapshot = DataPlaneSnapshot.from_fib_events(
        [e for e in fib_events if e.timestamp <= at], taken_at=at
    )
    return _violation_keys(verifier.verify(snapshot).violations)


def audit_rr(
    slot: int, seed: int, recorder=None, instants=AUDIT_INSTANTS
) -> InputResult:
    started = time.perf_counter()
    net, specs = build_scaled_network(
        AUDIT_ROUTERS, seed=slot, rng=random.Random(slot)
    )
    net.start()
    prefixes = external_prefixes(5)
    anchor = prefixes[0]
    for spec in specs:
        net.announce_prefix(spec.external, anchor, at=1.0)
    churn_workload(net, specs, prefixes[1:], events=10, start=2.0, seed=slot)
    preferred = max(specs, key=lambda s: s.local_pref)
    fallback = min(specs, key=lambda s: s.local_pref)
    map_name = f"{preferred.router.lower()}-uplink-lp"
    sabotage = ConfigChange(
        preferred.router,
        "set_route_map",
        key=map_name,
        value=local_pref_map(map_name, 1),
        description="sabotage preferred uplink",
    )
    net.apply_config_change(sabotage, at=AUDIT_SABOTAGE_AT)
    net.run(AUDIT_END)
    internal = net.topology.internal_routers()
    view = VerifierView(
        net.collector, lags=lag_map(internal, seed), default_lag=FAST_LAG
    )
    policies = [
        PreferredExitPolicy(
            prefix=anchor,
            preferred_exit=preferred.router,
            fallback_exit=fallback.router,
            uplink_of={
                preferred.router: preferred.external,
                fallback.router: fallback.external,
            },
        ),
        LoopFreedomPolicy(),
        BlackholeFreedomPolicy(),
    ]
    fib_events = net.collector.events_of_kind(IOKind.FIB_UPDATE)
    captured = len(net.collector)
    setup_s = time.perf_counter() - started
    _measure_next(recorder)

    verifier = DataPlaneVerifier(net.topology, policies)

    def audit(at: float):
        snapshotter = ConsistentSnapshotter(
            view, internal_routers=internal, engine=InferenceEngine()
        )
        snapshot, _report, got_at = snapshotter.wait_until_consistent(
            at, at + AUDIT_WAIT
        )
        if snapshot is None:
            return None, got_at
        verdict = verifier.verify(snapshot)
        if not verdict.ok:
            # The same walk IntegratedControlPlane.detect_and_repair
            # does: trace every snapshot entry along a violating path.
            graph = InferenceEngine().build_graph(view.visible_events(got_at))
            ids = []
            for violation in verdict.violations:
                if violation.prefix is None:
                    continue
                for hop in violation.path:
                    entry = snapshot.entry(hop, violation.prefix)
                    if entry is not None and entry.source_event_id in graph:
                        ids.append(entry.source_event_id)
            if ids:
                ProvenanceTracer(graph).trace_many(ids)
        return verdict, got_at

    latencies: List[float] = []
    outcomes = []
    for position, at in enumerate(instants):
        t0 = time.perf_counter()
        outcome = _op(recorder, f"{slot}/a{position}", "bench.audit", audit, at)
        latencies.append(time.perf_counter() - t0)
        outcomes.append((at, outcome))
    # The §6 offline path closes the run.  Its pipeline catches up on
    # the capture when built; that streaming build is not an audit, and
    # neither is the check of whether its snapshot will be consistent
    # (detect_and_repair reports a deferral and a clean verdict alike).
    _tracing(recorder, False)
    pipeline = IntegratedControlPlane(net, policies, mode=PipelineMode.REPAIR)
    final_snapshot, _report, final_at = ConsistentSnapshotter(
        view, internal_routers=internal, engine=InferenceEngine()
    ).wait_until_consistent(AUDIT_END, AUDIT_END + AUDIT_REPAIR_WAIT)
    expected_final = _zero_lag_keys(fib_events, verifier, final_at)
    _tracing(recorder, True)
    t0 = time.perf_counter()
    final = _op(
        recorder, f"{slot}/a{len(latencies)}", "bench.audit",
        pipeline.detect_and_repair, view, AUDIT_END, AUDIT_REPAIR_WAIT,
        AUDIT_REPAIR_SETTLE,
    )
    latencies.append(time.perf_counter() - t0)
    measured_s = sum(latencies)
    _measured_done(recorder)

    result = InputResult(setup_s=setup_s, measured_s=measured_s)
    result.op_latencies = latencies
    result.segments = latencies
    result.attempted = len(latencies)
    result.hbg_size = (pipeline.hbg.edge_count(), len(pipeline.hbg))
    answered = 0
    wrong = 0
    for at, (verdict, got_at) in outcomes:
        if verdict is None:
            continue
        answered += 1
        expected = _zero_lag_keys(fib_events, verifier, got_at)
        if _violation_keys(verdict.violations) != expected:
            wrong += 1
            result.problems.append(
                f"slot {slot}: audit at {at}s (snapshot {got_at:.2f}s) "
                f"found {len(verdict.violations)} violation(s), zero-lag "
                f"snapshot has {len(expected)}"
            )
    violations, repair = final
    if final_snapshot is None:
        if violations or repair is not None:
            wrong += 1
            result.problems.append(
                f"slot {slot}: detect_and_repair acted on an "
                f"inconsistent snapshot"
            )
    else:
        answered += 1
        wrong_final = _violation_keys(violations) != expected_final
        if wrong_final:
            result.problems.append(
                f"slot {slot}: detect_and_repair found "
                f"{len(violations)} violation(s), zero-lag snapshot has "
                f"{len(expected_final)}"
            )
        reverted = {
            a.change_reverted.change_id
            for a in (repair.actions if repair is not None else ())
            if a.succeeded
        }
        if expected_final and reverted != {sabotage.change_id}:
            wrong_final = True
            result.problems.append(
                f"slot {slot}: detect_and_repair reverted {sorted(reverted)}, "
                f"root cause is #{sabotage.change_id}"
            )
        for router in internal:
            path, outcome = net.trace_path(router, anchor.first_address())
            if outcome != "delivered" or preferred.external not in path:
                wrong_final = True
                result.problems.append(
                    f"slot {slot}: after repair {router} -> {anchor} "
                    f"ends {outcome} via {'->'.join(path)}"
                )
                break
        wrong += wrong_final
    result.extra["answered"] = answered
    result.extra["events"] = captured
    result.failed = wrong
    return result


WORKLOADS = {
    "stream-mesh": stream_mesh,
    "guard-mesh": guard_mesh,
    "audit-rr": audit_rr,
}

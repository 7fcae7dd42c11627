"""OBS — instrumentation-coverage rules.

PR 1 instrumented every pipeline stage with :mod:`repro.obs`; the
``repro stats --require`` CI gate then catches *silently dead*
metric sections at runtime.  OBS001 closes the static half of that
loop: the designated stage entry points must keep carrying a span or
metric, so a refactor cannot drop instrumentation without either
updating the catalogue below or failing the lint pass.

The flight recorder (``repro.obs.trace``) extends the same contract:
every function in ``TRACE_SITES`` must reference the bound
``recorder`` so a refactor cannot silently drop a trace-event kind
from the causal record.  ``tests/test_trace.py`` additionally asserts
that the kinds listed here and the recorder's :class:`TraceKind` enum
cannot drift apart.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.core import FileContext, Finding, Rule, Severity, register

#: module -> qualified names of functions that must be instrumented.
#: Keep in sync with docs/OBSERVABILITY.md's metric catalogue.
STAGE_ENTRY_POINTS: Dict[str, Sequence[str]] = {
    "repro.net.simulator": ("Simulator.run",),
    "repro.capture.collector": ("Collector.ingest",),
    "repro.hbr.inference": (
        "InferenceEngine.build_graph",
        "StreamingInference.observe",
    ),
    "repro.hbr.distributed": (
        "DistributedHbg.build_all",
        "DistributedHbg.merged_graph",
    ),
    "repro.snapshot.base": ("DataPlaneSnapshot.from_fib_events",),
    "repro.snapshot.consistent": ("ConsistentSnapshotter.snapshot",),
    "repro.verify.verifier": ("DataPlaneVerifier.verify",),
    "repro.verify.incremental": ("IncrementalVerifier.apply",),
    "repro.repair.provenance": ("ProvenanceTracer.trace",),
    "repro.core.pipeline": ("IntegratedControlPlane._guard",),
    "repro.testkit.runner": ("FuzzRunner.run",),
}

#: module -> (qualname, TraceKind member name) pairs: functions that
#: must record a flight-recorder event of that kind.  One entry per
#: :class:`repro.obs.trace.recorder.TraceKind` member — the drift
#: test in tests/test_trace.py enforces the bijection.
TRACE_SITES: Dict[str, Sequence[Tuple[str, str]]] = {
    "repro.net.simulator": (("Simulator.run", "SIM_EVENT"),),
    "repro.capture.collector": (("Collector.ingest", "IO_CAPTURED"),),
    "repro.hbr.inference": (
        ("InferenceEngine._edges_into", "HBR_EDGE"),
    ),
    "repro.snapshot.base": (
        ("DataPlaneSnapshot.from_fib_events", "SNAPSHOT_BUILD"),
    ),
    "repro.verify.verifier": (
        ("DataPlaneVerifier.verify", "VERIFY_VERDICT"),
    ),
    "repro.repair.provenance": (
        ("ProvenanceTracer.trace", "PROVENANCE_WALK"),
    ),
    "repro.repair.rollback": (("RepairEngine.repair", "ROLLBACK"),),
    "repro.obs.health": (("HealthEngine.evaluate", "HEALTH"),),
}

#: module -> (qualname, ledger component) pairs: functions that must
#: register a long-lived structure with the resource ledger.  One
#: entry per component in
#: :data:`repro.obs.resources.KNOWN_COMPONENTS` — the drift test in
#: tests/test_resources.py enforces the bijection.
LEDGER_SITES: Dict[str, Sequence[Tuple[str, str]]] = {
    "repro.hbr.graph": (("HappensBeforeGraph.__init__", "hbr.graph"),),
    # Registration moved out of __init__ into the explicit track()
    # opt-in so the forked workers of DistributedHbg.build_all can
    # build untracked indices (CONC001 — a worker-side registration
    # dies with the fork).
    "repro.hbr.index": (("EventIndex.track", "hbr.index"),),
    "repro.snapshot.consistent": (
        ("ConsistentSnapshotter.__init__", "snapshot.closure_cache"),
    ),
    "repro.obs.trace.recorder": (
        ("FlightRecorder.__init__", "obs.recorder"),
    ),
    "repro.obs.ledger": (("VerdictLedger.__init__", "obs.verdicts"),),
    "repro.testkit.runner": (("FuzzRunner.run", "testkit.corpus"),),
}

#: module -> (qualname, verdict kind) pairs: functions that must
#: append to the verdict ledger (:mod:`repro.obs.ledger`).  One entry
#: per kind in :data:`repro.obs.ledger.KINDS` — the drift test in
#: tests/test_verdicts.py enforces the bijection, so a refactor
#: cannot silently drop a verdict kind from the continuous record.
VERDICT_SITES: Dict[str, Sequence[Tuple[str, str]]] = {
    "repro.verify.verifier": (("DataPlaneVerifier.verify", "snapshot"),),
    "repro.verify.incremental": (
        ("IncrementalVerifier.apply", "incremental"),
    ),
    "repro.repair.rollback": (("RepairEngine.repair", "rollback"),),
}

#: Names whose presence in a function body counts as instrumentation.
#: The canonical idiom binds ``registry = obs.get_registry()`` (or
#: uses ``obs.span`` / ``@obs.traced`` / ``obs.Stopwatch``), so a
#: reference to ``obs`` — or to an already-bound registry/tracer —
#: is the reliable witness.
_OBS_NAMES = frozenset({"obs", "registry", "tracer"})

#: The witness for a trace site is the bound recorder itself: every
#: site follows ``recorder = obs.get_recorder()`` + one
#: ``recorder.enabled`` guard, so a mere ``obs`` reference (metrics
#: only) must NOT satisfy the trace-site check.
_TRACE_NAMES = frozenset({"recorder"})

#: Likewise for ledger registration sites: the canonical idiom binds
#: ``ledger = obs.get_ledger()`` and guards on ``ledger.enabled``, so
#: the bound ledger is the witness.
_LEDGER_NAMES = frozenset({"ledger"})

#: And for verdict sites: ``verdicts = obs.get_verdicts()`` plus one
#: ``verdicts.enabled`` guard, so the bound verdict ledger is the
#: witness (a metrics-only ``obs`` reference must not satisfy it).
_VERDICT_NAMES = frozenset({"verdicts"})


def _collect_functions(
    tree: ast.AST,
) -> Dict[str, ast.AST]:
    """Map ``Class.method`` / ``function`` qualnames to their nodes."""
    found: Dict[str, ast.AST] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                found[qualname] = child
                walk(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def _references_names(func: ast.AST, names: frozenset) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in names:
            return True
    return False


def _references_obs(func: ast.AST) -> bool:
    return _references_names(func, _OBS_NAMES)


@register
class InstrumentationRule(Rule):
    """OBS001: stage entry points must carry a span or metric."""

    name = "OBS001"
    severity = Severity.ERROR
    description = (
        "pipeline-stage entry point carries no repro.obs span/metric "
        "(or the STAGE_ENTRY_POINTS catalogue is stale)"
    )
    # No per-node work: the whole check runs over the parsed tree once
    # per file, and only for modules in the catalogue.
    node_types = ()

    def __init__(
        self,
        entry_points: Optional[Dict[str, Sequence[str]]] = None,
        trace_sites: Optional[Dict[str, Sequence[Tuple[str, str]]]] = None,
        ledger_sites: Optional[Dict[str, Sequence[Tuple[str, str]]]] = None,
        verdict_sites: Optional[Dict[str, Sequence[Tuple[str, str]]]] = None,
    ) -> None:
        self.entry_points = (
            entry_points if entry_points is not None else STAGE_ENTRY_POINTS
        )
        self.trace_sites = (
            trace_sites if trace_sites is not None else TRACE_SITES
        )
        self.ledger_sites = (
            ledger_sites if ledger_sites is not None else LEDGER_SITES
        )
        self.verdict_sites = (
            verdict_sites if verdict_sites is not None else VERDICT_SITES
        )

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.module in self.entry_points
            or ctx.module in self.trace_sites
            or ctx.module in self.ledger_sites
            or ctx.module in self.verdict_sites
        )

    def finish_file(self, ctx: FileContext) -> Optional[Iterable[Finding]]:
        functions = _collect_functions(ctx.tree)
        findings: List[Finding] = []
        for qualname in self.entry_points.get(ctx.module, ()):
            func = functions.get(qualname)
            if func is None:
                findings.append(
                    ctx.finding(
                        self,
                        ctx.tree,
                        f"configured stage entry point '{qualname}' not "
                        "found; update STAGE_ENTRY_POINTS in "
                        "repro/lint/rules/obs_rules.py",
                        severity=Severity.ERROR,
                    )
                )
                continue
            if not _references_obs(func):
                findings.append(
                    ctx.finding(
                        self,
                        func,
                        f"stage entry point '{qualname}' has no repro.obs "
                        "instrumentation (span, counter, histogram or "
                        "stopwatch)",
                    )
                )
        for qualname, kind in self.trace_sites.get(ctx.module, ()):
            func = functions.get(qualname)
            if func is None:
                findings.append(
                    ctx.finding(
                        self,
                        ctx.tree,
                        f"configured trace site '{qualname}' not found; "
                        "update TRACE_SITES in "
                        "repro/lint/rules/obs_rules.py",
                        severity=Severity.ERROR,
                    )
                )
                continue
            if not _references_names(func, _TRACE_NAMES):
                findings.append(
                    ctx.finding(
                        self,
                        func,
                        f"trace site '{qualname}' does not reference the "
                        f"flight recorder (must record TraceKind.{kind}; "
                        "bind it via obs.get_recorder())",
                    )
                )
        for qualname, component in self.ledger_sites.get(ctx.module, ()):
            func = functions.get(qualname)
            if func is None:
                findings.append(
                    ctx.finding(
                        self,
                        ctx.tree,
                        f"configured ledger site '{qualname}' not found; "
                        "update LEDGER_SITES in "
                        "repro/lint/rules/obs_rules.py",
                        severity=Severity.ERROR,
                    )
                )
                continue
            if not _references_names(func, _LEDGER_NAMES):
                findings.append(
                    ctx.finding(
                        self,
                        func,
                        f"ledger site '{qualname}' does not reference the "
                        f"resource ledger (must register component "
                        f"'{component}'; bind it via obs.get_ledger())",
                    )
                )
        for qualname, kind in self.verdict_sites.get(ctx.module, ()):
            func = functions.get(qualname)
            if func is None:
                findings.append(
                    ctx.finding(
                        self,
                        ctx.tree,
                        f"configured verdict site '{qualname}' not found; "
                        "update VERDICT_SITES in "
                        "repro/lint/rules/obs_rules.py",
                        severity=Severity.ERROR,
                    )
                )
                continue
            if not _references_names(func, _VERDICT_NAMES):
                findings.append(
                    ctx.finding(
                        self,
                        func,
                        f"verdict site '{qualname}' does not reference the "
                        f"verdict ledger (must record kind '{kind}'; bind "
                        "it via obs.get_verdicts())",
                    )
                )
        return findings

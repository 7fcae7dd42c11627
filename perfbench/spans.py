"""Span recording from the benchmark's side of each layer boundary.

The traced run wraps public functions of the program (class
attributes, patched for the duration of the traced pass and restored
afterwards) so every call records one span: name, start, end, the
span that caused it, and the id of the operation (one FIB delta, one
guarded write, one audit) it belongs to.  Spans stay in memory and
are written out once, when the run ends.

Self time is a span's duration minus the part of it its child spans
cover; calls are single-threaded and strictly nested, so children
never overlap one another.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.capture.collector import Collector
from repro.core.pipeline import IntegratedControlPlane
from repro.hbr.inference import InferenceEngine, StreamingInference
from repro.protocols.network import Network
from repro.repair.provenance import ProvenanceTracer
from repro.repair.rollback import RepairEngine
from repro.snapshot.base import DataPlaneSnapshot, VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.verify.incremental import IncrementalVerifier
from repro.verify.verifier import DataPlaneVerifier


def _events_in(_args, graph) -> int:
    return len(graph)


def _events_given(args, _snapshot) -> int:
    events = args[1]
    return len(events) if hasattr(events, "__len__") else 0


def _reverts_in(_args, report) -> int:
    return sum(1 for action in report.actions if action.succeeded)


#: (owner, attribute, span name, size hook) for every public layer
#: function the traced run wraps.  The guard the pipeline installs is
#: wrapped where it is armed (``core.guard``, see workloads.py).  A
#: function the program no longer defines is skipped, and its metrics
#: read 0.
LAYER_FUNCTIONS = (
    (Collector, "ingest", "capture.ingest", None),
    (StreamingInference, "observe", "hbr.observe", None),
    (InferenceEngine, "build_graph", "hbr.build_graph", _events_in),
    (ConsistentSnapshotter, "wait_until_consistent", "snapshot.wait", None),
    (ConsistentSnapshotter, "snapshot", "snapshot.snapshot", None),
    (ConsistentSnapshotter, "check", "snapshot.check", None),
    (VerifierView, "visible_events", "snapshot.visible_events", None),
    (DataPlaneSnapshot, "from_fib_events", "snapshot.from_fib_events", _events_given),
    (DataPlaneSnapshot, "all_prefixes", "snapshot.all_prefixes", None),
    (DataPlaneVerifier, "verify", "verify.verify", None),
    (DataPlaneVerifier, "new_violations_from", "verify.new_violations_from", None),
    (
        DataPlaneVerifier,
        "with_hypothetical_entry",
        "verify.with_hypothetical_entry",
        None,
    ),
    (IncrementalVerifier, "ingest", "verify.incremental_ingest", None),
    (IncrementalVerifier, "apply", "verify.incremental_apply", None),
    (ProvenanceTracer, "trace_many", "repair.trace_many", None),
    (ProvenanceTracer, "trace", "repair.trace", None),
    (RepairEngine, "repair", "repair.repair", _reverts_in),
    (IntegratedControlPlane, "detect_and_repair", "core.detect_and_repair", None),
    (Network, "run", "net.run", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    op: str
    #: Σ duration of direct children (filled as children close).
    child_s: float = 0.0
    #: Optional size attribute (e.g. events handed to a graph build).
    size: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = "-"
        self._patches: List[tuple] = []
        #: Wrappers record only while active; set-up and checks run
        #: with the wrappers installed but inactive.
        self.active = False

    # -- recording ----------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs, size=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.duration
        if size is not None:
            span.size = size(args, result)
        return result

    def op(self, op_id: str, name: str, fn: Callable, *args, **kwargs):
        """Run one benchmark operation as a root span with its own id."""
        previous = self._op
        self._op = op_id
        try:
            return self.call(name, fn, args, kwargs)
        finally:
            self._op = previous

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function (inactive until ``active`` is set)."""
        for owner, attr, name, size in LAYER_FUNCTIONS:
            if attr not in owner.__dict__:
                continue
            if isinstance(owner.__dict__[attr], classmethod):
                self.wrap_classmethod(owner, attr, name, size)
            else:
                self.wrap_method(owner, attr, name, size)

    def wrap_method(self, owner: type, attr: str, name: str, size=None) -> None:
        original = owner.__dict__[attr]
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, size)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_classmethod(self, owner: type, attr: str, name: str, size=None) -> None:
        original = owner.__dict__[attr]
        func = original.__func__
        recorder = self

        def wrapper(cls, *args, **kwargs):
            return recorder.call(name, func, (cls,) + args, kwargs, size)

        setattr(owner, attr, classmethod(wrapper))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, size sum."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0}
        )
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["s"] += span.duration
            entry["self_s"] += span.self_s
            if span.size is not None:
                entry["size"] += span.size
        return out

    def dump(self, handle) -> None:
        """Write every span as one JSON line to an open text file."""
        for index, span in enumerate(self.spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "op": span.op,
                        "self_s": span.self_s,
                    }
                )
                + "\n"
            )

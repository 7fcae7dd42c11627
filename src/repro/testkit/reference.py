"""The window-rescan reference HBG build, for differential tests.

The production engine (:class:`repro.hbr.inference.StreamingInference`)
answers candidate lookups from the inverted indices of
:mod:`repro.hbr.index` and re-links earlier consequents as late
causes arrive.  This is the plain implementation those optimisations
must agree with: sort the capture once, and for every consequent
rescan the time window ``[cons.t - window, cons.t + skew]`` of the
whole stream, with the engine's own rule matching and edge choice.
It is slow (O(N) per lookup) and exists only so the
``hbg-indexed-equivalence`` oracle and the determinism gate can hold
every build path to it.
"""

from __future__ import annotations

import bisect
from types import SimpleNamespace
from typing import Iterable

from repro.capture.io_events import IOEvent
from repro.hbr.graph import HappensBeforeGraph
from repro.hbr.inference import InferenceEngine, _admissible


def reference_graph(
    engine: InferenceEngine, events: Iterable[IOEvent]
) -> HappensBeforeGraph:
    """The HBG ``engine`` infers for ``events``, by window rescan.

    Emits no metrics or trace records: a reference path is not a
    pipeline cost.
    """
    ordered = sorted(events, key=lambda e: (e.timestamp, e.event_id))
    times = [event.timestamp for event in ordered]
    skew = engine.config.clock_skew_tolerance

    def window(cons: IOEvent, width: float, _plan=None):
        # The forward allowance is the timestamp technique's skew
        # tolerance: a cause on another (skewed) router may carry a
        # slightly *later* logged timestamp than its effect.
        start = bisect.bisect_left(times, cons.timestamp - width)
        end = bisect.bisect_right(times, cons.timestamp + skew)
        return _admissible(cons, ordered[start:end])

    source = SimpleNamespace(rule_candidates=window, window_candidates=window)
    graph = HappensBeforeGraph()
    for event in ordered:
        graph.add_event(event)
    for cons in ordered:
        for ante, evidence in engine._infer_edges(cons, source):
            graph.add_edge(ante.event_id, cons.event_id, evidence)
    return graph

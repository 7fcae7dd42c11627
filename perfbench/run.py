"""Layered benchmark of the paper's three operating modes.

    python3 perfbench/run.py --workload stream-mesh --seed 1 \
        --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists and what it predicts):

* ``stream-mesh`` — continuous verification (§5): arrival-order feed
  through ``Collector.ingest`` into full-relink streaming inference and
  an ``IncrementalVerifier`` with loop- and blackhole-freedom policies;
* ``guard-mesh`` — the Fig. 3 FIB guard in REPAIR mode while a
  local-pref misconfiguration campaign runs;
* ``audit-rr`` — offline §5/§6 audits of a route-reflector network at
  fixed instants, ending with ``detect_and_repair``.

Each workload has a fixed list of input slots (see workloads.py); the
seed varies timing jitter and log lags within each slot.  Inputs are
deterministic, so every slot is processed in at least ``REPEATS``
rounds and each operation's time is its fastest repeat, as ``timeit``
does: shared virtual CPUs change speed by tens of percent, in spells
that last up to half a minute, and the fastest repeat is what the
program costs without that interference.

``--trace 0`` runs rounds over all slots until at least ``REPEATS``
rounds are done and ``--seconds`` seconds have passed, so the repeats
of each operation are spread over the whole run, and reports the
end-to-end metrics.  ``--trace 1`` processes the first slot
``TRACE_REPEATS`` times plain and as often with every layer function
wrapped in spans, and reports the per-layer metrics of the fastest
traced repeat; its spans are written to ``perfbench/out/``.
Every output of every repeat is checked in both modes.  The last
stdout line is one JSON object.

Runs single-threaded in one process; it builds nothing and needs only
the repository's ``src/`` tree.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Identical repeats of every input; each operation keeps its fastest.
REPEATS = 5
#: The traced run processes the first slot TRACE_REPEATS times plain
#: and TRACE_REPEATS times traced.
TRACE_REPEATS = 3


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(share * len(ordered) + 0.5) - 1))
    return ordered[rank]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def process(workloads, name: str, slot: int, seed: int, recorder=None):
    """One input; an input that raises counts as one failed operation
    and charges its wall time as measured, so a run still ends."""
    # Start from a collected heap, so set-up does not pay for the
    # previous input's garbage.
    gc.collect()
    started = time.perf_counter()
    if recorder is not None:
        recorder.install()
    try:
        return workloads.WORKLOADS[name](slot, seed, recorder)
    except Exception:  # noqa: BLE001 - reported and counted as failed
        traceback.print_exc()
        result = workloads.InputResult(
            setup_s=0.0, measured_s=time.perf_counter() - started
        )
        result.attempted = result.failed = 1
        result.problems.append(f"slot {slot}: raised")
        return result
    finally:
        if recorder is not None:
            recorder.uninstall()


def piecewise_min(repeats, field: str):
    """Element-wise minimum of one list field over identical repeats;
    the fastest repeat's list if the repeats did not run alike."""
    lists = [getattr(r, field) for r in repeats]
    if len({len(values) for values in lists}) != 1:
        return getattr(min(repeats, key=lambda r: r.measured_s), field)
    return [min(values) for values in zip(*lists)]


def best_of(repeats):
    """(events, per-operation fastest latencies, fastest measured
    seconds as the sum of each segment's fastest repeat) of one slot."""
    return (
        repeats[0].extra.get("events", 0),
        piecewise_min(repeats, "op_latencies"),
        sum(piecewise_min(repeats, "segments")),
    )


def end_to_end(by_slot) -> dict:
    """The end-to-end metrics; every workload reports all of them.

    An operation is one FIB delta fed (stream-mesh), one guarded FIB
    write (guard-mesh) or one audit (audit-rr); an input's measured
    seconds are its whole feed, its armed episode, or all its audits.
    """
    results = [r for repeats in by_slot for r in repeats]
    best = [best_of(repeats) for repeats in by_slot]
    latencies = [x for _events, ops, _seconds in best for x in ops] or [0.0]
    setups = [r.setup_s for r in results if r.setup_s > 0] or [0.0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
        "op_latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "op_latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "input_s": (
            statistics.mean(seconds for _events, _ops, seconds in best),
            "s",
        ),
        "events_per_s": (
            ratio(
                sum(events for events, _ops, _seconds in best),
                sum(seconds for _events, _ops, seconds in best),
            ),
            "1/s",
        ),
        "answered_ratio": (
            ratio(
                sum(r.extra.get("answered", 0) for r in results),
                sum(r.attempted for r in results),
            ),
            "ratio",
        ),
    }


def per_layer(result, recorder, plain_s: float, cache) -> dict:
    """Per-layer metrics of one traced input.

    ``plain_s`` is the fastest measured seconds of the same input run
    plain; ``cache`` the program's (closure-cache hits, misses).
    """
    totals = recorder.totals()

    def get(span: str, key: str) -> float:
        return totals[span][key] if span in totals else 0

    audits = get("bench.audit", "calls")
    builds = get("hbr.build_graph", "calls")
    guards = get("core.guard", "calls")
    layer_self = sum(
        entry["self_s"]
        for span, entry in totals.items()
        if not span.startswith("bench.")
    )
    counts = {
        "capture.ingest.calls": get("capture.ingest", "calls"),
        "hbr.observe.calls": get("hbr.observe", "calls"),
        "hbr.build_graph.calls": builds,
        "snapshot.snapshot.calls": get("snapshot.snapshot", "calls"),
        "snapshot.from_fib_events.calls": get("snapshot.from_fib_events", "calls"),
        "verify.verify.calls": get("verify.verify", "calls"),
        "verify.incremental_apply.calls": get("verify.incremental_apply", "calls"),
        "repair.trace.calls": get("repair.trace", "calls"),
        "repair.repair.calls": get("repair.repair", "calls"),
        "repair.reverts": get("repair.repair", "size"),
        "core.guard.calls": guards,
    }
    seconds = {
        "capture.ingest.self_s": get("capture.ingest", "self_s"),
        "hbr.observe.self_s": get("hbr.observe", "self_s"),
        "hbr.build_graph.s": get("hbr.build_graph", "s"),
        "snapshot.snapshot.self_s": get("snapshot.snapshot", "self_s"),
        "snapshot.visible_events.s": get("snapshot.visible_events", "s"),
        "snapshot.from_fib_events.s": get("snapshot.from_fib_events", "s"),
        "snapshot.all_prefixes.s": get("snapshot.all_prefixes", "s"),
        "verify.verify.s": get("verify.verify", "s"),
        "verify.new_violations_from.self_s": get(
            "verify.new_violations_from", "self_s"
        ),
        "verify.incremental_apply.s": get("verify.incremental_apply", "s"),
        "verify.incremental_ingest.self_s": get(
            "verify.incremental_ingest", "self_s"
        ),
        "repair.trace.s": get("repair.trace", "s"),
        "repair.repair.s": get("repair.repair", "s"),
        "net.run.self_s": get("net.run", "self_s"),
    }
    ratios = {
        "hbr.edges_per_event": ratio(*result.hbg_size),
        "hbr.build_graph.events": ratio(get("hbr.build_graph", "size"), builds),
        "hbr.builds_per_audit": ratio(builds, audits),
        "snapshot.polls_per_audit": ratio(get("snapshot.snapshot", "calls"), audits),
        "snapshot.from_fib_events.events": ratio(
            get("snapshot.from_fib_events", "size"),
            get("snapshot.from_fib_events", "calls"),
        ),
        "snapshot.closure_hit_ratio": ratio(cache[0], cache[0] + cache[1]),
        "core.guard.blocked_ratio": ratio(result.extra.get("blocked", 0), guards),
        "obs.trace_overhead_ratio": ratio(result.measured_s, plain_s),
        "obs.attributed_ratio": ratio(layer_self, result.measured_s),
    }
    metrics = {k: (float(v), "count") for k, v in counts.items()}
    metrics.update({k: (float(v), "s") for k, v in seconds.items()})
    metrics.update({k: (float(v), "ratio") for k, v in ratios.items()})
    return metrics


def run_traced(workloads, obs, name: str, seed: int, slot: int, slot_seed: int):
    """The first slot, TRACE_REPEATS times plain and as often traced."""
    from spans import SpanRecorder  # noqa: E402 - needs the src path

    plain, traced = [], []
    for _ in range(TRACE_REPEATS):
        plain.append(process(workloads, name, slot, slot_seed))
        recorder = SpanRecorder()
        # The program's own closure-cache counters ride along.
        with obs.capturing() as (registry, _tracer):
            result = process(workloads, name, slot, slot_seed, recorder)
            cache = (
                registry.counter("snapshot.closure_cache_hits").value,
                registry.counter("snapshot.closure_cache_misses").value,
            )
        traced.append((result, recorder, cache))
    fastest, recorder, cache = min(traced, key=lambda item: item[0].measured_s)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-s{seed}.jsonl", "w", encoding="utf-8") as out:
        recorder.dump(out)
    metrics = per_layer(
        fastest,
        recorder,
        min(r.measured_s for r in plain),
        cache,
    )
    return plain + [result for result, _recorder, _cache in traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream-mesh", "guard-mesh", "audit-rr"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - needs the src path above
    from repro import obs  # noqa: E402

    slots = workloads.SLOTS[args.workload]
    seeds = workloads.slot_seeds(args.seed, len(slots))
    if args.trace:
        results, metrics = run_traced(
            workloads, obs, args.workload, args.seed, slots[0], seeds[0]
        )
        attempted = results[0].attempted
        failed = max(r.failed for r in results)
        samples = len(results[0].op_latencies)
    else:
        by_slot = [[] for _ in slots]
        deadline = time.perf_counter() + args.seconds
        while len(by_slot[0]) < REPEATS or time.perf_counter() < deadline:
            for repeats, slot, seed in zip(by_slot, slots, seeds):
                repeats.append(process(workloads, args.workload, slot, seed))
        results = [r for repeats in by_slot for r in repeats]
        metrics = end_to_end(by_slot)
        # Repeats are the same operations again: count each operation
        # once, and as failed if it failed in any repeat.
        attempted = sum(repeats[0].attempted for repeats in by_slot)
        failed = sum(max(r.failed for r in repeats) for repeats in by_slot)
        samples = sum(len(repeats[0].op_latencies) for repeats in by_slot)

    problems = sorted({p for r in results for p in r.problems})
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} inputs processed, percentiles over {samples} "
          f"operations, "
          f"{attempted} attempted, {failed} failed "
          f"(failed_ops_ratio {ratio(failed, attempted):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

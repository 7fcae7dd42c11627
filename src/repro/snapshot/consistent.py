"""The HBG-based consistent snapshotter (§5).

    "To obtain a consistent snapshot — i.e., one that reflects the
    FIB entries a packet would encounter as it traverses the network
    at a specific instance in time — we simply need to ensure that if
    a FIB snapshot from one router (R) was taken after applying a
    route update (U), then the FIB snapshot from every other router
    that had previously received U must also have been taken after
    applying U."

The check walks exactly the recursion the paper describes: starting
from each FIB update in the candidate cut, follow its advertisement
parents backwards.  A receive without its matching send in the HBG
means some router's I/Os have not arrived yet ("all router I/Os have
not been received and integrated into the HBG, so we may be missing
some FIB updates") — the snapshot is declared inconsistent and the
verifier is told which routers to wait for.  The walk terminates at
FIB updates that do not depend on an advertisement, or when "the
router from which the update was received is external to the
network".

This is a Chandy–Lamport-style consistent-cut condition specialised
to the HBG: the visible event set must be causally closed along
advertisement edges.

:meth:`ConsistentSnapshotter.snapshot` checks against an HBG it keeps
up to date, not one rebuilt per call: one
:class:`~repro.hbr.inference.StreamingInference` plus a visibility
frontier.  Visibility only grows as ``at`` grows, so each poll feeds
the stream just the events that became visible since the last one; an
``at`` before the frontier starts a fresh stream.

Two memoization regimes share the walk:

* **batch** (default): memos are scoped to one :meth:`check` call and
  reset at its top — the historical behaviour, correct for any graph.
* **persistent** (``persistent_memo=True``): memos survive across
  checks so the incremental verifier can re-check one prefix per FIB
  delta at near-constant cost.  Correctness then depends on
  *invalidation*: every cached walk records the event ids and FIB
  buckets it traversed, and :meth:`invalidate_event` /
  :meth:`note_fib_event` drop exactly the entries whose inputs
  changed.  :meth:`invalidate` is the big hammer for rollback replay
  (see docs/INCREMENTAL_VERIFY.md): replaying a capture re-uses event
  ids, so any memo entry may silently describe a different event —
  persistent snapshotters must be invalidated wholesale before a
  replay's events are fed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.capture.io_events import IOEvent, IOKind
from repro.hbr.graph import HappensBeforeGraph
from repro.hbr.inference import InferenceEngine, StreamingInference
from repro.net.addr import Prefix
from repro.snapshot.base import DataPlaneSnapshot, VerifierView


#: Distinguishes "memoized as absent" from "not yet memoized".
_UNSET: object = object()

#: Sorts after every real event id in the FIB-table bisect probes.
_AFTER_ANY_ID = float("inf")


@dataclass
class ConsistencyReport:
    """Outcome of the §5 consistency check."""

    consistent: bool
    #: Internal routers whose logs the verifier must wait for.
    missing_routers: Set[str] = field(default_factory=set)
    #: Human-readable explanations, one per problem found.
    reasons: List[str] = field(default_factory=list)
    #: Number of walk steps performed (benchmark instrumentation).
    steps: int = 0

    def merge(self, other: "ConsistencyReport") -> None:
        self.consistent = self.consistent and other.consistent
        self.missing_routers.update(other.missing_routers)
        self.reasons.extend(other.reasons)
        self.steps += other.steps


class ConsistentSnapshotter:
    """Snapshots that pass the §5 HBG closure check."""

    def __init__(
        self,
        view: Optional[VerifierView],
        internal_routers: Sequence[str],
        engine: Optional[InferenceEngine] = None,
        inflight_bound: float = 0.1,
        max_unmatched_age: Optional[float] = 30.0,
        persistent_memo: bool = False,
    ):
        self.view = view
        self.internal_routers = set(internal_routers)
        self.engine = engine or InferenceEngine()
        #: Propagation bound used only to phrase the deferral reason
        #: ("in flight" vs "log lagging"); both defer regardless.
        self.inflight_bound = inflight_bound
        #: After this long, an unmatched send is presumed lost (e.g. a
        #: partition swallowed it) and stops deferring snapshots.
        self.max_unmatched_age = max_unmatched_age
        #: Keep memos across checks (the incremental verifier's mode).
        #: The owner must then feed :meth:`note_fib_event` for every
        #: FIB update and :meth:`invalidate_event` for every event
        #: whose in-edges the streaming layer re-inferred; batch
        #: :meth:`snapshot` is unsupported (its own stream re-links
        #: events the owner never hears about, which would poison the
        #: caches).
        self.persistent_memo = persistent_memo
        #: The HBG behind :meth:`snapshot`: one stream holding every
        #: event visible at ``_frontier`` (see :meth:`_graph_at`).
        self._stream: Optional[StreamingInference] = None
        self._frontier = float("-inf")
        # §5 recursion memos, bucketed per prefix (a walk never
        # crosses prefixes: advertisement ancestry follows same-prefix
        # route events only).  Per-prefix buckets make both the batch
        # reset and the persistent invalidation O(1) per bucket.
        # Ancestor entries are (receives, traversed-ids); closure
        # entries are (report, dependency-keys).
        self._ancestor_memo: Dict[
            Optional[Prefix], Dict[int, Tuple[List[IOEvent], frozenset]]
        ] = {}
        self._send_memo: Dict[Optional[Prefix], Dict[int, object]] = {}
        self._closure_memo: Dict[
            Optional[Prefix], Dict[int, Tuple[ConsistencyReport, frozenset]]
        ] = {}
        #: prefix -> dependency key -> memo entries to drop when the
        #: dependency changes.  Keys are traversed event ids, plus
        #: ("fib", router) for FIB-table reads.  Entries for already
        #: dropped memos linger harmlessly (pops are no-ops).
        self._dep_index: Dict[Optional[Prefix], Dict[object, Set[Tuple[str, int]]]] = {}
        #: (router, prefix) -> largest ``when + slack`` cutoff any
        #: cached walk queried the FIB table with; a new FIB event at
        #: or before it can change those walks' answers.
        self._max_cutoff: Dict[Tuple[str, Prefix], float] = {}
        self._fib_table: Optional[
            Dict[Tuple[str, Prefix], List[Tuple[float, int, IOEvent]]]
        ] = {} if persistent_memo else None
        self._memo_hits = 0
        self._memo_misses = 0
        ledger = obs.get_ledger()
        if ledger.enabled:
            ledger.register("snapshot.closure_cache", self)

    def account_bytes(self, audit: bool = False) -> int:
        """Resident bytes of the closure/ancestor caches (ledger)."""
        from repro.obs import resources

        return resources.combined_sizeof(
            (
                self._ancestor_memo,
                self._send_memo,
                self._closure_memo,
                self._dep_index,
                self._fib_table,
            ),
            sample=None if audit else obs.get_ledger().sample,
        )

    # -- public API -------------------------------------------------------

    def snapshot(
        self, at: float, prefix: Optional[Prefix] = None
    ) -> Tuple[DataPlaneSnapshot, ConsistencyReport]:
        """Build the snapshot visible at ``at`` and check consistency.

        With ``prefix`` given, only that prefix's update chains are
        checked (the per-prefix mode the verifier uses when reacting
        to a specific FIB update); otherwise every prefix seen in any
        FIB event is checked.
        """
        if self.persistent_memo:
            raise RuntimeError(
                "snapshot() maintains its own graph, whose re-links "
                "would poison persistent memos; use check_incremental() "
                "(or a batch snapshotter) instead"
            )
        if self.view is None:
            raise RuntimeError("snapshot() needs a VerifierView")
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        visible = self.view.visible_events(at)
        graph = self._graph_at(at, visible)
        snapshot = DataPlaneSnapshot.from_fib_events(visible, taken_at=at)
        report = self.check(graph, visible, prefix=prefix, at=at)
        if registry.enabled:
            registry.counter("snapshot.consistency_checks_total").inc()
            if not report.consistent:
                registry.counter("snapshot.inconsistent_total").inc()
            registry.histogram("snapshot.consistency_check_seconds").observe(
                watch.elapsed()
            )
            registry.histogram("snapshot.walk_steps").observe(report.steps)
        return snapshot, report

    @property
    def graph(self) -> Optional[HappensBeforeGraph]:
        """The HBG of the latest :meth:`snapshot` (None before one)."""
        return self._stream.graph if self._stream is not None else None

    def _graph_at(
        self, at: float, visible: Sequence[IOEvent]
    ) -> HappensBeforeGraph:
        """The HBG of ``visible`` — the events visible at ``at``.

        Extends the maintained stream with the visible events it does
        not hold yet: those whose arrival falls in (frontier, at], plus
        any a live collector captured since the last poll.  An ``at``
        before the frontier would have to drop events, so it starts a
        fresh stream instead.
        """
        if self._stream is None or at < self._frontier:
            self._stream = self.engine.streaming()
        graph = self._stream.graph
        self._stream.extend(
            [event for event in visible if event.event_id not in graph]
        )
        self._frontier = at
        return graph

    def wait_until_consistent(
        self,
        start: float,
        deadline: float,
        step: float = 0.05,
        prefix: Optional[Prefix] = None,
    ) -> Tuple[Optional[DataPlaneSnapshot], ConsistencyReport, float]:
        """§7's remedy: "the verifier can wait until it receives the
        up-to-date HBG from R1 before verifying the data plane."

        Polls forward in time until the snapshot is consistent or the
        deadline passes.  Returns (snapshot-or-None, last report,
        time of the returned snapshot).
        """
        when = start
        with obs.span("snapshot.wait_until_consistent"):
            snapshot, report = self.snapshot(when, prefix=prefix)
            while not report.consistent and when < deadline:
                when = min(deadline, when + step)
                snapshot, report = self.snapshot(when, prefix=prefix)
        registry = obs.get_registry()
        if registry.enabled:
            # Simulated seconds the verifier deferred past ``start``
            # waiting for straggler logs (§7's remedy).
            registry.histogram("snapshot.wait_sim_seconds").observe(
                when - start
            )
            if not report.consistent:
                registry.counter("snapshot.wait_deadline_exceeded_total").inc()
        if report.consistent:
            return snapshot, report, when
        return None, report, when

    # -- persistent-memo maintenance --------------------------------------

    def note_fib_event(self, event: IOEvent) -> None:
        """Incrementally maintain the per-(router, prefix) FIB table.

        The persistent-memo replacement for the lazy batch build in
        :meth:`_latest_fib_before`.  An arrival that lands at or
        before a cutoff some cached walk already queried invalidates
        those walks (the Fig. 1c resolution path: a straggler's FIB
        update finally arrives and flips the verdict).
        """
        if event.kind is not IOKind.FIB_UPDATE or event.prefix is None:
            return
        if self._fib_table is None:
            self._fib_table = {}
        key = (event.router, event.prefix)
        bucket = self._fib_table.setdefault(key, [])
        item = (event.timestamp, event.event_id, event)
        bucket.append(item)
        if len(bucket) > 1 and (bucket[-2][0], bucket[-2][1]) > (
            item[0],
            item[1],
        ):
            # Out-of-order arrival (straggler log): restore order by
            # re-sorting the bucket — rare, and keeps the hot path an
            # append (PERF001's discipline for the snapshot layer).
            bucket.sort(key=lambda it: (it[0], it[1]))
        cutoff = self._max_cutoff.get(key)
        if cutoff is not None and event.timestamp <= cutoff:
            self._drop_dependents(event.prefix, ("fib", event.router))

    def invalidate_event(self, event: IOEvent) -> None:
        """Drop memo entries whose cached walk traversed ``event``.

        Call for every already-observed event whose in-edges the
        streaming layer re-inferred.  Prefix-less events (config /
        hardware) need no invalidation: the walks never read their
        parents (they terminate the ancestry).
        """
        if event.prefix is None:
            return
        self._drop_dependents(event.prefix, event.event_id)

    def invalidate_prefix(self, prefix: Prefix) -> None:
        """Drop every memo entry for one prefix (coarse hook)."""
        self._ancestor_memo.pop(prefix, None)
        self._send_memo.pop(prefix, None)
        self._closure_memo.pop(prefix, None)
        self._dep_index.pop(prefix, None)

    def invalidate(self) -> None:
        """Drop every cached closure, walk and FIB-table entry.

        The rollback-replay hook: a replayed capture re-uses event ids
        (``reset_event_ids``), so after a replay *every* memo entry may
        describe an event that no longer exists — per-(router, prefix)
        keys collide silently and serve stale closures.  Persistent
        snapshotters must be invalidated before replayed events are
        fed (:class:`repro.repair.rollback.RepairEngine` calls this
        for every registered snapshotter after applying reverts).
        """
        self._ancestor_memo = {}
        self._send_memo = {}
        self._closure_memo = {}
        self._dep_index = {}
        self._max_cutoff = {}
        self._fib_table = {} if self.persistent_memo else None
        self._stream = None
        self._frontier = float("-inf")

    def _drop_dependents(self, prefix: Optional[Prefix], dep_key) -> None:
        index = self._dep_index.get(prefix)
        if not index:
            return
        entries = index.pop(dep_key, None)
        if not entries:
            return
        for kind, event_id in entries:
            if kind == "clo":
                self._closure_memo.get(prefix, {}).pop(event_id, None)
            elif kind == "anc":
                self._ancestor_memo.get(prefix, {}).pop(event_id, None)
            else:
                self._send_memo.get(prefix, {}).pop(event_id, None)

    def _register_deps(
        self, prefix: Optional[Prefix], entry: Tuple[str, int], deps: Iterable
    ) -> None:
        index = self._dep_index.setdefault(prefix, {})
        for dep in deps:
            index.setdefault(dep, set()).add(entry)

    # -- the §5 walk ------------------------------------------------------------

    def check(
        self,
        graph: HappensBeforeGraph,
        visible: Sequence[IOEvent],
        prefix: Optional[Prefix] = None,
        at: Optional[float] = None,
    ) -> ConsistencyReport:
        if not self.persistent_memo:
            self._ancestor_memo = {}
            self._send_memo = {}
            self._closure_memo = {}
            self._dep_index = {}
            self._max_cutoff = {}
            self._fib_table = None
        fib_events = [
            e
            for e in visible
            if e.kind is IOKind.FIB_UPDATE
            and e.prefix is not None
            and (prefix is None or e.prefix == prefix)
            and e.protocol in ("ebgp", "ibgp", "bgp")
        ]
        # Only the *latest* FIB event per (router, prefix) is part of
        # the cut; superseded ones need no closure.
        latest: Dict[Tuple[str, Prefix], IOEvent] = {}
        for event in fib_events:
            key = (event.router, event.prefix)
            current = latest.get(key)
            if current is None or (event.timestamp, event.event_id) > (
                current.timestamp,
                current.event_id,
            ):
                latest[key] = event
        return self._run_check(graph, latest.values(), visible, prefix, at)

    def check_incremental(
        self,
        graph: HappensBeforeGraph,
        cut_events: Iterable[IOEvent],
        sends: Sequence[IOEvent],
        prefix: Optional[Prefix] = None,
        at: Optional[float] = None,
    ) -> ConsistencyReport:
        """Scoped §5 check over a pre-filtered cut (incremental feed).

        ``cut_events`` are the latest FIB updates per (router, prefix)
        — the cut front — and ``sends`` the candidate unmatched sends;
        the incremental verifier maintains both per prefix so this
        check never scans the full visible stream.  Verdicts
        (``consistent`` + ``missing_routers``) equal :meth:`check`'s
        on the same graph and cut; ``reasons`` may repeat entries and
        ``steps`` reflects only un-memoized work.
        """
        return self._run_check(graph, cut_events, sends, prefix, at)

    def _run_check(
        self,
        graph: HappensBeforeGraph,
        cut_events: Iterable[IOEvent],
        sends: Sequence[IOEvent],
        prefix: Optional[Prefix],
        at: Optional[float],
    ) -> ConsistencyReport:
        self._memo_hits = 0
        self._memo_misses = 0
        report = ConsistencyReport(consistent=True)
        if at is not None:
            self._check_send_closure(graph, sends, prefix, at, report)
        visited: Set[int] = set()
        track = self.persistent_memo
        for event in cut_events:
            deps: Optional[Set] = set() if track else None
            sub = self._walk_fib_update(graph, event, visited, deps)
            report.merge(sub)
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("snapshot.closure_cache_hits").inc(
                self._memo_hits
            )
            registry.counter("snapshot.closure_cache_misses").inc(
                self._memo_misses
            )
        return report

    def _check_send_closure(
        self,
        graph: HappensBeforeGraph,
        sends: Sequence[IOEvent],
        prefix: Optional[Prefix],
        at: float,
        report: ConsistencyReport,
    ) -> None:
        """The dual of the receive walk: sends need matching receives.

        A visible [R' send U to N] with no visible [N receive U] means
        either U is still in flight or N's log stream is lagging.  The
        verifier cannot distinguish the two without heartbeats, and
        only the former matches reality — so *both* defer the
        snapshot: the cut may show N's FIB arbitrarily stale, which is
        how phantom black holes at transit routers arise.  The small
        cost is deferring a few propagation-delays' worth of probes
        even under zero log lag.

        ``sends`` may be any event sequence (the batch path passes the
        whole visible stream; the incremental path passes only its
        maintained unmatched-send set) — non-qualifying events are
        filtered here.

        Known limitation: an advertisement permanently lost in the
        network (e.g. sent just as a partition formed) defers this
        prefix's snapshots until ``max_unmatched_age`` passes, after
        which the send is presumed dead and ignored.
        """
        slack = self.inflight_bound + self.engine.config.clock_skew_tolerance
        for send in sends:
            if send.kind is not IOKind.ROUTE_SEND:
                continue
            if send.protocol != "bgp":
                continue
            if send.peer not in self.internal_routers:
                continue
            if prefix is not None and send.prefix != prefix:
                continue
            if (
                self.max_unmatched_age is not None
                and at > send.timestamp + self.max_unmatched_age
            ):
                continue  # presumed lost in a partition; give up waiting
            report.steps += 1
            received = any(
                child.kind is IOKind.ROUTE_RECEIVE
                for child, _evidence in graph.children(send.event_id)
            )
            if not received:
                report.consistent = False
                report.missing_routers.add(send.peer)
                in_flight = at < send.timestamp + slack
                why = (
                    "may still be in flight"
                    if in_flight
                    else "has not reached the verifier"
                )
                report.reasons.append(
                    f"{send.router} sent {send.action.value if send.action else '?'} "
                    f"for {send.prefix} to {send.peer} at {send.timestamp:.3f}s "
                    f"but {send.peer}'s receive {why}"
                )

    def _walk_fib_update(
        self,
        graph: HappensBeforeGraph,
        fib_event: IOEvent,
        visited: Set[int],
        deps: Optional[Set] = None,
    ) -> ConsistencyReport:
        """One recursion step of the §5 algorithm.

        ``visited`` doubles as the subwalk memo: chains from several
        cut fronts funnel into the same upstream FIB updates, and a
        subwalk already closed under this snapshot need not be redone
        (its verdict is already merged into the report).

        With ``deps`` given (persistent mode), the closed subwalk's
        verdict is additionally cached across checks, keyed by this
        FIB event, with every traversed event id and FIB-table bucket
        recorded as a dependency; ``deps`` accumulates them so callers
        inherit their subtree's dependencies transitively.  Returned
        reports are read-only — persistent mode hands back the cached
        objects themselves (``merge`` never mutates its argument).
        """
        event_id = fib_event.event_id
        prefix = fib_event.prefix
        if event_id in visited:
            self._memo_hits += 1
            if deps is not None:
                cached = self._closure_memo.get(prefix, {}).get(event_id)
                if cached is not None:
                    deps |= cached[1]
                else:
                    deps.add(event_id)
            return ConsistencyReport(consistent=True)
        if deps is not None:
            cached = self._closure_memo.get(prefix, {}).get(event_id)
            if cached is not None:
                self._memo_hits += 1
                visited.add(event_id)
                deps |= cached[1]
                return cached[0]
        self._memo_misses += 1
        visited.add(event_id)
        local: Optional[Set] = set() if deps is not None else None
        if local is not None:
            local.add(event_id)
        report = ConsistencyReport(consistent=True)
        report.steps += 1
        receives = self._advertisement_ancestors(graph, fib_event, local)
        for recv in receives:
            report.steps += 1
            sender = recv.peer
            if sender is None or sender not in self.internal_routers:
                # "...the router from which the update was received is
                # external to the network" — the walk terminates here.
                continue
            send = self._matching_send(graph, recv, local)
            if send is None:
                report.consistent = False
                report.missing_routers.add(sender)
                report.reasons.append(
                    f"{recv.router}'s HBG contains a route for "
                    f"{recv.prefix} via {sender} that has not been "
                    f"announced in the HBG received from {sender}"
                )
                continue
            # BGP property: the sender installed its FIB before
            # sending.  Its FIB update must therefore be visible.
            sender_fib = self._latest_fib_before(
                graph, sender, recv.prefix, send.timestamp, local
            )
            if sender_fib is None:
                report.consistent = False
                report.missing_routers.add(sender)
                report.reasons.append(
                    f"{sender} announced {recv.prefix} but its own FIB "
                    f"update has not reached the verifier"
                )
                continue
            sub = self._walk_fib_update(graph, sender_fib, visited, local)
            report.merge(sub)
        if deps is not None:
            frozen = frozenset(local)
            self._closure_memo.setdefault(prefix, {})[event_id] = (
                report,
                frozen,
            )
            self._register_deps(prefix, ("clo", event_id), frozen)
            deps |= frozen
        return report

    def _advertisement_ancestors(
        self,
        graph: HappensBeforeGraph,
        fib_event: IOEvent,
        deps: Optional[Set] = None,
    ) -> List[IOEvent]:
        """ROUTE_RECEIVE ancestors of ``fib_event`` for the same prefix,
        reached without crossing another FIB update (i.e. the receive
        that this particular FIB change depends on).

        The walk is pure in (event, prefix) for a fixed graph, so the
        closed subwalk is memoized — cut fronts for the same prefix on
        different routers funnel into the same advertisement ancestry
        over and over.  In persistent mode the traversed event ids are
        the entry's dependencies: re-linking any of them drops it.
        """
        memo = self._ancestor_memo.setdefault(fib_event.prefix, {})
        cached = memo.get(fib_event.event_id)
        if cached is not None:
            self._memo_hits += 1
            if deps is not None:
                deps |= cached[1]
            return cached[0]
        self._memo_misses += 1
        result: List[IOEvent] = []
        stack = [fib_event.event_id]
        seen = {fib_event.event_id}
        while stack:
            node = stack.pop()
            for parent, _evidence in graph.parents(node):
                if parent.event_id in seen:
                    continue
                seen.add(parent.event_id)
                if parent.kind is IOKind.ROUTE_RECEIVE:
                    if parent.prefix == fib_event.prefix:
                        result.append(parent)
                    continue
                if parent.kind in (IOKind.RIB_UPDATE,):
                    stack.append(parent.event_id)
                # CONFIG_CHANGE / HARDWARE_STATUS parents terminate the
                # walk: the FIB update did not depend on an
                # advertisement along this path.
        frozen = frozenset(seen) if deps is not None else frozenset()
        memo[fib_event.event_id] = (result, frozen)
        if deps is not None:
            self._register_deps(
                fib_event.prefix, ("anc", fib_event.event_id), frozen
            )
            deps |= frozen
        return result

    def _matching_send(
        self,
        graph: HappensBeforeGraph,
        recv: IOEvent,
        deps: Optional[Set] = None,
    ) -> Optional[IOEvent]:
        if deps is not None:
            deps.add(recv.event_id)
        memo = self._send_memo.setdefault(recv.prefix, {})
        cached = memo.get(recv.event_id, _UNSET)
        if cached is not _UNSET:
            self._memo_hits += 1
            return cached
        self._memo_misses += 1
        found: Optional[IOEvent] = None
        for parent, _evidence in graph.parents(recv.event_id):
            if (
                parent.kind is IOKind.ROUTE_SEND
                and parent.router == recv.peer
                and parent.prefix == recv.prefix
            ):
                found = parent
                break
        memo[recv.event_id] = found
        if deps is not None:
            self._register_deps(
                recv.prefix, ("snd", recv.event_id), (recv.event_id,)
            )
        return found

    def _latest_fib_before(
        self,
        graph: HappensBeforeGraph,
        router: str,
        prefix: Optional[Prefix],
        when: float,
        deps: Optional[Set] = None,
    ) -> Optional[IOEvent]:
        """Newest FIB update on ``router`` for ``prefix`` at ``when``.

        Answered from a per-(router, prefix) sorted table — built once
        per check() in batch mode (the naive per-query scan of every
        one of the router's events dominated large-network snapshot
        checks), maintained by :meth:`note_fib_event` in persistent
        mode.
        """
        if self._fib_table is None:
            table: Dict[
                Tuple[str, Prefix], List[Tuple[float, int, IOEvent]]
            ] = {}
            for event in graph.events():
                if event.kind is not IOKind.FIB_UPDATE:
                    continue
                if event.prefix is None:
                    continue
                table.setdefault((event.router, event.prefix), []).append(
                    (event.timestamp, event.event_id, event)
                )
            # graph.events() yields in event-id order; per-bucket sort
            # restores the (timestamp, id) order the bisect needs.
            for bucket in table.values():
                bucket.sort(key=lambda item: (item[0], item[1]))
            self._fib_table = table
        if prefix is None:
            return None
        slack = self.engine.config.clock_skew_tolerance
        cutoff = when + slack
        if deps is not None:
            deps.add(("fib", router))
            key = (router, prefix)
            current = self._max_cutoff.get(key)
            if current is None or cutoff > current:
                self._max_cutoff[key] = cutoff
        bucket = self._fib_table.get((router, prefix))
        if not bucket:
            return None
        cut = bisect_right(bucket, (cutoff, _AFTER_ANY_ID))
        if cut == 0:
            return None
        return bucket[cut - 1][2]

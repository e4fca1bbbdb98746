"""Window-aware adaptive mechanisms: online clocks that shrink again.

Every mechanism of Section IV is append-only: a component, once adopted,
is kept forever.  Under the sliding-window streams of the monitoring
regime that is exactly wrong - the offline optimum tracks the *live*
window and dips back down as events expire, so an append-only clock's
steady-state competitive ratio degrades monotonically (visible in
``python -m repro sweep ratio``).  The two mechanisms here close that gap
through the lifecycle protocol of :class:`~repro.online.base.OnlineMechanism`
(``observe`` / ``expire`` / ``end_epoch``):

* :class:`WindowedPopularityMechanism` - the paper's Popularity policy
  for the per-event choice, plus *retirement*: it counts, per component,
  the live events the component's vertex participates in, and gives the
  slot back once the count hits zero.  *When* a dead slot is reclaimed
  is one of two policies (``retirement=``): ``"eager"`` retires on the
  expire tick that kills the last live event, and ``"cost"`` holds a
  dead slot, reclaiming it at an epoch sweep only once the rent the slot
  has accrued since death beats its expected re-add cost (a decayed
  per-vertex re-add counter) - cutting rotation *frequency* under
  thrashing vertices, not just rotation cost.  Both retire only endpoint-dead
  components, which is what keeps re-timestamping sound: a live event
  blocks the retirement of both its endpoints, so every live event keeps
  a live incrementing component and all live-pair causal verdicts
  survive the slot compaction (the invariant
  :func:`~repro.core.timestamping.verify_retimestamping` checks) - and
  what keeps every rotation this mechanism triggers a *pure retirement*,
  eligible for the :class:`~repro.core.timestamping.EpochClock`'s delta
  (slot retirement) rotation path.

* :class:`EpochRotatingHybridMechanism` - the adaptive sibling of
  :class:`~repro.online.hybrid.HybridMechanism`.  Between boundaries it
  runs the hybrid policy on the *live* graph (Popularity while the live
  graph is small and sparse, a fixed side once thresholds are crossed);
  at each ``end_epoch`` it rebuilds its component set wholesale from the
  live window's König cover (one Hopcroft-Karp on the live graph; by
  Dulmage-Mendelsohn the cover does not depend on which maximum matching
  is found), so right after a boundary its clock is *optimal for the
  live window* and the hybrid switch restarts from the Popularity phase.

:class:`LifecycleClockDriver` is the timestamping tie-in: it couples any
lifecycle mechanism with an :class:`~repro.core.timestamping.EpochClock`,
extending the kernel when the mechanism appends a component and rotating
the epoch whenever the mechanism retires or rebuilds: by delta slot
retirement (the default) when the rotation is a pure retirement, by
replay otherwise, and always by replay plus the re-timestamping proof
with ``check_invariant=True``.  The property-test suite drives it to prove that
adaptive mechanisms preserve happened-before / concurrent verdicts for
every live-window event pair across retirements and rotations.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.timestamping import DELTA_ROTATION, EpochClock
from repro.exceptions import OnlineMechanismError
from repro.graph.bipartite import BipartiteGraph, Edge, Vertex, vertex_sort_key
from repro.graph.vertex_cover import konig_vertex_cover
from repro.obs.registry import active as _metrics_active
from repro.online.base import OBJECT, THREAD, OnlineMechanism, popularity_choice
from repro.online.hybrid import HybridMechanism
from repro.online.popularity import PopularityMechanism


# -- retirement policies ------------------------------------------------------
#: Retire a dead component on the expire tick that killed its last event.
EAGER_RETIREMENT = "eager"
#: Epoch-sweep retirement gated by the re-add cost model (see
#: :class:`WindowedPopularityMechanism`).
COST_RETIREMENT = "cost"

#: Policies :class:`WindowedPopularityMechanism` accepts.
RETIREMENT_POLICIES = (EAGER_RETIREMENT, COST_RETIREMENT)

#: Per-tick decay of the re-add score (half-life of ~138 lifecycle ticks).
_COST_DECAY = 0.995
#: Rent (lifecycle ticks dead) one unit of re-add score excuses a slot
#: from paying before it is reclaimed.
_COST_GRACE_TICKS = 256.0
#: Scores decayed below this are forgotten at the next epoch sweep, so
#: the score table stays proportional to recently thrashing vertices.
_COST_SCORE_FLOOR = 1e-3
#: Minimum ticks a score ledger line survives untouched before it may be
#: pruned - long enough for a fresh retiree's zero-score line to witness
#: the re-add that would earn it a score.
_COST_TTL_TICKS = 2048


def _decay_factor(ticks: int) -> float:
    """``_COST_DECAY ** ticks`` by binary exponentiation.

    Repeated IEEE multiplication instead of ``math.pow``: the cost
    policy feeds retirement decisions, which feed component sets, which
    feed fingerprints, so the arithmetic must not depend on the
    platform's libm.
    """
    result = 1.0
    base = _COST_DECAY
    while ticks:
        if ticks & 1:
            result *= base
        base *= base
        ticks >>= 1
    return result


class WindowedPopularityMechanism(PopularityMechanism):
    """Popularity's choice policy plus retirement of window-dead components.

    Parameters
    ----------
    tie_break:
        Popularity tie side, as in
        :class:`~repro.online.popularity.PopularityMechanism` (the choice
        policy is identical on purpose, so comparing this mechanism with
        plain Popularity isolates the effect of retirement).
    retirement:
        Retirement policy, one of two.  ``"eager"`` (the default) retires
        a component on the expire tick that kills its last live event, so
        every component always has a live event and an epoch boundary
        has nothing left to reclaim.  Under ``"cost"`` a
        dead component is only reclaimed at an epoch sweep once the rent
        it has accrued (lifecycle ticks since its last live event died)
        exceeds the grace its *re-add score* buys: a per-vertex counter
        bumped each time a previously retired vertex is adopted again,
        decayed by :data:`_COST_DECAY` per tick.  A vertex that keeps
        bouncing back earns score, so its slot survives quiet spells and
        the retire-rotate / re-add-extend churn it would otherwise cause
        disappears; a vertex that never returns has score zero and is
        reclaimed at the first sweep after death.  The
        policy is deterministic (pure integer tick arithmetic plus
        fixed-sequence float multiplication) and keyed into
        :meth:`summary` as ``"retirement"``.  Registered as
        ``adaptive-popularity-cost``.
    windowed_degrees:
        **Off by default** (the append-only revealed-graph policy of the
        paper).  When ``True``, the per-event choice compares *windowed*
        degree estimates instead: the number of live (non-expired) events
        each endpoint currently participates in - the degree, with
        multiplicity, of the endpoint in the live multigraph the
        retirement bookkeeping already maintains.  The append-only
        revealed graph never forgets, so under drift it keeps voting for
        endpoints whose popularity died windows ago; the windowed counter
        decays with the window and tracks the regime that is actually
        live.  Registered as ``adaptive-popularity-windowed``.
    """

    name = "adaptive-popularity"
    window_aware = True

    def __init__(
        self,
        tie_break: str = THREAD,
        windowed_degrees: bool = False,
        retirement: str = EAGER_RETIREMENT,
    ) -> None:
        super().__init__(tie_break)
        if retirement not in RETIREMENT_POLICIES:
            raise OnlineMechanismError(
                f"retirement must be one of {RETIREMENT_POLICIES}, "
                f"got {retirement!r}"
            )
        self._retirement = retirement
        self._eager = retirement == EAGER_RETIREMENT
        self._windowed_degrees = windowed_degrees
        if windowed_degrees:
            self.name = "adaptive-popularity-windowed"
        elif retirement == COST_RETIREMENT:
            self.name = "adaptive-popularity-cost"
        # Live events per endpoint vertex.  A vertex may only be retired
        # while its count is zero: that is the condition under which slot
        # compaction preserves every live-pair verdict.
        self._live_by_thread: Dict[Vertex, int] = {}
        self._live_by_object: Dict[Vertex, int] = {}
        # Cost-policy state: the tick each currently dead component's
        # vertex went dead, and the decayed re-add score per vertex as a
        # ``(score, tick-of-last-touch)`` pair (decay applied lazily).
        self._dead_thread_since: Dict[Vertex, int] = {}
        self._dead_object_since: Dict[Vertex, int] = {}
        self._readd_score: Dict[Vertex, Tuple[float, int]] = {}

    @property
    def windowed_degrees(self) -> bool:
        return self._windowed_degrees

    @property
    def retirement(self) -> str:
        """The retirement policy in force (``eager`` or ``cost``)."""
        return self._retirement

    def _tick(self) -> int:
        """The lifecycle clock the cost model meters rent in.

        Observes plus expires: a slot's rent must keep accruing while
        the stream drains (expire-heavy phases), not only while it
        grows.
        """
        return self.events_seen + self.expires_seen

    def _choose(self, thread: Vertex, obj: Vertex) -> str:
        if self._windowed_degrees:
            # Windowed popularity: live-event counts per endpoint (the
            # hook _on_observe has already counted the current event, so
            # both sides see it - mirroring how the revealed-graph policy
            # sees the just-added edge).  Shared denominator again, so
            # the comparison reduces to the counters.
            thread_live = self._live_by_thread.get(thread, 0)
            object_live = self._live_by_object.get(obj, 0)
            if thread_live > object_live:
                choice = THREAD
            elif object_live > thread_live:
                choice = OBJECT
            else:
                choice = self._tie_break
        else:
            # Same policy as PopularityMechanism: degrees in the revealed
            # (append-only) graph, which observe() has already updated.
            choice = popularity_choice(
                self.revealed_graph, thread, obj, self._tie_break
            )
        if self._retirement == COST_RETIREMENT:
            # _choose only runs for uncovered events, and the chosen side
            # is adopted immediately after it returns - so this is
            # exactly the re-add moment for a vertex with score history.
            vertex = thread if choice == THREAD else obj
            entry = self._readd_score.get(vertex)
            if entry is not None:
                score, touched = entry
                tick = self._tick()
                self._readd_score[vertex] = (
                    score * _decay_factor(tick - touched) + 1.0,
                    tick,
                )
        return choice

    # -- lifecycle hooks ----------------------------------------------------
    def _on_observe(self, thread: Vertex, obj: Vertex) -> None:
        self._live_by_thread[thread] = self._live_by_thread.get(thread, 0) + 1
        self._live_by_object[obj] = self._live_by_object.get(obj, 0) + 1
        if self._retirement == COST_RETIREMENT:
            # A dead component's vertex came back to life: it stops
            # accruing rent (and stops being a retirement candidate).
            self._dead_thread_since.pop(thread, None)
            self._dead_object_since.pop(obj, None)

    def _on_expire(self, thread: Vertex, obj: Vertex) -> None:
        for counts, vertex in (
            (self._live_by_thread, thread),
            (self._live_by_object, obj),
        ):
            count = counts.get(vertex, 0)
            if count <= 0:
                raise OnlineMechanismError(
                    f"expire of ({thread!r}, {obj!r}) retracts an occurrence "
                    f"that was never observed"
                )
            if count == 1:
                del counts[vertex]
            else:
                counts[vertex] = count - 1
        if self._eager:
            if thread not in self._live_by_thread and thread in self._thread_components:
                self._retire_component(thread)
            if obj not in self._live_by_object and obj in self._object_components:
                self._retire_component(obj)
        else:
            # Start the rent meter; retirement itself waits for a sweep.
            tick = self._tick()
            if thread not in self._live_by_thread and thread in self._thread_components:
                self._dead_thread_since.setdefault(thread, tick)
            if obj not in self._live_by_object and obj in self._object_components:
                self._dead_object_since.setdefault(obj, tick)

    def _cost_due(self, tick: int) -> List[Vertex]:
        """Dead components whose accrued rent beats their re-add grace."""
        due = []
        for kind, component in self._component_order:
            since = (
                self._dead_thread_since if kind == THREAD
                else self._dead_object_since
            ).get(component)
            if since is None:
                continue
            entry = self._readd_score.get(component)
            if entry is not None:
                score, touched = entry
                grace = score * _decay_factor(tick - touched) * _COST_GRACE_TICKS
            else:
                grace = 0.0
            if tick - since >= grace:
                due.append(component)
        return due

    def _on_end_epoch(self) -> Tuple[Vertex, ...]:
        # Eager retirement leaves no dead component to sweep; the cost
        # policy reclaims the dead components whose rent has run out and
        # remembers them in the re-add score table.
        if self._eager:
            return ()
        tick = self._tick()
        dead = self._cost_due(tick)
        dead.sort(key=vertex_sort_key)
        for component in dead:
            self._retire_component(component)
            self._dead_thread_since.pop(component, None)
            self._dead_object_since.pop(component, None)
            entry = self._readd_score.get(component)
            if entry is None:
                # Open a ledger line so a future re-adoption of this
                # vertex is recognised and scored in _choose.
                self._readd_score[component] = (0.0, tick)
        # Forget ledger lines that have sat untouched past the TTL
        # with their score decayed to noise and no dead slot waiting,
        # so the table tracks recent thrashers instead of every
        # vertex ever retired.
        stale = [
            vertex
            for vertex, (score, touched) in self._readd_score.items()
            if tick - touched >= _COST_TTL_TICKS
            and score * _decay_factor(tick - touched) < _COST_SCORE_FLOOR
            and vertex not in self._dead_thread_since
            and vertex not in self._dead_object_since
        ]
        for vertex in stale:
            del self._readd_score[vertex]
        return tuple(dead)

    def summary(self) -> Dict[str, object]:
        data = super().summary()
        data["retirement"] = self._retirement
        return data


class EpochRotatingHybridMechanism(HybridMechanism):
    """Hybrid policy on the live graph, König-cover rebuild at epochs.

    Parameters are :class:`~repro.online.hybrid.HybridMechanism`'s, with
    the thresholds evaluated against the *live* graph - and the switch to
    the Naive side resets at every epoch boundary, because the rebuild
    restores an optimal-for-the-window component set and the Popularity
    phase is the right regime for a small live cover.  ``switched_at`` is
    the current epoch's switch, if any.
    """

    name = "epoch-hybrid"
    window_aware = True

    def __init__(
        self,
        density_threshold: float = 0.15,
        node_threshold: int = 140,
        naive_side: str = THREAD,
        warmup_edges: int = 30,
    ) -> None:
        super().__init__(density_threshold, node_threshold, naive_side, warmup_edges)
        # The live window's graph, and each live edge's occurrence count:
        # an edge leaves the graph when its last live occurrence expires.
        self._live = BipartiteGraph()
        self._live_count: Dict[Edge, int] = {}

    # -- introspection ------------------------------------------------------
    @property
    def live_graph(self) -> BipartiteGraph:
        """The live (non-expired) thread-object graph."""
        return self._live

    def _policy_graph(self) -> BipartiteGraph:
        return self._live

    # -- lifecycle hooks ----------------------------------------------------
    def _on_observe(self, thread: Vertex, obj: Vertex) -> None:
        count = self._live_count.get((thread, obj), 0)
        if not count:
            self._live.add_edge(thread, obj)
        self._live_count[thread, obj] = count + 1

    def _on_expire(self, thread: Vertex, obj: Vertex) -> None:
        count = self._live_count.get((thread, obj), 0)
        if count > 1:
            self._live_count[thread, obj] = count - 1
            return
        live = self._live
        live.remove_edge(thread, obj)  # GraphError if the edge is not live
        del self._live_count[thread, obj]
        # Drop the endpoints the removal isolated: the node threshold
        # counts live vertices only.
        if live.degree(thread) == 0:
            live.remove_isolated_vertex(thread)
        if live.degree(obj) == 0:
            live.remove_isolated_vertex(obj)

    def _on_end_epoch(self) -> Tuple[Vertex, ...]:
        cover = konig_vertex_cover(self._live)
        want_threads = cover & self._live.threads
        want_objects = cover - want_threads
        retired = [
            component
            for kind, component in self._component_order
            if component not in (want_threads if kind == THREAD else want_objects)
        ]
        retired.sort(key=vertex_sort_key)
        for component in retired:
            self._retire_component(component)
        for vertex in sorted(want_threads, key=vertex_sort_key):
            self._add_component(THREAD, vertex)
        for vertex in sorted(want_objects, key=vertex_sort_key):
            self._add_component(OBJECT, vertex)
        # A fresh, window-optimal cover restarts the hybrid schedule.
        self._switched_at = None
        return tuple(retired)


class LifecycleClockDriver:
    """Issue real timestamps while a lifecycle mechanism shapes the clock.

    The driver forwards each lifecycle tick to the mechanism first, then
    mirrors the resulting component-set change onto an
    :class:`~repro.core.timestamping.EpochClock`:

    * a component *appended* by ``observe`` extends the kernel in place
      (no epoch change - existing timestamps just gain a zero slot); its
      kind comes from the decision the mechanism just logged;
    * a *retirement* on an expire tick rotates the clock by the retired
      components alone, read from the mechanism's retirement log, and an
      epoch boundary that changes the set rotates it to the mechanism's
      new component set - re-stamping the live window in the new
      epoch's basis by slot retirement when the rotation is a pure
      retirement, by replay otherwise (see :meth:`EpochClock.rotate
      <repro.core.timestamping.EpochClock.rotate>`; ``rotation=``
      forces a strategy per driver).

    With ``check_invariant=True`` every rotation replays and proves the
    re-timestamping invariant (verdict preservation over all live pairs)
    before committing - the property the test suite leans on.
    """

    def __init__(
        self,
        mechanism: OnlineMechanism,
        check_invariant: bool = False,
        rotation: str = DELTA_ROTATION,
    ) -> None:
        if mechanism.events_seen:
            raise OnlineMechanismError(
                "mechanism has already observed events; use a fresh one"
            )
        self._mechanism = mechanism
        self._clock = EpochClock(
            mechanism.components(),
            check_invariant=check_invariant,
            rotation=rotation,
        )

    # -- introspection ------------------------------------------------------
    @property
    def mechanism(self) -> OnlineMechanism:
        return self._mechanism

    @property
    def clock(self) -> EpochClock:
        return self._clock

    @property
    def clock_size(self) -> int:
        return self._mechanism.clock_size

    def live_tokens(self) -> Tuple[int, ...]:
        return self._clock.live_tokens()

    def _rotate(self, components=None, retired=()) -> None:
        """Rotate the clock, observing the latency when telemetry is on.

        Rotation re-stamps the live window - ``O(#retired)`` slot
        retirement on the delta path, an ``O(window)`` replay otherwise
        - and is the driver's dominant boundary cost, the one that sets
        its tail tick latency, so every rotation goes through this one
        timed funnel; the ``clock.rotation.delta`` /
        ``clock.rotation.replay`` counters say which path each rotation
        took.  The measurement changes nothing the clock computes: the
        registry, when installed, only *receives* the duration.
        """
        registry = _metrics_active()
        if registry is None:
            self._clock.rotate(components, retired)
            return
        began = perf_counter()
        self._clock.rotate(components, retired)
        registry.add("driver.rotations")
        registry.observe("driver.rotation_s", perf_counter() - began)

    # -- lifecycle ----------------------------------------------------------
    def observe(self, thread: Vertex, obj: Vertex) -> int:
        """Reveal one event; returns its :class:`EpochClock` token."""
        mechanism = self._mechanism
        retired_before = mechanism.retired_total
        decided_before = mechanism.decision_count
        added = mechanism.observe(thread, obj)
        if mechanism.retired_total != retired_before:
            # No current mechanism retires on observe, but the protocol
            # does not forbid it; fall back to a full rotation.
            self._rotate(mechanism.components())
        elif added is not None:
            # The kind comes from the decision just logged: O(1).
            if mechanism.decisions_since(decided_before)[-1].choice == THREAD:
                self._clock.extend(thread_components=(added,))
            else:
                self._clock.extend(object_components=(added,))
            registry = _metrics_active()
            if registry is not None:
                registry.add("driver.extensions")
        return self._clock.observe(thread, obj)

    def expire(self, thread: Vertex, obj: Vertex) -> int:
        """Expire one live occurrence; returns the expired token.

        A retirement it triggers reaches the clock as a delta: the
        retired components, read from the mechanism's retirement log.
        """
        mechanism = self._mechanism
        retired_before = mechanism.retired_total
        mechanism.expire(thread, obj)
        token = self._clock.expire(thread, obj)
        if mechanism.retired_total != retired_before:
            retired = mechanism.retirements_since(retired_before)
            registry = _metrics_active()
            if registry is not None:
                registry.add("driver.retirements", len(retired))
            self._rotate(retired=[record.component for record in retired])
        return token

    def end_epoch(self) -> Tuple[Vertex, ...]:
        """Deliver an epoch boundary; rotates the clock if the set changed."""
        before = self._mechanism.components()
        registry = _metrics_active()
        began = perf_counter() if registry is not None else 0.0
        retired = self._mechanism.end_epoch()
        after = self._mechanism.components()
        if after != before:
            self._rotate(after)
        if registry is not None:
            registry.observe("driver.end_epoch_s", perf_counter() - began)
            if retired:
                registry.add("driver.retirements", len(retired))
        return retired

    # -- causality queries --------------------------------------------------
    def timestamp(self, token: int):
        return self._clock.timestamp(token)

    def relation(self, token_a: int, token_b: int) -> str:
        return self._clock.relation(token_a, token_b)

    def happened_before(self, token_a: int, token_b: int) -> bool:
        return self._clock.happened_before(token_a, token_b)

    def concurrent(self, token_a: int, token_b: int) -> bool:
        return self._clock.concurrent(token_a, token_b)

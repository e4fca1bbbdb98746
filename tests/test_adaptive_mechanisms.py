"""Window-aware adaptive mechanisms and the lifecycle protocol.

Four concerns:

* the lifecycle shim: append-only mechanisms behave bit-identically
  whether or not expires and epoch ticks are delivered (regression for
  the observe-only era);
* unit behaviour of the two adaptive mechanisms (retirement on endpoint
  death, epoch rebuild to the live König cover);
* the headline hypothesis property: driving a lifecycle mechanism
  through :class:`~repro.online.adaptive.LifecycleClockDriver` preserves
  every happened-before / concurrent verdict among live-window event
  pairs across retirements and epoch rotations, judged against the
  full-history thread-clock oracle (plus the driver's own per-rotation
  re-timestamping invariant check);
* the acceptance numbers: on the thread-churn stream each adaptive
  mechanism's steady-state competitive ratio is strictly better than its
  append-only counterpart's, and its live clock size is bounded (shrinks
  again) instead of growing monotonically.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.analysis.metrics import competitive_ratio_trajectory
from repro.computation import REGISTRY, STREAM
from repro.computation.streams import (
    epoch_marker,
    phase_change_stream,
    sliding_window,
    thread_churn_stream,
    with_epochs,
)
from repro.core import ClockComponents, VectorClockProtocol
from repro.core.clock import ordering
from repro.exceptions import OnlineMechanismError
from repro.graph.incremental import DynamicMatching
from repro.graph.vertex_cover import konig_vertex_cover
from repro.online import (
    EpochRotatingHybridMechanism,
    HybridMechanism,
    LifecycleClockDriver,
    NaiveMechanism,
    PopularityMechanism,
    RandomMechanism,
    WindowedPopularityMechanism,
    compare_mechanisms_on_stream,
    run_mechanism,
    seed_mechanism_factories,
)
from repro.seeds import derive_seed


# ---------------------------------------------------------------------------
# The lifecycle shim: append-only mechanisms are unchanged
# ---------------------------------------------------------------------------
class TestAppendOnlyShim:
    APPEND_ONLY = {
        "naive": lambda: NaiveMechanism(),
        "random": lambda: RandomMechanism(seed=11),
        "popularity": lambda: PopularityMechanism(),
        "hybrid": lambda: HybridMechanism(),
    }

    def test_lifecycle_delivery_changes_nothing(self):
        """Expire + epoch ticks through the shims == plain insert replay."""
        stream = list(thread_churn_stream(12, 12, 0.3, 400, seed=5))
        lifecycle = compare_mechanisms_on_stream(
            iter(stream), dict(self.APPEND_ONLY), include_offline=False, epoch=40
        )
        inserts = [event.pair for event in stream if event.is_insert]
        for label, factory in self.APPEND_ONLY.items():
            plain = run_mechanism(factory(), inserts)
            assert lifecycle[label].size_trajectory == plain.size_trajectory
            assert lifecycle[label].final_size == plain.final_size
            assert lifecycle[label].retired_components == 0
            assert lifecycle[label].expires_seen > 0
            assert lifecycle[label].epochs == 10

    def test_expire_and_epoch_are_counted_noops(self):
        mechanism = NaiveMechanism()
        mechanism.observe("T1", "O1")
        mechanism.expire("T1", "O1")
        assert mechanism.end_epoch() == ()
        assert mechanism.clock_size == 1
        assert mechanism.expires_seen == 1
        assert mechanism.epoch == 1
        summary = mechanism.summary()
        assert summary["retired_components"] == 0
        assert summary["peak_size"] == 1


# ---------------------------------------------------------------------------
# WindowedPopularityMechanism
# ---------------------------------------------------------------------------
class TestWindowedPopularity:
    def test_retires_component_when_last_covered_event_expires(self):
        mechanism = WindowedPopularityMechanism()
        mechanism.observe("T1", "O1")  # adds T1 (tie -> thread)
        mechanism.observe("T1", "O2")  # covered
        assert mechanism.clock_size == 1
        mechanism.expire("T1", "O1")
        assert mechanism.clock_size == 1  # (T1, O2) still live
        mechanism.expire("T1", "O2")
        assert mechanism.clock_size == 0
        assert mechanism.retired_total == 1
        assert mechanism.retirements[0].component == "T1"
        assert mechanism.peak_size == 1

    def test_live_event_blocks_retirement_of_both_endpoints(self):
        mechanism = WindowedPopularityMechanism()
        mechanism.observe("T1", "O1")  # adds T1
        mechanism.observe("T2", "O1")  # O1 degree 2 -> adds O1
        mechanism.expire("T1", "O1")
        # (T2, O1) is live: O1 must survive; T1 covers nothing live.
        assert mechanism.thread_components == frozenset()
        assert mechanism.object_components == frozenset({"O1"})

    def test_retired_vertex_can_be_readopted(self):
        mechanism = WindowedPopularityMechanism()
        mechanism.observe("T1", "O1")
        mechanism.expire("T1", "O1")
        assert mechanism.clock_size == 0
        assert mechanism.observe("T1", "O9") == "T1"
        assert mechanism.clock_size == 1

    def test_over_expiry_is_rejected(self):
        mechanism = WindowedPopularityMechanism()
        mechanism.observe("T1", "O1")
        mechanism.expire("T1", "O1")
        with pytest.raises(OnlineMechanismError):
            mechanism.expire("T1", "O1")

    @pytest.mark.parametrize("tie_break", ["thread", "object"])
    @pytest.mark.parametrize("windowed_degrees", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(
        ticks=st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    st.lists(
                        st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        min_size=1,
                        max_size=3,
                    ),
                ),
                st.tuples(st.just("expire"), st.integers(0, 63)),
                st.tuples(st.just("epoch"), st.none()),
            ),
            max_size=80,
        )
    )
    def test_eager_components_always_have_a_live_event(
        self, windowed_degrees, tie_break, ticks
    ):
        """Eager retirement leaves no dead component for an epoch to sweep.

        Over interleaved insert runs, expiries of any live occurrence and
        epoch ticks, every component has a live event after each tick,
        and ``end_epoch`` retires nothing.
        """
        mechanism = WindowedPopularityMechanism(
            tie_break=tie_break, windowed_degrees=windowed_degrees
        )
        live = []
        for tick, arg in ticks:
            if tick == "insert":
                pairs = [(f"T{t}", f"O{o}") for t, o in arg]
                mechanism.observe_batch(pairs)
                live.extend(pairs)
            elif tick == "expire":
                if live:
                    mechanism.expire(*live.pop(arg % len(live)))
            else:
                assert mechanism.end_epoch() == ()
            threads = {thread for thread, _ in live}
            objects = {obj for _, obj in live}
            assert mechanism.thread_components <= threads
            assert mechanism.object_components <= objects


# ---------------------------------------------------------------------------
# EpochRotatingHybridMechanism
# ---------------------------------------------------------------------------
class TestEpochRotatingHybrid:
    def test_rebuild_shrinks_to_live_konig_cover(self):
        mechanism = EpochRotatingHybridMechanism()
        # A star through O1 plus a stray pair; expire the stray.
        for thread in ("T1", "T2", "T3"):
            mechanism.observe(thread, "O1")
        mechanism.observe("T9", "O9")
        mechanism.expire("T9", "O9")
        before = mechanism.clock_size
        mechanism.end_epoch()
        # The live graph is the O1 star: its minimum cover is {O1}.
        assert mechanism.clock_size == 1
        assert mechanism.clock_size == len(konig_vertex_cover(mechanism.live_graph))
        assert mechanism.object_components == frozenset({"O1"})
        assert mechanism.retired_total >= before - 1
        assert mechanism.epoch == 1

    def test_rebuild_covers_every_live_edge(self):
        mechanism = EpochRotatingHybridMechanism()
        events = [("T1", "O1"), ("T2", "O2"), ("T1", "O2"), ("T3", "O3")]
        for thread, obj in events:
            mechanism.observe(thread, obj)
        mechanism.end_epoch()
        for thread, obj in events:
            assert mechanism.covers(thread, obj)

    @settings(max_examples=200, deadline=None)
    @given(
        ticks=st.lists(
            st.tuples(
                st.sampled_from(("insert", "insert", "expire", "epoch")),
                st.integers(0, 4),
                st.integers(0, 4),
            ),
            max_size=60,
        )
    )
    def test_live_graph_and_rebuild_match_dynamic_matching(self, ticks):
        """The live graph holds what a DynamicMatching fed the same ticks
        holds, isolated vertices pruned, and each rebuild adopts that
        engine's maintained König cover."""
        mechanism = EpochRotatingHybridMechanism(node_threshold=6)
        reference = DynamicMatching()
        live = []
        for tick, a, b in ticks:
            if tick == "insert":
                pair = (f"T{a}", f"O{b}")
                mechanism.observe(*pair)
                reference.add_edge(*pair)
                live.append(pair)
            elif tick == "expire" and live:
                pair = live.pop((a * 5 + b) % len(live))
                mechanism.expire(*pair)
                reference.remove_edge(*pair)
            elif tick == "epoch":
                mechanism.end_epoch()
                cover = reference.vertex_cover()
                assert mechanism.thread_components == cover & reference.graph.threads
                assert mechanism.object_components == cover & reference.graph.objects
            assert mechanism.live_graph == reference.graph
            assert mechanism.live_graph.num_edges == reference.graph.num_edges

    def test_switch_resets_at_epoch_boundary(self):
        mechanism = EpochRotatingHybridMechanism(node_threshold=3, warmup_edges=999)
        mechanism.observe("T1", "O1")
        mechanism.observe("T2", "O2")  # 4 live vertices > 3 -> switch
        assert mechanism.switched_at is not None
        mechanism.expire("T1", "O1")
        mechanism.end_epoch()
        assert mechanism.switched_at is None

    def test_thresholds_read_the_live_graph(self):
        mechanism = EpochRotatingHybridMechanism(node_threshold=3, warmup_edges=999)
        mechanism.observe("T1", "O1")
        mechanism.expire("T1", "O1")
        # Revealed: 4 vertices > 3; live: 2 - the policy reads the live one.
        mechanism.observe("T2", "O2")
        assert mechanism.revealed_graph.num_vertices == 4
        assert mechanism.live_graph.num_vertices == 2
        assert mechanism.switched_at is None


# ---------------------------------------------------------------------------
# Verdict preservation under the lifecycle (the tentpole property)
# ---------------------------------------------------------------------------
def _full_history_oracle(pairs):
    """Per-event timestamps from the all-threads clock (exact, Theorem 2)."""
    threads = sorted({thread for thread, _ in pairs})
    protocol = VectorClockProtocol(ClockComponents.all_threads(threads))
    return [protocol.observe(thread, obj) for thread, obj in pairs]


MECHANISM_FACTORIES = {
    "adaptive-popularity-eager": lambda: WindowedPopularityMechanism(),
    "adaptive-popularity-cost": lambda: EXTENDED_MECHANISMS[
        "adaptive-popularity-cost"
    ](0),
    "epoch-hybrid": lambda: EpochRotatingHybridMechanism(),
}


class TestVerdictPreservation:
    @settings(max_examples=300, deadline=None)
    @given(
        choices=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=50,
        ),
        window=st.integers(2, 10),
        epoch_every=st.integers(2, 12),
        mechanism_key=st.sampled_from(sorted(MECHANISM_FACTORIES)),
        check_invariant=st.booleans(),
    )
    def test_live_pair_verdicts_survive_retirement_and_rotation(
        self, choices, window, epoch_every, mechanism_key, check_invariant
    ):
        """Adaptive timestamps agree with full history on every live pair.

        With ``check_invariant=True`` every rotation replays and
        self-checks that the replay preserved the verdicts it saw before
        rotating; without it, pure retirements take the delta path.
        Either way this test closes the loop against an *independent*
        oracle that never expires anything.
        """
        pairs = [(f"T{t}", f"O{o}") for t, o in choices]
        oracle = _full_history_oracle(pairs)
        driver = LifecycleClockDriver(
            MECHANISM_FACTORIES[mechanism_key](), check_invariant=check_invariant
        )
        live: deque = deque()  # (insert index, token)
        for index, (thread, obj) in enumerate(pairs):
            token = driver.observe(thread, obj)
            live.append((index, token))
            if len(live) > window:
                old_index, _ = live.popleft()
                driver.expire(*pairs[old_index])
            if (index + 1) % epoch_every == 0:
                driver.end_epoch()
            records = list(live)
            for a in range(len(records)):
                for b in range(a + 1, len(records)):
                    index_a, token_a = records[a]
                    index_b, token_b = records[b]
                    expected = ordering(oracle[index_a], oracle[index_b])
                    assert driver.relation(token_a, token_b) == expected


# ---------------------------------------------------------------------------
# Epoch markers in streams and the simulator
# ---------------------------------------------------------------------------
class TestEpochMarkers:
    def test_phase_change_emits_markers_at_phase_boundaries(self):
        events = list(phase_change_stream(6, 6, 0.3, 40, seed=1, phases=4))
        markers = [event for event in events if event.is_epoch]
        inserts = [event for event in events if event.is_insert]
        assert len(inserts) == 40
        assert len(markers) == 3  # one per interior boundary
        assert REGISTRY.get("phase-change", kind=STREAM).epochs

    def test_with_epochs_counts_inserts_only(self):
        stream = list(thread_churn_stream(8, 8, 0.4, 30, seed=3))
        wrapped = list(with_epochs(iter(stream), 10))
        inserts_seen = 0
        for event in wrapped:
            if event.is_insert:
                inserts_seen += 1
            if event.is_epoch:
                assert inserts_seen % 10 == 0
        assert sum(1 for event in wrapped if event.is_epoch) == 3

    def test_sliding_window_passes_markers_through(self):
        events = [("T1", "O1"), epoch_marker(), ("T1", "O2"), ("T2", "O3")]
        windowed = list(sliding_window(iter(events), window=2))
        assert sum(1 for event in windowed if event.is_epoch) == 1
        # The marker occupies no window slot: both early inserts stay live
        # until the third insert arrives.
        expires = [event for event in windowed if event.is_expire]
        assert [event.pair for event in expires] == [("T1", "O1")]

    def test_epoch_marker_carries_no_pair(self):
        with pytest.raises(Exception):
            epoch_marker().pair

    def test_simulator_counts_marker_and_counter_epochs(self):
        factories = {"adaptive": lambda: WindowedPopularityMechanism()}
        events = list(phase_change_stream(6, 6, 0.3, 40, seed=2, phases=4))
        results = compare_mechanisms_on_stream(
            iter(events), factories, include_offline=True, epoch=10
        )
        # 3 stream markers + 4 counter ticks (40 inserts / 10).
        assert results["offline"].epochs == 7
        assert results["adaptive"].epochs == 7


# ---------------------------------------------------------------------------
# Acceptance: adaptive beats append-only at steady state on thread churn
# ---------------------------------------------------------------------------
class TestThreadChurnAcceptance:
    TAIL = 300

    @pytest.fixture(scope="class")
    def churn_results(self):
        scenario = REGISTRY.get("thread-churn", kind=STREAM)
        root = derive_seed(424242, "adaptive-acceptance")
        events = scenario.build(
            30, 30, 0.2, 3000, seed=derive_seed(root, "stream")
        )
        labels = ("popularity", "adaptive-popularity", "hybrid", "epoch-hybrid")
        factories = seed_mechanism_factories(
            {label: EXTENDED_MECHANISMS[label] for label in labels},
            derive_seed(root, "mechanisms"),
        )
        return compare_mechanisms_on_stream(
            events, factories, include_offline=True, epoch=150
        )

    def _steady_mean(self, results, label):
        ratios = competitive_ratio_trajectory(
            results[label].size_trajectory, results["offline"].size_trajectory
        )
        tail = ratios[-self.TAIL:]
        return sum(tail) / len(tail)

    @pytest.mark.parametrize(
        "adaptive,append_only",
        [("adaptive-popularity", "popularity"), ("epoch-hybrid", "hybrid")],
    )
    def test_steady_state_ratio_strictly_better(
        self, churn_results, adaptive, append_only
    ):
        assert self._steady_mean(churn_results, adaptive) < self._steady_mean(
            churn_results, append_only
        )

    @pytest.mark.parametrize("label", ["adaptive-popularity", "epoch-hybrid"])
    def test_live_clock_stays_bounded(self, churn_results, label):
        result = churn_results[label]
        trajectory = result.size_trajectory
        assert result.retired_components > 0
        # Not monotone: the clock genuinely shrinks somewhere.
        assert any(b < a for a, b in zip(trajectory, trajectory[1:]))
        # The steady-state tail never exceeds the burn-in peak: growth is
        # bounded by the live window, not by stream length.
        assert max(trajectory[-self.TAIL:]) <= result.peak_size
        assert trajectory[-1] < result.peak_size

    @pytest.mark.parametrize(
        "adaptive,append_only",
        [("adaptive-popularity", "popularity"), ("epoch-hybrid", "hybrid")],
    )
    def test_adaptive_tail_sizes_below_append_only(
        self, churn_results, adaptive, append_only
    ):
        adaptive_tail = churn_results[adaptive].size_trajectory[-self.TAIL:]
        append_tail = churn_results[append_only].size_trajectory[-self.TAIL:]
        assert max(adaptive_tail) < min(append_tail)

    @pytest.mark.parametrize("label", ["popularity", "hybrid"])
    def test_append_only_counterparts_grow_monotonically(
        self, churn_results, label
    ):
        trajectory = churn_results[label].size_trajectory
        assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))
        assert churn_results[label].retired_components == 0

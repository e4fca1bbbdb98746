"""The epoch-rotating clock kernel and the lifecycle-aware EpochClock.

Covers the three new kernel capabilities - append-only component growth
(``extend_components``), epoch rotation with slot compaction
(``rotate_epoch``), and the re-timestamping invariant check - plus the
EpochClock ledger semantics (FIFO expiry per pair, stable tokens across
rotations, causality queries on live events) and the join-order slots
behind them (layout changes leave stored stamps alone and cost what
changed; reads lift them).
"""

from __future__ import annotations

import pytest

import repro.core.kernel as kernel_module
from repro.core import ClockComponents, ClockKernel, EpochClock, Timestamp, ordering
from repro.core.kernel import numpy_available
from repro.core.timestamping import verify_retimestamping
from repro.exceptions import ClockError, ComponentError, RetimestampingError
from repro.obs.registry import MetricsRegistry, install as obs_install


class TestKernelExtension:
    def test_extension_appends_zero_slots(self):
        kernel = ClockKernel(ClockComponents(thread_components=["T1"]))
        first = kernel.observe("T1", "O1")
        assert first.values == (1,)
        kernel.extend_components(object_components=["O2"])
        assert kernel.components.size == 2
        # The pre-extension clock is re-based: old value kept, new slot zero.
        assert kernel.thread_stamp("T1").values == (1, 0)
        second = kernel.observe("T1", "O2")
        assert second.values == (2, 1)

    def test_extension_matches_from_scratch_when_new_component_was_unused(self):
        """Extending before a component's first event == having it all along."""
        events = [("T1", "O1"), ("T1", "O2"), ("T2", "O2")]
        later = [("T2", "O3"), ("T1", "O3")]
        grown = ClockKernel(ClockComponents(thread_components=["T1", "T2"]))
        for thread, obj in events:
            grown.observe(thread, obj)
        grown.extend_components(object_components=["O3"])
        fresh = ClockKernel(
            ClockComponents(thread_components=["T1", "T2"], object_components=["O3"])
        )
        for thread, obj in events:
            fresh.observe(thread, obj)
        grown_tail = [grown.observe(t, o) for t, o in later]
        fresh_tail = [fresh.observe(t, o) for t, o in later]
        for grown_stamp, fresh_stamp in zip(grown_tail, fresh_tail):
            assert grown_stamp.as_dict() == fresh_stamp.as_dict()

    def test_extension_is_noop_for_known_components(self):
        kernel = ClockKernel(ClockComponents(thread_components=["T1"]))
        components = kernel.components
        kernel.extend_components(thread_components=["T1"])
        assert kernel.components is components

    def test_thread_slots_precede_object_slots_after_extension(self):
        kernel = ClockKernel(ClockComponents(object_components=["O1"]))
        kernel.observe("T1", "O1")
        kernel.extend_components(thread_components=["T2"])
        # Convention: threads first; O1's old value must follow T2's zero.
        assert kernel.components.ordered == ("T2", "O1")
        assert kernel.object_stamp("O1").values == (0, 1)


class TestKernelRotation:
    def test_rotation_counts_retirements_and_resets_state(self):
        kernel = ClockKernel(
            ClockComponents(thread_components=["T1", "T2"], object_components=["O1"])
        )
        kernel.observe("T1", "O1")
        retired = kernel.rotate_epoch(ClockComponents(thread_components=["T1"]))
        assert retired == 2  # T2 and O1
        assert kernel.epoch == 1
        assert kernel.retired_total == 2
        assert kernel.components.size == 1
        # All clock state is discarded; the caller replays the live window.
        assert kernel.thread_stamp("T1").values == (0,)

    def test_rotation_to_superset_retires_nothing(self):
        kernel = ClockKernel(ClockComponents(thread_components=["T1"]))
        retired = kernel.rotate_epoch(
            ClockComponents(thread_components=["T1", "T2"])
        )
        assert retired == 0
        assert kernel.retired_total == 0
        assert kernel.epoch == 1


class TestVerifyRetimestamping:
    def test_accepts_identical_verdicts(self):
        components = ClockComponents(thread_components=["T1", "T2"])
        a1 = Timestamp(components, [1, 0])
        b1 = Timestamp(components, [0, 1])
        verify_retimestamping([a1, b1], [a1, b1], components)

    def test_rejects_length_mismatch(self):
        components = ClockComponents(thread_components=["T1"])
        stamp = Timestamp(components, [1])
        with pytest.raises(RetimestampingError):
            verify_retimestamping([stamp, stamp], [stamp], components)

    def test_rejects_foreign_component_set(self):
        components = ClockComponents(thread_components=["T1"])
        other = ClockComponents(thread_components=["T1"])
        stamp = Timestamp(other, [1])
        with pytest.raises(RetimestampingError):
            verify_retimestamping([stamp], [stamp], components)

    def test_rejects_verdict_flip(self):
        before_components = ClockComponents(thread_components=["T1", "T2"])
        concurrent_a = Timestamp(before_components, [1, 0])
        concurrent_b = Timestamp(before_components, [0, 1])
        after_components = ClockComponents(thread_components=["T1"])
        ordered_a = Timestamp(after_components, [1])
        ordered_b = Timestamp(after_components, [2])
        assert ordering(concurrent_a, concurrent_b) == "concurrent"
        with pytest.raises(RetimestampingError):
            verify_retimestamping(
                [concurrent_a, concurrent_b],
                [ordered_a, ordered_b],
                after_components,
            )


class TestEpochClock:
    def test_observe_requires_coverage(self):
        clock = EpochClock()
        with pytest.raises(ComponentError):
            clock.observe("T1", "O1")

    def test_tokens_are_stable_across_rotation(self):
        clock = EpochClock(
            ClockComponents(thread_components=["T1", "T2"]), check_invariant=True
        )
        first = clock.observe("T1", "O1")
        second = clock.observe("T2", "O2")
        third = clock.observe("T1", "O2")
        assert clock.relation(first, third) == "before"  # same thread
        assert clock.relation(second, third) == "before"  # same object
        assert clock.relation(first, second) == "concurrent"
        clock.expire("T1", "O1")
        retired = clock.rotate(
            ClockComponents(thread_components=["T1", "T2"], object_components=["O2"])
        )
        assert retired == 0
        assert clock.live_tokens() == (second, third)
        assert clock.relation(second, third) == "before"
        with pytest.raises(ClockError):
            clock.timestamp(first)

    def test_expire_is_fifo_per_pair(self):
        clock = EpochClock(ClockComponents(thread_components=["T1"]))
        first = clock.observe("T1", "O1")
        second = clock.observe("T1", "O1")
        assert clock.expire("T1", "O1") == first
        assert clock.expire("T1", "O1") == second
        with pytest.raises(ClockError):
            clock.expire("T1", "O1")

    def test_rotation_compacts_retired_slots(self):
        clock = EpochClock(
            ClockComponents(thread_components=["T1", "T2"]), check_invariant=True
        )
        token = clock.observe("T1", "O1")
        clock.observe("T2", "O2")
        clock.expire("T2", "O2")
        retired = clock.rotate(ClockComponents(thread_components=["T1"]))
        assert retired == 1
        assert clock.size == 1
        assert clock.retired_total == 1
        assert clock.epoch == 1
        # The surviving event's stamp lives in the compacted basis.
        assert clock.timestamp(token).components.size == 1

    def test_rotation_without_coverage_raises(self):
        clock = EpochClock(ClockComponents(thread_components=["T1"]))
        clock.observe("T1", "O1")
        with pytest.raises(ComponentError):
            clock.rotate(ClockComponents(thread_components=["T9"]))

    def test_retiring_a_live_endpoint_replays(self):
        """A delta rotation may not retire a component with a live event.

        Retirement drops the retired thread's clock, but T0's live events
        must still order its later ones, so the default (delta) clock
        falls back to replay.
        """
        registry = MetricsRegistry(origin="test-live-endpoint")
        previous = obs_install(registry)
        try:
            clock = EpochClock(ClockComponents(["T0"], ["O1", "O2"]))
            clock.observe("T0", "O1")
            second = clock.observe("T0", "O2")
            clock.rotate(retired=["T0"])
            third = clock.observe("T0", "O1")
        finally:
            obs_install(previous)
        assert registry.counter_value("clock.rotation.replay") == 1
        assert clock.relation(second, third) == "before"

    def test_extension_preserves_live_verdicts(self):
        clock = EpochClock(ClockComponents(thread_components=["T1", "T2"]))
        a = clock.observe("T1", "O1")
        b = clock.observe("T2", "O1")
        before = clock.relation(a, b)
        clock.extend(object_components=("O1",))
        assert clock.size == 3
        assert clock.relation(a, b) == before
        c = clock.observe("T3", "O1")  # covered by the new object component
        assert clock.relation(b, c) == "before"


def _backend_clock_setup(backend, monkeypatch):
    """Make ``backend`` the default; skip without numpy; force the numpy
    backend onto its array loop."""
    monkeypatch.setattr(kernel_module, "default_backend_name", lambda: backend)
    if backend == "numpy":
        if not numpy_available():
            pytest.skip("numpy backend not installed")
        monkeypatch.setattr(kernel_module, "MIN_ARRAY_BATCH", 1)
        monkeypatch.setattr(kernel_module, "MIN_ARRAY_DIM_MINT", 0)
        monkeypatch.setattr(kernel_module, "MIN_ARRAY_DIM_ADVANCE", 0)


class TestLayoutChain:
    """Layout changes leave stored stamps alone; reads lift them exactly."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_layout_changes_keep_stored_stamps(self, backend, monkeypatch):
        _backend_clock_setup(backend, monkeypatch)
        kernel = ClockKernel(
            ClockComponents(["T1", "T2"], ["O1"]), backend=backend
        )
        kernel.timestamp_batch([("T1", "O1"), ("T2", "O2"), ("T3", "O1")])
        threads = dict(kernel._thread_stamps)
        objects = dict(kernel._object_stamps)
        kernel.extend_components(["T3"], ["O2"])
        assert all(kernel._thread_stamps[v] is s for v, s in threads.items())
        assert all(kernel._object_stamps[v] is s for v, s in objects.items())
        # T2 retires and loses its clock; O2 is idle but a component,
        # so it keeps its clock, as does every other endpoint.
        kernel.rotate_epoch_delta(["T2"], idle_objects=["O2"])
        assert kernel._thread_stamps.keys() == {"T1", "T3"}
        assert kernel._object_stamps.keys() == {"O1", "O2"}
        assert kernel._thread_stamps["T1"] is threads["T1"]
        assert kernel._thread_stamps["T3"] is threads["T3"]
        assert kernel._object_stamps["O1"] is objects["O1"]
        assert kernel._object_stamps["O2"] is objects["O2"]
        # Reads lift: T2 retired, T3 and O2 read zero where not yet seen.
        assert kernel.thread_stamp("T1").as_dict() == {
            "T1": 1, "T3": 0, "O1": 1, "O2": 0
        }
        assert kernel.object_stamp("O1").as_dict() == {
            "T1": 1, "T3": 0, "O1": 2, "O2": 0
        }

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_retired_then_readded_component_reads_zero(self, backend, monkeypatch):
        """A component retired by delta rotation and re-added by extension
        reads 0 in every stamp older than the retirement."""
        _backend_clock_setup(backend, monkeypatch)
        registry = MetricsRegistry(origin="test-retire-readd")
        previous = obs_install(registry)
        try:
            clocks = [
                EpochClock(ClockComponents(["T0", "T1"])),
                EpochClock(ClockComponents(["T0", "T1"]), rotation="replay"),
            ]
            for clock in clocks:
                clock.observe_batch([("T1", "O0"), ("T0", "O0")])
                # T1 left no live event, so T1 can retire by projection.
                clock.expire("T1", "O0")
                clock.rotate(ClockComponents(["T0"]))
                clock.extend(thread_components=("T1",))
                clock.observe_batch([("T1", "O1"), ("T0", "O1")])
        finally:
            obs_install(previous)
        assert registry.counter_value("clock.rotation.delta") == 1
        delta, replay = clocks
        old = delta.live_tokens()[0]
        assert delta.timestamp(old).value_of("T1") == 0
        assert delta.timestamp(old).value_of("T0") == 1
        live = delta.live_tokens()
        assert live == replay.live_tokens()
        verdicts = [
            (delta.relation(a, b), replay.relation(a, b))
            for i, a in enumerate(live)
            for b in live[i + 1:]
        ]
        assert all(mine == theirs for mine, theirs in verdicts)
        # The T1 event after the re-add is concurrent with the old T0 one;
        # an identity-only lift would carry T1's old count and order them.
        assert delta.relation(old, live[1]) == "concurrent"

    def test_rotating_back_to_an_older_layout_object(self):
        """Re-entering a component set object the chain still holds must
        not let stamps minted in it skip a retire-then-re-add since."""
        first = ClockComponents(["T0", "T1"])
        clock = EpochClock(first)
        clock.observe("T1", "O0")
        old = clock.observe("T0", "O0")
        clock.expire("T1", "O0")
        clock.rotate(ClockComponents(["T0"]))
        clock.extend(thread_components=("T1",))
        clock.rotate(first)  # same set as the current one: a delta rotation
        fresh = clock.observe("T1", "O1")
        assert clock.timestamp(old).value_of("T1") == 0
        assert clock.relation(old, fresh) == "concurrent"


class TestLayoutChangeCost:
    """A layout change costs what changed, structurally.

    Timing tests cannot see an ``O(k)`` rebuild creep back at small
    ``k``; counting can.  Across mixed extensions and pure retirements
    on a wide clock, no :class:`ClockComponents` is built and no stored
    stamp is created, replaced or read.
    """

    def test_extensions_and_retirements_touch_nothing(self, monkeypatch):
        threads = [f"T{i}" for i in range(240)]
        clocks = [
            EpochClock(ClockComponents(threads)),
            EpochClock(ClockComponents(threads), rotation="replay"),
        ]
        for clock in clocks:
            for index, thread in enumerate(threads):
                clock.observe(thread, f"O{index % 7}")
            # T0..T149 keep no live event, so each may retire by delta.
            for index, thread in enumerate(threads[:150]):
                clock.expire(thread, f"O{index % 7}")
        delta, replay = clocks
        kernel = delta._kernel
        stores = (kernel._thread_stamps, kernel._object_stamps, delta._live_stamps)
        before = [dict(store) for store in stores]
        slots = kernel._slots

        built, made = [], []
        init = ClockComponents.__init__
        make = kernel_module._LazyStamp._make.__func__
        monkeypatch.setattr(
            ClockComponents, "__init__",
            lambda self, *args: built.append(1) or init(self, *args),
        )
        monkeypatch.setattr(
            kernel_module._LazyStamp, "_make",
            classmethod(lambda cls, *args: made.append(1) or make(cls, *args)),
        )
        for step in range(100):
            delta.extend(thread_components=(f"N{step}",))
            delta.rotate(retired=(f"T{step}",))
        assert built == [] and made == []
        assert kernel._slots is slots, "no compaction at this dead share"
        assert delta.size == 240 and delta.retired_total == 100
        for store, old in zip(stores, before):
            assert all(store[key] is stamp for key, stamp in old.items() if key in store)
        monkeypatch.undo()

        for step in range(100):
            replay.extend(thread_components=(f"N{step}",))
            replay.rotate(retired=(f"T{step}",))
        assert delta.components == replay.components
        live = delta.live_tokens()
        assert live == replay.live_tokens()
        assert [delta.relation(live[0], b) for b in live[1:]] == [
            replay.relation(live[0], b) for b in live[1:]
        ]

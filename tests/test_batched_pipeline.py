"""The batched hot-path pipeline: bit-identity, backends, gating, resume.

Three layers of the chunked execution path are pinned down here:

* **mechanisms** - hypothesis property: for every registered mechanism,
  driving a random lifecycle stream (inserts, multiset-consistent
  expires, epoch markers) through ``observe_batch`` chunks of random
  sizes leaves *identical* state - decisions, component order, revealed
  graph, counters - to per-event ``observe``/``expire``/``end_epoch``;
* **kernel** - ``timestamp_batch`` / ``advance_batch`` mint/fold exactly
  what per-event ``observe`` does, for every available backend, across
  random chunkings and mid-stream component extensions; the numpy
  backend is *gated*: without numpy it is unselectable with a clean
  error and everything else keeps working;
* **engine** - the pipelines (runs capped at one insert, or batched)
  x {python, numpy} produce one fingerprint, including the stamp
  digests, through interrupt/resume mid-run and checkpointed restarts -
  also when an imposed window's expiries interleave with chunk and
  epoch boundaries and a run resumes under the other pipeline.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel_module
from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.cli import main
from repro.computation import trace_from_graph
from repro.computation.streams import epoch_marker, StreamEvent
from repro.core.components import ClockComponents
from repro.core.kernel import (
    ClockKernel,
    fold_stamp_values,
    numpy_available,
    resolve_backend,
)
from repro.core.timestamping import (
    EpochClock,
    TimestampedComputation,
    VectorClockProtocol,
)
from repro.engine import EngineCheckpointManager, EngineConfig, run_engine
from repro.engine.runner import BATCHED, PER_EVENT, EngineInterrupted
from repro.exceptions import ClockError, ComputationError, EngineError
from repro.graph import nonuniform_bipartite, uniform_bipartite
from repro.offline import timestamp_offline
import repro.online.simulator as simulator_module
from repro.online.adaptive import WindowedPopularityMechanism
from repro.online.simulator import StreamConsumer
from tests.conftest import count_array_batches

BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())

#: The batch loop's legs: every available backend, plus the numpy backend
#: with its array gates forced open.  The kernel suites below use clocks
#: and chunks so small that the gates would otherwise send every numpy
#: batch to the list form, so only this extra leg drives the array form
#: through random chunkings.
ARRAYS_LEG = "numpy-arrays"
LEGS = BACKENDS + ((ARRAYS_LEG,) if numpy_available() else ())


@contextlib.contextmanager
def batch_leg(leg):
    """The backend name to run ``leg`` with, its gates set for the leg."""
    if leg != ARRAYS_LEG:
        yield leg
        return
    with pytest.MonkeyPatch.context() as patch:
        for gate in ("MIN_ARRAY_BATCH", "MIN_ARRAY_DIM_MINT", "MIN_ARRAY_DIM_ADVANCE"):
            patch.setattr(kernel_module, gate, 0)
        yield "numpy"


def assert_form_ran(array_batches, leg):
    """The arrays leg really ran the array form (see count_array_batches)."""
    if leg == ARRAYS_LEG:
        assert array_batches() > 0, "the array form never ran"


# ---------------------------------------------------------------------------
# Strategies: lifecycle op sequences and chunkings
# ---------------------------------------------------------------------------
@st.composite
def lifecycle_ops(draw, max_ops=120, threads=6, objects=6):
    """A random op list: ("insert", t, o) / ("expire", t, o) / ("epoch",).

    Expires are drawn from the current live multiset, so the stream
    contract (never more expires than inserts per pair) holds by
    construction - the adaptive mechanisms enforce it.
    """
    count = draw(st.integers(min_value=1, max_value=max_ops))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    live = []
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.12 and live:
            pair = live.pop(rng.randrange(len(live)))
            ops.append(("expire",) + pair)
        elif roll < 0.18:
            ops.append(("epoch",))
        else:
            pair = (f"T{rng.randrange(threads)}", f"O{rng.randrange(objects)}")
            live.append(pair)
            ops.append(("insert",) + pair)
    return ops


def drive_per_event(mechanism, ops):
    sizes = []
    for op in ops:
        if op[0] == "insert":
            mechanism.observe(op[1], op[2])
            sizes.append(mechanism.clock_size)
        elif op[0] == "expire":
            mechanism.expire(op[1], op[2])
        else:
            mechanism.end_epoch()
    return sizes


def drive_batched(mechanism, ops, chunk_rng):
    """Feed insert runs through observe_batch, chopped at random sizes."""
    sizes = []
    run = []

    def flush():
        while run:
            cut = chunk_rng.randint(1, len(run))
            sizes.extend(mechanism.observe_batch(run[:cut]))
            del run[:cut]

    for op in ops:
        if op[0] == "insert":
            run.append((op[1], op[2]))
        elif op[0] == "expire":
            flush()
            mechanism.expire(op[1], op[2])
        else:
            flush()
            mechanism.end_epoch()
    flush()
    return sizes


def mechanism_state(mechanism):
    # switched_at (hybrid, epoch-hybrid) is read off _events_seen inside
    # _choose, so it pins the batch loop's write-back order.
    return (
        mechanism.decisions,
        mechanism.retirements,
        mechanism.components().ordered,
        mechanism.summary(),
        sorted(map(str, mechanism.revealed_graph.edges())),
        getattr(mechanism, "switched_at", None),
    )


class TestObserveBatchBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(ops=lifecycle_ops(), chunk_seed=st.integers(0, 2**16))
    def test_all_registered_mechanisms(self, ops, chunk_seed):
        for label, factory in EXTENDED_MECHANISMS.items():
            reference = factory(11)
            batched = factory(11)
            ref_sizes = drive_per_event(reference, ops)
            batch_sizes = drive_batched(
                batched, ops, random.Random(chunk_seed)
            )
            assert ref_sizes == batch_sizes, label
            assert mechanism_state(reference) == mechanism_state(batched), label

    def test_hooks_read_the_written_back_event_count(self):
        """A threshold crossed inside one batch lands on the per-event index.

        Hybrid's ``_choose`` reads ``events_seen``; the random ops above
        only sometimes cross its thresholds, so this dense run always
        does, mid-batch.
        """
        pairs = [(f"T{i % 5}", f"O{i % 6}") for i in range(36)]
        pairs += [(f"U{i}", f"P{i}") for i in range(10)]
        for label in ("hybrid", "epoch-hybrid", "adaptive-popularity-cost"):
            reference = EXTENDED_MECHANISMS[label](3)
            batched = EXTENDED_MECHANISMS[label](3)
            ref_sizes = []
            for pair in pairs:
                reference.observe(*pair)
                ref_sizes.append(reference.clock_size)
            assert batched.observe_batch(pairs) == ref_sizes, label
            assert mechanism_state(reference) == mechanism_state(batched), label
            if label == "hybrid":
                assert 0 < batched.switched_at < len(pairs) - 1

    def test_base_fallback_when_hooks_overridden(self):
        """The batch loop calls a subclass's lifecycle hook once per pair."""
        from repro.online.naive import NaiveMechanism

        seen = []

        class Hooked(NaiveMechanism):
            def _on_observe(self, thread, obj):
                seen.append((thread, obj))

        mechanism = Hooked()
        mechanism.observe_batch([("T0", "O0"), ("T1", "O0")])
        assert seen == [("T0", "O0"), ("T1", "O0")]

    def test_base_fallback_when_observe_overridden(self):
        """Overriding observe() itself routes every pair through it."""
        from repro.online.hybrid import HybridMechanism
        from repro.online.naive import NaiveMechanism
        from repro.online.popularity import PopularityMechanism

        for base in (NaiveMechanism, PopularityMechanism, HybridMechanism):
            calls = []

            class Audited(base):
                def observe(self, thread, obj):
                    calls.append((thread, obj))
                    return super().observe(thread, obj)

            mechanism = Audited()
            mechanism.observe_batch([("T0", "O0"), ("T1", "O0")])
            assert calls == [("T0", "O0"), ("T1", "O0")], base.__name__

    def test_decision_accessors(self):
        from repro.online.naive import NaiveMechanism

        mechanism = NaiveMechanism()
        mechanism.observe_batch([("T0", "O0"), ("T0", "O1"), ("T1", "O0")])
        assert mechanism.decision_count == 2
        assert mechanism.decisions_since(1) == mechanism.decisions[1:]


# ---------------------------------------------------------------------------
# Kernel batch entry points
# ---------------------------------------------------------------------------
@st.composite
def kernel_runs(draw):
    """(components, pair sequence, extension points) for kernel replays."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    threads = [f"T{i}" for i in range(8)]
    objects = [f"O{i}" for i in range(8)]
    thread_comps = [t for t in threads[:5]]
    object_comps = [o for o in objects[:4]]
    count = draw(st.integers(min_value=1, max_value=80))
    pairs = [
        (rng.choice(threads[:6]), rng.choice(objects))
        for _ in range(count)
    ]
    # Guarantee coverage under strict mode: each pair needs a component
    # endpoint; force the thread side into the covered prefix when the
    # object missed the component set.
    covered = []
    for thread, obj in pairs:
        if thread not in thread_comps and obj not in object_comps:
            covered.append((rng.choice(thread_comps), obj))
        else:
            covered.append((thread, obj))
    extension_at = draw(st.integers(min_value=0, max_value=count))
    return ClockComponents(thread_comps, object_comps), covered, extension_at


def last_touches(pairs):
    """The index of the last event touching each thread and each object."""
    last_thread = {thread: index for index, (thread, _) in enumerate(pairs)}
    last_object = {obj: index for index, (_, obj) in enumerate(pairs)}
    return last_thread, last_object


class TestKernelBatchBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(run=kernel_runs(), chunk_seed=st.integers(0, 2**16))
    def test_timestamp_batch_matches_observe(self, run, chunk_seed):
        components, pairs, extension_at = run
        reference = ClockKernel(components)
        ref_stamps = []
        for index, (thread, obj) in enumerate(pairs):
            if index == extension_at:
                reference.extend_components(thread_components=("T6",))
            ref_stamps.append(reference.observe(thread, obj))
        if extension_at == len(pairs):
            reference.extend_components(thread_components=("T6",))
        last_thread, last_object = last_touches(pairs)
        for leg in LEGS:
            with batch_leg(leg) as backend, count_array_batches() as ran:
                kernel = ClockKernel(components, backend=backend)
                stamps = []
                rng = random.Random(chunk_seed)
                cursor = 0
                extended = False
                while cursor < len(pairs):
                    if not extended and cursor >= extension_at:
                        kernel.extend_components(thread_components=("T6",))
                        extended = True
                    boundary = len(pairs) if extended else extension_at
                    cut = min(cursor + rng.randint(1, 17), boundary)
                    stamps.extend(kernel.timestamp_batch(pairs[cursor:cut]))
                    cursor = cut
                if not extended:
                    kernel.extend_components(thread_components=("T6",))
            assert_form_ran(ran, leg)
            assert [s.values for s in stamps] == [
                s.values for s in ref_stamps
            ], leg
            # The stored per-entity clocks agree too (value-wise).
            for thread, _ in pairs:
                assert (
                    kernel.thread_stamp(thread).values
                    == reference.thread_stamp(thread).values
                ), leg
            # And each endpoint stores the very stamp its last event
            # returned, in that stamp's mint layout: observe's
            # ``object_stamp is thread_stamp`` fast path keys on it.
            for index, (thread, obj) in enumerate(pairs):
                if index == last_thread[thread]:
                    assert kernel._thread_stamps[thread] is stamps[index], leg
                if index == last_object[obj]:
                    assert kernel._object_stamps[obj] is stamps[index], leg

    @settings(max_examples=40, deadline=None)
    @given(run=kernel_runs(), chunk_seed=st.integers(0, 2**16))
    def test_advance_batch_matches_fold_event(self, run, chunk_seed):
        components, pairs, _ = run
        reference = ClockKernel(components)
        fold = 0
        for thread, obj in pairs:
            stamp = reference.observe(thread, obj)
            fold = reference.fold_event(fold, stamp, thread, obj)
        last_thread, last_object = last_touches(pairs)
        for leg in LEGS:
            with batch_leg(leg) as backend, count_array_batches() as ran:
                kernel = ClockKernel(components, backend=backend)
                batched_fold = 0
                rng = random.Random(chunk_seed)
                cursor = 0
                while cursor < len(pairs):
                    cut = min(cursor + rng.randint(1, 17), len(pairs))
                    batched_fold = kernel.advance_batch(
                        pairs[cursor:cut], batched_fold
                    )
                    cursor = cut
            assert_form_ran(ran, leg)
            assert batched_fold == fold, leg
            for thread, _ in pairs:
                assert (
                    kernel.thread_stamp(thread).values
                    == reference.thread_stamp(thread).values
                ), leg
            # Minting nothing, the batch still leaves the thread and the
            # object of an event that was last for both sharing one stamp.
            for index, (thread, obj) in enumerate(pairs):
                if index == last_thread[thread] == last_object[obj]:
                    assert kernel.thread_stamp(thread) is kernel.object_stamp(obj), leg

    def test_strict_batch_raises_and_applies_prefix(self):
        components = ClockComponents(thread_components=["T0"])
        pairs = [("T0", "O0"), ("T1", "O1"), ("T0", "O2")]
        for backend in BACKENDS:
            kernel = ClockKernel(components, backend=backend)
            with pytest.raises(Exception) as excinfo:
                kernel.timestamp_batch(pairs)
            assert "not covered" in str(excinfo.value)
            # The covered prefix was applied, like a sequential loop.
            assert kernel.thread_stamp("T0").values == (1,)

    def test_non_strict_batch_merge_only(self):
        components = ClockComponents(thread_components=["T0"])
        # Merge-only events (no component endpoint) with one side absent,
        # both sides new, both sides sharing one vector, and two distinct
        # vectors, around covered ones.
        pairs = [
            ("T0", "O0"), ("T1", "O0"), ("T2", "O2"), ("T1", "O0"),
            ("T0", "O1"), ("T0", "O2"), ("T1", "O2"),
        ]
        reference = ClockKernel(components, strict=False)
        expected = []
        fold = 0
        for thread, obj in pairs:
            stamp = reference.observe(thread, obj)
            expected.append(stamp.values)
            fold = reference.fold_event(fold, stamp, thread, obj)
        for leg in LEGS:
            with batch_leg(leg) as backend:
                kernel = ClockKernel(components, strict=False, backend=backend)
                with count_array_batches() as minted_on_arrays:
                    stamps = kernel.timestamp_batch(pairs)
                folder = ClockKernel(components, strict=False, backend=backend)
                with count_array_batches() as folded_on_arrays:
                    batched_fold = folder.advance_batch(pairs)
            assert_form_ran(minted_on_arrays, leg)
            assert_form_ran(folded_on_arrays, leg)
            assert [s.values for s in stamps] == expected, leg
            assert batched_fold == fold, leg
            for thread, obj in pairs:
                for clocks in (kernel, folder):
                    assert (
                        clocks.thread_stamp(thread).values
                        == reference.thread_stamp(thread).values
                    ), leg
                    assert (
                        clocks.object_stamp(obj).values
                        == reference.object_stamp(obj).values
                    ), leg

    def test_fold_is_order_sensitive(self):
        a = fold_stamp_values(fold_stamp_values(0, 1, 2), 3, 4)
        b = fold_stamp_values(fold_stamp_values(0, 3, 4), 1, 2)
        assert a != b

    def test_epoch_clock_observe_batch(self):
        from repro.core.timestamping import EpochClock

        components = ClockComponents(thread_components=["T0", "T1"])
        reference = EpochClock(components)
        pairs = [("T0", "O0"), ("T1", "O0"), ("T0", "O1")]
        ref_tokens = [reference.observe(t, o) for t, o in pairs]
        for backend in BACKENDS:
            clock = EpochClock(components)
            clock._kernel.set_backend(backend)
            tokens = clock.observe_batch(pairs)
            assert tokens == ref_tokens
            for token in tokens:
                assert (
                    clock.timestamp(token).values
                    == reference.timestamp(token).values
                )


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestNumpyArrayPath:
    """Bit-identity of the numpy loop's *array form* specifically.

    The hypothesis suites above use small clocks and short chunks, which
    reach the array form only with the numpy backend's gates forced
    open.  These tests run it behind the real gates: a 200-slot clock
    and 96-event chunks clear both width gates (MIN_ARRAY_DIM_MINT,
    MIN_ARRAY_DIM_ADVANCE) and MIN_ARRAY_BATCH, and each test asserts
    that the gate of its mode is actually open.
    """

    CHUNK = 96

    def _setup(self, seed):
        rng = random.Random(seed)
        threads = [f"T{i}" for i in range(160)]
        objects = [f"O{i}" for i in range(60)]
        components = ClockComponents(threads[:150], objects[:50])
        pairs = [
            (rng.choice(threads[:150]), rng.choice(objects))
            for _ in range(480)
        ]
        return components, threads, pairs

    def _assert_gate_open(self, kernel, chunk, min_dim):
        assert kernel.backend_name == "numpy"
        assert kernel_module._use_arrays(
            kernel, chunk, min_dim
        ), "test sizes no longer clear the array-path gates; raise them"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mint_matches_per_event(self, seed):
        components, threads, pairs = self._setup(seed)
        reference = ClockKernel(components)
        ref_stamps = []
        for index, (thread, obj) in enumerate(pairs):
            if index == 288:
                reference.extend_components(thread_components=(threads[155],))
            ref_stamps.append(reference.observe(thread, obj))
        kernel = ClockKernel(components, backend="numpy")
        self._assert_gate_open(
            kernel, pairs[:self.CHUNK], kernel_module.MIN_ARRAY_DIM_MINT
        )
        stamps = []
        for start in range(0, len(pairs), self.CHUNK):
            if start == 288:
                kernel.extend_components(thread_components=(threads[155],))
            stamps.extend(
                kernel.timestamp_batch(pairs[start:start + self.CHUNK])
            )
        assert [s.values for s in stamps] == [s.values for s in ref_stamps]
        assert all(
            type(value) is int for stamp in stamps for value in stamp.values
        )
        for thread, _ in pairs:
            assert (
                kernel.thread_stamp(thread).values
                == reference.thread_stamp(thread).values
            )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_advance_matches_per_event_fold(self, seed):
        components, _, pairs = self._setup(seed)
        reference = ClockKernel(components)
        fold = 0
        for thread, obj in pairs:
            stamp = reference.observe(thread, obj)
            fold = reference.fold_event(fold, stamp, thread, obj)
        kernel = ClockKernel(components, backend="numpy")
        self._assert_gate_open(
            kernel, pairs[:self.CHUNK], kernel_module.MIN_ARRAY_DIM_ADVANCE
        )
        batched_fold = 0
        for start in range(0, len(pairs), self.CHUNK):
            batched_fold = kernel.advance_batch(
                pairs[start:start + self.CHUNK], batched_fold
            )
        assert batched_fold == fold
        for _, obj in pairs:
            assert (
                kernel.object_stamp(obj).values
                == reference.object_stamp(obj).values
            )

    def test_strict_error_applies_prefix_on_array_path(self):
        components, _, pairs = self._setup(9)
        poisoned = pairs[: self.CHUNK]
        poisoned[60] = ("T-unknown", "O-unknown")
        reference = ClockKernel(components)
        for thread, obj in poisoned[:60]:
            reference.observe(thread, obj)
        kernel = ClockKernel(components, backend="numpy")
        self._assert_gate_open(
            kernel, poisoned, kernel_module.MIN_ARRAY_DIM_MINT
        )
        with pytest.raises(Exception, match="not covered"):
            kernel.timestamp_batch(poisoned)
        for thread, obj in poisoned[:60]:
            assert (
                kernel.thread_stamp(thread).values
                == reference.thread_stamp(thread).values
            )
            assert (
                kernel.object_stamp(obj).values
                == reference.object_stamp(obj).values
            )


# ---------------------------------------------------------------------------
# Backend gating
# ---------------------------------------------------------------------------
class TestBackendGate:
    def test_python_always_available(self):
        assert resolve_backend("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ClockError, match="unknown kernel backend"):
            resolve_backend("fortran")

    @pytest.mark.parametrize("backend", [["numpy"], {}, 1])
    def test_non_name_backend_rejected(self, backend):
        """Anything but a backend name is a clean error, hashable or not."""
        with pytest.raises(ClockError, match="unknown kernel backend"):
            ClockKernel(ClockComponents(), backend=backend)
        with pytest.raises(EngineError, match="unknown kernel backend"):
            EngineConfig(scenario="thread-churn", backend=backend).validate()

    def test_numpy_gate_degrades_cleanly(self, monkeypatch):
        """Without numpy: python-only listing, clean errors, working kernels."""
        monkeypatch.setattr(kernel_module, "_np", None)
        assert not numpy_available()
        with pytest.raises(ClockError, match="numpy is not importable"):
            resolve_backend("numpy")
        with pytest.raises(EngineError, match="numpy is not importable"):
            EngineConfig(
                scenario="thread-churn", backend="numpy"
            ).validate()
        # The python path is untouched by the gate.
        kernel = ClockKernel(ClockComponents(thread_components=["T0"]))
        assert kernel.timestamp_batch([("T0", "O0")])[0].values == (1,)

    @staticmethod
    def default_backends():
        """The backend a bare kernel, protocol and epoch clock resolve to."""
        components = ClockComponents(thread_components=["T0"])
        return (
            ClockKernel(components).backend_name,
            VectorClockProtocol(components)._kernel.backend_name,
            EpochClock(components)._kernel.backend_name,
        )

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_default_is_numpy_when_it_imports(self):
        assert self.default_backends() == ("numpy",) * 3

    def test_default_is_python_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "_np", None)
        assert self.default_backends() == ("python",) * 3
        protocol = VectorClockProtocol(ClockComponents(thread_components=["T0"]))
        assert [s.values for s in protocol.timestamp_batch([("T0", "O0")] * 2)] == [
            (1,), (2,),
        ]
        clock = EpochClock(ClockComponents(thread_components=["T0"]))
        first, second = clock.observe("T0", "O0"), clock.observe("T0", "O1")
        assert clock.relation(first, second) == "before"

    @pytest.mark.parametrize(
        "family, nodes", [(uniform_bipartite, 60), (nonuniform_bipartite, 250)]
    )
    @pytest.mark.parametrize("seed", [3, 11])
    def test_offline_default_matches_python(self, family, nodes, seed):
        """The offline pipeline stamps wide clocks the same under the default
        backend (numpy when it imports) as per-event ``observe``, the
        kernel's independent oracle."""
        trace = trace_from_graph(
            family(nodes, nodes, 3 / nodes, seed=seed),
            operations_per_edge=2,
            seed=seed,
        )
        with count_array_batches() as array_batches:
            stamped = timestamp_offline(trace)
        assert stamped.clock_size >= 48
        assert (array_batches() > 0) == numpy_available()
        protocol = VectorClockProtocol(stamped.components)
        events = trace.events
        reference = TimestampedComputation(
            trace,
            stamped.components,
            {event: protocol.observe_event(event) for event in events},
        )
        rng = random.Random(seed)
        for _ in range(2_000):
            a, b = rng.sample(events, 2)
            assert stamped.relation(a, b) == reference.relation(a, b)
        for event in events:
            assert stamped[event].values == reference[event].values

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_numpy_backend_pickles_by_name(self):
        import pickle

        kernel = ClockKernel(
            ClockComponents(thread_components=["T0"]), backend="numpy"
        )
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.backend_name == "numpy"
        clone.set_backend("python")
        assert clone.backend_name == "python"

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_numpy_checkpoint_unpickles_without_numpy(self, monkeypatch):
        """A shard pickled under numpy loads on a numpy-less host."""
        import pickle

        kernel = ClockKernel(
            ClockComponents(thread_components=["T0"]), backend="numpy"
        )
        kernel.observe("T0", "O0")
        payload = pickle.dumps(kernel)
        monkeypatch.setattr(kernel_module, "_np", None)
        clone = pickle.loads(payload)
        assert clone.backend_name == "python"
        assert clone.thread_stamp("T0").values == (1,)


# ---------------------------------------------------------------------------
# Engine pipelines
# ---------------------------------------------------------------------------
MATRIX_CONFIG = dict(
    scenario="thread-churn",
    num_threads=25,
    num_objects=25,
    density=0.2,
    num_events=900,
    seed=77,
    num_shards=3,
    chunk_size=120,
    mechanisms=("naive", "popularity"),
    include_offline=True,
    timestamps=True,
)


class TestEnginePipelines:
    def test_fingerprint_matrix(self):
        fingerprints = {}
        for pipeline in ("per-event", "batched"):
            for backend in BACKENDS:
                config = EngineConfig(
                    pipeline=pipeline, backend=backend, **MATRIX_CONFIG
                )
                fingerprints[(pipeline, backend)] = run_engine(
                    config
                ).fingerprint()
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_stamp_digests_present_and_carried(self):
        result = run_engine(EngineConfig(**MATRIX_CONFIG))
        labels = {label for _, label in result.partial.series}
        assert "offline" in labels
        for (shard, label), fragment in result.partial.series.items():
            if label == "offline":
                assert fragment.stamp_digest is None
            else:
                assert fragment.stamp_digest

    def test_timestamps_off_keeps_digest_out_of_fingerprint(self):
        config = EngineConfig(
            **{**MATRIX_CONFIG, "timestamps": False}
        )
        result = run_engine(config)
        assert all(
            fragment.stamp_digest is None
            for fragment in result.partial.series.values()
        )
        assert "stamps=" not in "\n".join(result._canonical_lines())

    def test_timestamps_reject_window_aware_mechanisms(self):
        config = EngineConfig(
            scenario="thread-churn",
            mechanisms=("naive", "adaptive-popularity"),
            timestamps=True,
        )
        with pytest.raises(EngineError, match="append-only"):
            config.validate()

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(EngineError, match="unknown pipeline"):
            EngineConfig(scenario="thread-churn", pipeline="warp").validate()

    def test_batched_with_window_and_epochs_matches_per_event(self):
        base = dict(
            scenario="hot-object-drift",
            num_threads=20,
            num_objects=20,
            density=0.2,
            num_events=800,
            seed=5,
            num_shards=2,
            chunk_size=150,
            window=120,
            epoch_every=90,
            mechanisms=("naive", "adaptive-popularity", "epoch-hybrid"),
        )
        per_event = run_engine(EngineConfig(pipeline="per-event", **base))
        batched = run_engine(EngineConfig(pipeline="batched", **base))
        assert batched.fingerprint() == per_event.fingerprint()

    @given(
        scenario=st.sampled_from(["hot-object-drift", "phase-change"]),
        window=st.integers(1, 120),
        chunk_size=st.integers(5, 80),
        epoch_every=st.one_of(st.none(), st.integers(3, 70)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_window_run_resumes_across_pipelines(
        self, scenario, window, chunk_size, epoch_every, seed
    ):
        # An imposed window expires inside insert runs, so window fills,
        # chunk and epoch boundaries interleave arbitrarily.  A
        # run interrupted mid-window under one pipeline and resumed under
        # the other must land on the uninterrupted fingerprint.  (400
        # inserts over 2 shards: some shard always completes a chunk.)
        config = EngineConfig(
            scenario=scenario,
            num_threads=12,
            num_objects=12,
            density=0.2,
            num_events=400,
            seed=seed,
            num_shards=2,
            chunk_size=chunk_size,
            window=window,
            epoch_every=epoch_every,
            mechanisms=("naive", "adaptive-popularity", "epoch-hybrid"),
        )
        reference = run_engine(config).fingerprint()
        for first, then in ((PER_EVENT, BATCHED), (BATCHED, PER_EVENT)):
            with tempfile.TemporaryDirectory() as directory:
                checkpointed = dataclasses.replace(config, checkpoint_dir=directory)
                with pytest.raises(EngineInterrupted):
                    run_engine(
                        dataclasses.replace(
                            checkpointed, pipeline=first, max_chunks_per_shard=1
                        )
                    )
                resumed = run_engine(dataclasses.replace(checkpointed, pipeline=then))
            assert resumed.fingerprint() == reference, (first, then)

    def test_interrupt_resume_mid_chunk_batched(self, tmp_path):
        reference = run_engine(EngineConfig(**MATRIX_CONFIG))
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), **MATRIX_CONFIG
        )
        with pytest.raises(EngineInterrupted):
            run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
        resumed = run_engine(config)
        assert resumed.fingerprint() == reference.fingerprint()

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_resume_under_different_backend(self, tmp_path):
        """A run checkpointed under one backend resumes under another."""
        reference = run_engine(EngineConfig(**MATRIX_CONFIG))
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"),
            backend="python",
            **MATRIX_CONFIG,
        )
        with pytest.raises(EngineInterrupted):
            run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
        resumed = run_engine(dataclasses.replace(config, backend="numpy"))
        assert resumed.fingerprint() == reference.fingerprint()

    def test_timestamps_key_absent_from_default_signature(self):
        """Pre-existing (timestamp-less) checkpoint dirs stay resumable."""
        config = EngineConfig(**{**MATRIX_CONFIG, "timestamps": False})
        assert "timestamps" not in config.signature()
        assert EngineConfig(**MATRIX_CONFIG).signature()["timestamps"] is True

    def test_timestamps_part_of_signature(self, tmp_path):
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), **MATRIX_CONFIG
        )
        run_engine(config)
        with pytest.raises(EngineError, match="different run configuration"):
            run_engine(dataclasses.replace(config, timestamps=False))


# ---------------------------------------------------------------------------
# Stream batching helpers and simulator parity
# ---------------------------------------------------------------------------
class TestStreamConsumerRuns:
    """How :meth:`StreamConsumer.consume` cuts a stream into insert runs."""

    @staticmethod
    def _run_lengths(events, **options):
        consumer = StreamConsumer(
            {"naive": EXTENDED_MECHANISMS["naive"](0)}, **options
        )
        lengths = []
        consumer.consume(events, lambda sizes, _: lengths.append(len(sizes["naive"])))
        return lengths, consumer

    def test_runs_cut_at_lifecycle_events(self):
        events = [
            StreamEvent("T0", "O0"),
            StreamEvent("T1", "O1"),
            StreamEvent("T0", "O0", "expire"),
            epoch_marker(),
            StreamEvent("T1", "O0"),
        ]
        lengths, consumer = self._run_lengths(events)
        assert lengths == [2, 1]
        assert (consumer.inserts, consumer.expires, consumer.epochs) == (3, 1, 1)

    def test_max_batch_cuts_runs(self, monkeypatch):
        monkeypatch.setattr(simulator_module, "MAX_BATCH_EVENTS", 2)
        events = [StreamEvent(f"T{i}", "O0") for i in range(5)]
        assert self._run_lengths(events)[0] == [2, 2, 1]

    @pytest.mark.parametrize("option", ["window", "epoch"])
    def test_rejects_non_positive_window_and_epoch(self, option):
        with pytest.raises(ComputationError, match=f"{option} must be >= 1"):
            self._run_lengths([], **{option: 0})


# ---------------------------------------------------------------------------
# Windowed degree estimates (the drift bugfix, flagged)
# ---------------------------------------------------------------------------
class TestWindowedDegrees:
    def test_registered_label(self):
        mechanism = EXTENDED_MECHANISMS["adaptive-popularity-windowed"](0)
        assert isinstance(mechanism, WindowedPopularityMechanism)
        assert mechanism.windowed_degrees
        assert mechanism.name == "adaptive-popularity-windowed"
        assert not EXTENDED_MECHANISMS["adaptive-popularity"](0).windowed_degrees

    def test_windowed_choice_ignores_expired_popularity(self):
        """After a hot object's events expire, its dead degree stops winning.

        Build history where object O-hot accumulates high append-only
        degree, then expire all its events; a fresh uncovered event
        ``(T-new, O-hot)`` must pick the thread side under windowed
        degrees (the object has no live events beyond the current one)
        while the append-only policy still picks the object.
        """

        def history(mechanism):
            for i in range(5):
                mechanism.observe(f"T{i}", "O-hot")
            for i in range(5):
                mechanism.expire(f"T{i}", "O-hot")
            # Give the new thread one live event so its windowed count
            # ties/beats the dead object's.
            mechanism.observe("T-new", "O-fresh")
            return mechanism

        append_only = history(WindowedPopularityMechanism())
        windowed = history(
            WindowedPopularityMechanism(windowed_degrees=True)
        )
        # Un-cover the endpoints under test: retire any component that
        # would cover the probe event.  (The probe pair is chosen so
        # neither mechanism covers it: T-probe never appeared, O-stale
        # accumulated degree but was retired when its events expired.)
        probe = ("T-probe", "O-hot")
        for mechanism in (append_only, windowed):
            assert not mechanism.covers(*probe)
        added_append = append_only.observe(*probe)
        added_windowed = windowed.observe(*probe)
        # Append-only popularity: O-hot has revealed degree 6 vs thread
        # degree 1 -> picks the (dead) object.
        assert added_append == "O-hot"
        # Windowed: O-hot has 1 live event (this one), T-probe has 1 ->
        # tie falls to the thread side, tracking the live regime.
        assert added_windowed == "T-probe"


# ---------------------------------------------------------------------------
# Checkpoint age-based pruning
# ---------------------------------------------------------------------------
class TestMaxAgePrune:
    def _aged_checkpoint_dir(self, tmp_path):
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), **MATRIX_CONFIG
        )
        run_engine(config)
        return config

    def test_prune_max_age_removes_stale_shards(self, tmp_path):
        config = self._aged_checkpoint_dir(tmp_path)
        manager = EngineCheckpointManager.open(config.checkpoint_dir)
        files = manager.shard_files()
        assert files
        stale = files[0]
        old = time.time() - 3600
        os.utime(stale, (old, old))
        removed = manager.prune(max_age=600)
        assert stale in removed
        # Fresh shards and the manifest survive.
        assert set(manager.shard_files()) == set(files) - {0}
        assert (manager.directory / "manifest.json").exists()
        # The pruned shard is simply recomputed: the resumed run still
        # matches a fresh one bit for bit.
        resumed = run_engine(config)
        assert resumed.fingerprint() == run_engine(
            EngineConfig(**MATRIX_CONFIG)
        ).fingerprint()

    def test_prune_without_age_keeps_referenced(self, tmp_path):
        config = self._aged_checkpoint_dir(tmp_path)
        manager = EngineCheckpointManager.open(config.checkpoint_dir)
        count = len(manager.shard_files())
        assert manager.prune() == []
        assert len(manager.shard_files()) == count

    def test_negative_age_rejected(self, tmp_path):
        config = self._aged_checkpoint_dir(tmp_path)
        manager = EngineCheckpointManager.open(config.checkpoint_dir)
        with pytest.raises(EngineError):
            manager.prune(max_age=-1)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCli:
    def test_engine_run_pipeline_backend_timestamps(self, capsys):
        # The CLI's batched run prints the fingerprint of the per-event
        # python-backend run of the same configuration.
        code = main(
            [
                "engine", "run", "--scenario", "thread-churn",
                "--events", "400", "--nodes", "15", "--shards", "2",
                "--chunk-size", "100", "--mechanisms", "naive",
                "--timestamps",
            ]
        )
        out_batched = capsys.readouterr().out
        assert code == 0
        per_event = run_engine(
            EngineConfig(
                scenario="thread-churn", num_threads=15, num_objects=15,
                num_events=400, num_shards=2, chunk_size=100,
                mechanisms=("naive",), timestamps=True,
                pipeline="per-event", backend="python",
            )
        )
        assert f"fingerprint: {per_event.fingerprint()}" in out_batched

    def test_engine_run_backend_is_unknown_argument(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "engine", "run", "--scenario", "thread-churn",
                    "--events", "100", "--backend", "numpy",
                ]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_engine_run_timestamps_without_numpy(self, capsys, monkeypatch):
        monkeypatch.setattr(kernel_module, "_np", None)
        code = main(
            [
                "engine", "run", "--scenario", "thread-churn",
                "--events", "200", "--nodes", "10", "--shards", "2",
                "--mechanisms", "naive", "--timestamps",
            ]
        )
        assert code == 0
        reference = run_engine(
            EngineConfig(
                scenario="thread-churn", num_threads=10, num_objects=10,
                num_events=200, num_shards=2, mechanisms=("naive",),
                timestamps=True, backend="python",
            )
        )
        assert f"fingerprint: {reference.fingerprint()}" in capsys.readouterr().out

    def test_sweep_ratio_backend(self, capsys):
        # A ratio is a size quotient: the sweep mints no stamps, so it
        # has no kernel backend to pin and rejects the flag.
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "sweep", "ratio", "--scenario", "thread-churn",
                    "--trials", "1", "--nodes", "10", "--density", "0.2",
                    "--events", "150", "--burn-in", "30", "--tail", "30",
                    "--backend", "python",
                ]
            )
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_engine_clean_max_age(self, tmp_path, capsys):
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), **MATRIX_CONFIG
        )
        run_engine(config)
        for path in EngineCheckpointManager.open(
            config.checkpoint_dir
        ).shard_files().values():
            old = time.time() - 7200
            os.utime(path, (old, old))
        code = main(
            ["engine", "clean", config.checkpoint_dir, "--max-age", "3600"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 3 unreferenced/stale file(s)" in out

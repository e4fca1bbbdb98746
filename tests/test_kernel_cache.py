"""The array form across lifecycle edges: where stale vectors would hide.

Array batches mint lazy stamps that keep their array, and the next
array batch reads each endpoint's array straight back from its stored
stamp - the stored stamp is the one home of every clock.  Each batch
works in the narrowest of ``int16``/``int32``/``int64`` that holds the
kernel's event count after it, since no slot can exceed that count (a
slot counts only its own component's events, and a merge takes a
maximum); a stored array narrower than its batch is widened on read.  That
stays bit-identical in the steady state by construction; the risk sits
at lifecycle edges, where an array of the wrong layout or epoch could
be read back.  Each test here drives one such edge with
hypothesis-generated streams and asserts the numpy backend agrees with
the python loop (or with per-event ``observe``) value-for-value:

* mid-stream ``extend_components`` (a stored array of the old layout is
  lifted with one ``take`` on its next read);
* ``rotate_epoch`` mid-stream (nothing of the old epoch's arrays may
  leak into the new one);
* checkpoint/resume (a pickle holds no numpy object - a numpy-less host
  must load it - and pickling strips no stored stamp of its array);
* backend switch on resume, and short batches after long ones;
* the numpy backend's stateless gate: a batch whose first event reads
  an array-holding stamp stays on arrays at any length, with the
  default gates, not forced open;
* verdicts between array-holding stamps: compared on their arrays,
  they equal the python stamps' verdicts and materialise nothing;
* width tiers (limits patched small): int16 stamps read by int32 and
  int64 batches, across a compaction and a pickle, and an int16 slot
  that keeps counting past 32,767.

These complement ``tests/test_batched_pipeline.py``'s broader backend
bit-identity suite; here every clock is wide enough (50 slots) to clear
the default width gates, and every test that needs the array form
asserts it ran, because the list form would make the assertions
vacuous.
"""

from __future__ import annotations

import io
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel_module
from repro.core.clock import Timestamp, ordering
from repro.core.components import ClockComponents
from repro.core.kernel import ClockKernel, numpy_available
from repro.obs.registry import MetricsRegistry, install as obs_install
from tests.conftest import count_array_batches

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

SETTINGS = settings(max_examples=25, deadline=None)

#: Wide enough (30 + 20 = 50 slots) to clear MIN_ARRAY_DIM_MINT, so
#: batches of >= MIN_ARRAY_BATCH events take the array path.
THREAD_COMPS = [f"T{i}" for i in range(30)]
OBJECT_COMPS = [f"O{i}" for i in range(20)]


def fresh_components():
    return ClockComponents(THREAD_COMPS, OBJECT_COMPS)


def random_pair(rng):
    return (
        f"T{rng.randrange(len(THREAD_COMPS))}",
        f"O{rng.randrange(len(OBJECT_COMPS))}",
    )


@st.composite
def batched_pairs(draw, batches=4, batch_size=24):
    """A list of insert batches, each long enough for the array path."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    return [
        [random_pair(rng) for _ in range(batch_size)]
        for _ in range(draw(st.integers(min_value=2, max_value=batches)))
    ]


def drive(kernel, batches):
    """Timestamp every batch; returns the materialised stamp values."""
    out = []
    for batch in batches:
        out.extend(stamp.values for stamp in kernel.timestamp_batch(batch))
    return out


def assert_same_state(numpy_kernel, python_kernel):
    for thread in THREAD_COMPS:
        assert (
            numpy_kernel.thread_stamp(thread).values
            == python_kernel.thread_stamp(thread).values
        ), thread
    for obj in OBJECT_COMPS:
        assert (
            numpy_kernel.object_stamp(obj).values
            == python_kernel.object_stamp(obj).values
        ), obj


def holds_array(stamp):
    """Whether ``stamp`` is a lazy stamp that still keeps its array."""
    return type(getattr(stamp, "_raw", ())) is not tuple


class NumpyFreeUnpickler(pickle.Unpickler):
    """Loads a pickle only if it references nothing from numpy."""

    def find_class(self, module, name):
        assert module.split(".")[0] != "numpy", (module, name)
        return super().find_class(module, name)


@requires_numpy
class TestCacheBitIdentity:
    @SETTINGS
    @given(batches=batched_pairs(), grow_at=st.integers(0, 3))
    def test_extend_components_with_warm_cache(self, batches, grow_at):
        """Growth between array batches stays bit-identical."""
        arrays = ClockKernel(fresh_components(), backend="numpy")
        lists = ClockKernel(fresh_components(), backend="python")
        array_values, list_values = [], []
        with count_array_batches() as ran:
            for index, batch in enumerate(batches):
                if index == min(grow_at, len(batches) - 1):
                    for kernel in (arrays, lists):
                        kernel.extend_components(
                            thread_components=("T90",), object_components=("O90",)
                        )
                array_values.extend(s.values for s in arrays.timestamp_batch(batch))
                list_values.extend(s.values for s in lists.timestamp_batch(batch))
        assert array_values == list_values
        assert_same_state(arrays, lists)
        # The edge under test actually ran on the array path.
        assert ran() > 0

    @SETTINGS
    @given(batches=batched_pairs())
    def test_rotate_epoch_drops_cache_and_stays_identical(self, batches):
        """Epoch rotation mid-stream: no old-epoch array survives."""
        arrays = ClockKernel(fresh_components(), backend="numpy")
        lists = ClockKernel(fresh_components(), backend="python")
        with count_array_batches() as ran:
            drive(arrays, batches[:1])
        drive(lists, batches[:1])
        assert ran() > 0
        for kernel in (arrays, lists):
            kernel.rotate_epoch(fresh_components())
        # The rotation discards every stored stamp, and with them their
        # arrays: the new epoch cannot read a pre-rotation vector.
        assert not arrays._thread_stamps and not arrays._object_stamps
        assert drive(arrays, batches) == drive(lists, batches)
        assert_same_state(arrays, lists)

    @SETTINGS
    @given(batches=batched_pairs())
    def test_advance_batch_fold_matches_python(self, batches):
        """The digest path reads the stored arrays; folds must agree too."""
        arrays = ClockKernel(fresh_components(), backend="numpy")
        lists = ClockKernel(fresh_components(), backend="python")
        array_fold = list_fold = 0
        with count_array_batches() as ran:
            for batch in batches:
                array_fold = arrays.advance_batch(batch, array_fold)
                list_fold = lists.advance_batch(batch, list_fold)
        assert array_fold == list_fold
        assert_same_state(arrays, lists)
        assert ran() > 0


@requires_numpy
class TestCacheCheckpointing:
    def warm_kernel(self, seed=404):
        kernel = ClockKernel(fresh_components(), backend="numpy")
        rng = random.Random(seed)
        with count_array_batches() as ran:
            kernel.timestamp_batch([random_pair(rng) for _ in range(64)])
        assert ran() == 1, "array path did not engage"
        return kernel

    def test_cache_not_pickled(self):
        """A pickled kernel contains no numpy object, so any host loads it."""
        kernel = self.warm_kernel()
        assert any(map(holds_array, kernel._thread_stamps.values()))
        clone = NumpyFreeUnpickler(io.BytesIO(pickle.dumps(kernel))).load()
        assert not any(map(holds_array, clone._thread_stamps.values()))
        assert_same_state(clone, kernel)

    def test_pickling_keeps_stamp_arrays(self):
        """A checkpoint materialises no stored stamp, current or lifted."""
        kernel = self.warm_kernel()
        kernel.extend_components(thread_components=("T90",))
        # Re-mint part of the state over the grown layout, so the kernel
        # holds array stamps of both the current and an older layout.
        kernel.timestamp_batch([(f"T{i}", f"O{i}") for i in range(16)])
        stored = list(kernel._thread_stamps.values()) + list(
            kernel._object_stamps.values()
        )
        layouts = {id(stamp._components) for stamp in stored}
        assert len(layouts) == 2 and all(map(holds_array, stored))
        registry = MetricsRegistry(origin="test-checkpoint")
        previous = obs_install(registry)
        try:
            payload = pickle.dumps(kernel)
        finally:
            obs_install(previous)
        assert registry.counter_value("kernel.lazy_stamps.materialised") == 0
        after = list(kernel._thread_stamps.values()) + list(
            kernel._object_stamps.values()
        )
        assert all(old is new for old, new in zip(stored, after))
        assert all(map(holds_array, stored))
        assert_same_state(pickle.loads(payload), kernel)

    @SETTINGS
    @given(batches=batched_pairs())
    def test_resume_rebuilds_cache_bit_identically(self, batches):
        kernel = self.warm_kernel()
        clone = pickle.loads(pickle.dumps(kernel))
        with count_array_batches() as ran:
            assert drive(clone, batches) == drive(kernel, batches)
        # The resumed kernel, holding only tuple stamps, went back to
        # arrays as soon as a batch cleared the gates.
        assert ran() == 2 * len(batches)

    @SETTINGS
    @given(batches=batched_pairs())
    def test_backend_switch_on_resume(self, batches):
        """numpy -> python and python -> numpy resumes stay identical."""
        reference = self.warm_kernel()
        to_python = pickle.loads(pickle.dumps(reference))
        to_python.set_backend("python")
        to_numpy = pickle.loads(pickle.dumps(reference))
        to_numpy.set_backend("numpy")
        expected = drive(reference, batches)
        assert drive(to_python, batches) == expected
        assert drive(to_numpy, batches) == expected
        assert_same_state(to_numpy, to_python)

    def test_python_batches_evict_from_warm_cache(self):
        """Short batches between long ones stay bit-identical."""
        kernel = self.warm_kernel()
        mixed = pickle.loads(pickle.dumps(kernel))
        # The short batches run on lists: after the resume no stored stamp
        # holds an array, and drive() reads every minted stamp, which
        # releases its array.  The long batches run on arrays.  Values
        # must match the uninterrupted sequence.
        short = [("T0", "O0"), ("T1", "O1")]
        long = [
            (f"T{i % len(THREAD_COMPS)}", f"O{i % len(OBJECT_COMPS)}")
            for i in range(48)
        ]
        expected = drive(kernel, [short, long, short, long])
        with count_array_batches() as ran:
            assert drive(mixed, [short, long, short, long]) == expected
        assert ran() == 2
        assert_same_state(kernel, mixed)


@requires_numpy
class TestStatelessGate:
    """The numpy backend's default gates, driven as the engine drives them."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        chunks=st.lists(
            st.tuples(st.integers(1, 40), st.booleans()), min_size=2, max_size=8
        ),
        grow_at=st.integers(0, 7),
        pickle_at=st.integers(0, 7),
    )
    def test_random_chunks_match_per_event_observe(
        self, seed, chunks, grow_at, pickle_at
    ):
        """Mint and fold chunks on both sides of MIN_ARRAY_BATCH, with a
        mid-stream extension and a pickle round-trip, equal ``observe``."""
        assert kernel_module.MIN_ARRAY_BATCH < 40
        rng = random.Random(seed)
        # T90 joins the components only at the extension; its events are
        # covered throughout by their object endpoint.
        threads = THREAD_COMPS + ["T90"]
        reference = ClockKernel(fresh_components(), backend="python")
        kernel = ClockKernel(fresh_components(), backend="numpy")
        for index, (length, mint) in enumerate(chunks):
            if index == pickle_at:
                kernel = pickle.loads(pickle.dumps(kernel))
            if index == grow_at:
                for clocks in (reference, kernel):
                    clocks.extend_components(thread_components=("T90",))
            chunk = [
                (rng.choice(threads), f"O{rng.randrange(len(OBJECT_COMPS))}")
                for _ in range(length)
            ]
            expected = [reference.observe(t, o) for t, o in chunk]
            if mint:
                stamps = kernel.timestamp_batch(chunk)
                assert [s.values for s in stamps] == [s.values for s in expected]
            else:
                fold = 0
                for stamp, (thread, obj) in zip(expected, chunk):
                    fold = reference.fold_event(fold, stamp, thread, obj)
                assert kernel.advance_batch(chunk) == fold
        for thread in threads:
            assert (
                kernel.thread_stamp(thread).values
                == reference.thread_stamp(thread).values
            ), thread
        for obj in OBJECT_COMPS:
            assert (
                kernel.object_stamp(obj).values
                == reference.object_stamp(obj).values
            ), obj

    def test_short_batch_on_array_stamps_runs_on_arrays(self):
        kernel = ClockKernel(fresh_components(), backend="numpy")
        short = [("T0", "O0"), ("T1", "O1")]
        assert len(short) < kernel_module.MIN_ARRAY_BATCH
        with count_array_batches() as ran:
            # Cold: no stored stamp holds an array, so lists.
            kernel.timestamp_batch(short)
            assert ran() == 0
            kernel.timestamp_batch([("T0", f"O{i}") for i in range(20)])
            assert ran() == 1
            # T0's stored stamp now holds its array: arrays at any length.
            assert holds_array(kernel._thread_stamps["T0"])
            kernel.timestamp_batch(short)
            assert ran() == 2
            # Once the first event's stamps are materialised, lists again.
            assert kernel.thread_stamp("T0").values
            assert kernel.object_stamp("O0").values
            assert not holds_array(kernel._thread_stamps["T0"])
            kernel.timestamp_batch(short)
            assert ran() == 2


@requires_numpy
class TestLazyStampVerdicts:
    @SETTINGS
    @given(batches=batched_pairs(), seed=st.integers(0, 2**31))
    def test_array_verdicts_match_python(self, batches, seed):
        """Lazy stamps of one layout compare on their arrays: the same
        ``ordering`` as the python stamps, with no tuple built."""
        kernel = ClockKernel(fresh_components(), backend="numpy")
        reference = ClockKernel(fresh_components(), backend="python")
        lazy, plain = [], []
        with count_array_batches() as ran:
            for batch in batches:
                lazy.extend(kernel.timestamp_batch(batch))
                plain.extend(reference.timestamp_batch(batch))
        assert ran() == len(batches)
        # A second lazy stamp over a copy of one array: equal, not identical.
        lazy.append(type(lazy[0])._make(lazy[0]._layout, lazy[0]._raw.copy()))
        plain.append(Timestamp._from_trusted(plain[0].components, plain[0].values))
        rng = random.Random(seed)
        pairs = [tuple(rng.randrange(len(lazy)) for _ in range(2)) for _ in range(200)]
        pairs += [(0, len(lazy) - 1), (len(lazy) - 1, 0)]
        registry = MetricsRegistry(origin="test-verdicts")
        previous = obs_install(registry)
        try:
            verdicts = [
                (ordering(lazy[i], lazy[j]), lazy[i] <= lazy[j]) for i, j in pairs
            ]
        finally:
            obs_install(previous)
        assert registry.counter_value("kernel.lazy_stamps.materialised") == 0
        assert verdicts == [
            (ordering(plain[i], plain[j]), plain[i] <= plain[j]) for i, j in pairs
        ]
        # Against a stamp without an array, comparison still materialises.
        assert ordering(lazy[1], plain[1]) == "equal"
        assert not holds_array(lazy[1])


@requires_numpy
class TestWidthTiers:
    """Array batches store stamps as narrow as the kernel's event count
    allows, and widen a narrower stored array before incrementing it."""

    def test_tiers_cross_mid_stream(self, monkeypatch):
        """int16 -> int32 -> int64 in one run, with narrow stored arrays
        read by wider batches, a compaction and a pickle round trip:
        stamps, verdicts and final state equal the lists form and
        per-event ``observe``."""
        monkeypatch.setattr(kernel_module, "STAMP_WIDTHS", (("int16", 100), ("int32", 150)))
        monkeypatch.setattr(kernel_module, "COMPACTION_RATIO", 0)
        arrays = ClockKernel(fresh_components(), backend="numpy")
        lists = ClockKernel(fresh_components(), backend="python")
        observed = ClockKernel(fresh_components(), backend="python")

        def step(pairs, width):
            # Raw slot vectors: reading ``values`` would release the arrays.
            stamps = arrays.timestamp_batch(pairs)
            assert {s._raw.dtype.name for s in stamps} == {width}
            expected = [observed.observe(t, o)._raw for t, o in pairs]
            assert [s._raw for s in lists.timestamp_batch(pairs)] == expected
            assert [tuple(s._raw.tolist()) for s in stamps] == expected

        rng = random.Random(2019)
        with count_array_batches() as ran:
            step([random_pair(rng) for _ in range(64)], "int16")
            for kernel in (arrays, lists, observed):
                kernel.extend_components(thread_components=("T90",))
                kernel.rotate_epoch_delta(["T29"])
            arrays, lists, observed = (
                pickle.loads(pickle.dumps(k)) for k in (arrays, lists, observed)
            )
            # Subset A (T0-T9 x O0-O9) is stored as int16 arrays ...
            step([(f"T{i % 10}", f"O{i * 3 % 10}") for i in range(30)], "int16")
            # ... half of it is read by an int32 batch ...
            step([(f"T{i % 5}", f"O{i * 2 % 5}") for i in range(30)], "int32")
            # ... and a little by an int64 batch, with tuple stamps besides.
            step(
                [(f"T{i % 3}", f"O{i % 3}") for i in range(10)]
                + [(f"T{10 + i % 10}", f"O{10 + i % 6}") for i in range(30)],
                "int64",
            )
        assert ran() == 4
        narrow = [t for t, s in arrays._thread_stamps.items() if holds_array(s)]
        widths = {arrays._thread_stamps[t]._raw.dtype.name for t in narrow}
        assert widths == {"int16", "int32", "int64"}
        # Array stamps of different widths first (compared on their
        # arrays), then every thread pair.
        threads = narrow + [f"T{i}" for i in range(20)]
        for left in threads:
            for right in threads:
                verdict = ordering(arrays.thread_stamp(left), arrays.thread_stamp(right))
                assert verdict == ordering(
                    observed.thread_stamp(left), observed.thread_stamp(right)
                ), (left, right)
        assert_same_state(arrays, lists)
        assert_same_state(arrays, observed)

    def test_int16_stamp_read_past_its_limit(self, monkeypatch):
        """A slot stored as int16 keeps counting past 32,767."""
        monkeypatch.setattr(kernel_module, "MIN_ARRAY_BATCH", 0)
        monkeypatch.setattr(kernel_module, "MIN_ARRAY_DIM_ADVANCE", 0)
        components = ClockComponents(["T0"], ["O0"])
        arrays = ClockKernel(components, backend="numpy")
        lists = ClockKernel(components, backend="python")
        folds = [0, 0]
        with count_array_batches() as ran:
            for length in (32_000, 1_000):
                pairs = [("T0", "O0")] * length
                folds = [arrays.advance_batch(pairs, folds[0]), lists.advance_batch(pairs, folds[1])]
                if length == 32_000:
                    assert arrays._thread_stamps["T0"]._raw.dtype.name == "int16"
        assert ran() == 2
        assert folds[0] == folds[1]
        assert arrays.thread_stamp("T0").values == (33_000, 33_000)
        assert arrays.object_stamp("O0") == lists.object_stamp("O0")

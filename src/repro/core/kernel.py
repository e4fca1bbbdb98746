"""Array-backed mutable clock kernel: the timestamping hot path.

The immutable :class:`~repro.core.clock.Timestamp` API is the right
interface for applications, but deriving every event timestamp through
``merged()`` + ``incremented()`` costs two to three :class:`Timestamp`
constructions per event, each of which re-validates its values slot by
slot.  At the scales the paper targets (Theorem 3 only pays off when the
thread/object counts are large) that interpreter overhead dwarfs the
``O(k)`` work the paper analyses.

:class:`ClockKernel` is the engine behind
:class:`~repro.core.timestamping.VectorClockProtocol`: it applies the
Section III-C update rule

    ``e.v = max(p.v, q.v); e.v[q] += 1 if q ∈ C; e.v[p] += 1 if p ∈ C``

on plain integer arrays (Python lists, i.e. contiguous pointer arrays) and
mints exactly one immutable :class:`Timestamp` per event through the
trusted constructor, skipping re-validation.  The resulting timestamps are
bit-identical to the ones the naive ``merged``/``incremented`` derivation
produces; the property test suite asserts this on random computations.

The kernel is also the mutable substrate of the *lifecycle-aware* clock
protocols (sliding-window monitoring): its component set can grow
(:meth:`ClockKernel.extend_components` - the online setting appends
components as uncovered events arrive) and can be *rotated*
(:meth:`ClockKernel.rotate_epoch` - a new epoch begins over a new
component set and the caller replays the live window so every
surviving event is re-timestamped in the new epoch's basis).
:class:`~repro.core.timestamping.EpochClock` wraps the replay and
proves verdict preservation with the re-timestamping invariant check.
For the pure-retirement case - components leave, none joins, and no
retired component touches a live event -
:meth:`ClockKernel.rotate_epoch_delta` replaces the replay with a slot
retirement that keeps the surviving clocks as they are (see "Slots in
join order"); ``EpochClock.rotate`` owns the applicability gate and the
fallback.

Slots in join order
-------------------
A layout change costs what changed.  Every component gets a slot id in
the order it joined, and an id is never reused: an extension appends
one slot and one map entry, a retirement marks its slots dead (the
slot space's ``died`` map records the layout version that retired
each).  No stored stamp is touched by either.  A stamp keeps the raw
vector it was minted over, in slot order, with a small handle on its
mint layout (:class:`_Layout`: the slot space, the version, the
width).  Read in the current layout, a stamp minted earlier is a
prefix: slots that joined since read zero-padded, which is the value
they would have carried had they been present from the start.  A
component that re-joins after a retirement gets a fresh slot, so every
older stamp reads 0 there too.

Correctness rests on one obligation, the one delta rotation has always
met: every live event keeps its marker slot (the slot its stamping
incremented) live.  Dead slots stay in the raw vectors until
compaction, but they only ever grew monotonically and never enter a
verdict: a stamp's public view holds the live slots only.  Once dead
slots outnumber live ones, :meth:`ClockKernel.rotate_epoch_delta`
compacts: a new slot space holds the live slots in join order, and a
stamp of the old one is gathered across on its next read.

The public view keeps the threads-first order of
:class:`~repro.core.components.ClockComponents` (``components.ordered``,
``Timestamp.values``, ``as_dict``); it is built on first read, once per
layout, as a lazy stamp builds its value tuple.  Join order stays
internal.  A pickle keeps the slot spaces as they are.

Backends
--------
Per-event :meth:`ClockKernel.observe` pays Python-interpreter overhead
per event no matter how lean the update rule is, so the kernel also has
*batch* entry points - :meth:`ClockKernel.timestamp_batch` (mint one
timestamp per event) and :meth:`ClockKernel.advance_batch` (advance the
clocks and fold a digest, minting nothing).  Both run one loop,
:func:`_run_batch`, over working vectors of one of two forms:

* *lists* (:data:`_LISTS`) - a stored stamp is read as its raw tuple
  and a derived vector is a list; a mint batch keeps the minted tuples
  as its working state;
* *arrays* (:data:`_ARRAYS`) - integer arrays, so the merge is a
  single C call (``np.maximum``), each batch in the narrowest of
  ``int16``, ``int32`` and ``int64`` (:data:`STAMP_WIDTHS`) that holds
  the kernel's event count after it.  That count bounds every slot: a
  slot counts only its own component's events, each event increments a
  slot at most once, and a merge takes a maximum.  A stored array
  narrower than its batch is widened on read, never narrowed, before
  anything increments it.  Minted stamps are lazy stamps
  (:class:`_LazyStamp`) that keep their array and materialise an exact
  Python-int tuple only on first read (two of them in one layout
  compare on their arrays).  A stored lazy stamp is therefore
  the one home of its entity's array: the next array batch reads that
  array straight back (:func:`_stamp_array`), so a touched entity is
  converted from tuple form only after something materialised it, and
  digest-only drivers (the engine's ``timestamps`` mode, whose fold
  reads its slot values straight off the arrays) never pay tuple
  construction at all.

In both forms the loop applies *slot-delta* derivation on the hot path:
whenever one operand of the merge is absent or the two endpoints
already share one vector, the new vector is a C-speed copy of the
previous one with the one or two incremented slots bumped, skipping the
``O(k)`` element-wise maximum entirely.

The kernel's *backend* only picks the form of each batch: ``python``
always works on lists; ``numpy`` (**gated**: selectable only when numpy
imports, never required) works on arrays when the batch and the clock
are large enough to pay for them (:data:`MIN_ARRAY_BATCH`,
:data:`MIN_ARRAY_DIM_MINT`, :data:`MIN_ARRAY_DIM_ADVANCE`), or when the
batch's first event already reads a stamp that holds its array
(:func:`_use_arrays`).  The choice is one flag on the kernel, so a
pickle carries a bool and loads as ``python`` where numpy does not
import.  Every materialised timestamp - and therefore every causal
verdict - is bit-identical across forms and to per-event
:meth:`ClockKernel.observe`; the property-test suite asserts that
identity on random computations, with ``observe`` as the independent
oracle.

Backend selection: an explicit ``backend`` name (to the kernel or to
``EngineConfig``; no clock or protocol takes one) wins; otherwise
``numpy`` when numpy imports, else ``python``, decided at the kernel's
first batch.  numpy is imported on first need, so a program that only
observes event by event never loads it.  Requesting ``numpy`` without
numpy installed, or any name but these two, raises a clean
:class:`~repro.exceptions.ClockError`.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import getitem
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.clock import Timestamp
from repro.core.components import ClockComponents
from repro.exceptions import ClockError, ComponentError
from repro.graph.bipartite import Vertex

# Telemetry write handle (stdlib-only import; repro.obs deliberately
# imports nothing back from the core).  Every use below follows the
# batch-granularity pattern: fetch once, guard on ``is not None``, so
# the disabled cost never lands on a per-event path.
from repro.obs.registry import active as _metrics_active

#: The gate: numpy is an optional accelerator, never a requirement, and
#: imported on first need (:func:`numpy_available`), so a program that
#: runs no array batch - the lifecycle clock's per-event path - never
#: pays for it.  None where it does not import.
_np = _UNTRIED = object()

#: Backend names.
PYTHON_BACKEND = "python"
NUMPY_BACKEND = "numpy"

#: 64-bit mixing constants of the stamp-digest fold (FNV prime / Knuth).
_FOLD_MASK = (1 << 64) - 1
_FOLD_PRIME = 0x100000001B3


def fold_stamp_values(fold: int, thread_value: int, object_value: int) -> int:
    """Fold one event's incremented slot values into a running 64-bit digest.

    The digest is an order-sensitive projection of the timestamp stream:
    for every stamped event it absorbs the post-increment values of the
    event's thread and object slots (0 for an absent side).  No clock
    knows more of a component's events than the component's own clock,
    so an incremented slot reads that component's event count whatever
    the merge did.  The digest therefore pins which components each
    event incremented, in order, but not the merged vectors: a merge
    that drops other slots leaves it unchanged.  The merge is checked by
    comparing final clock state (the kernel's batch property tests).
    Pure ints, cheap, and picklable - the property that lets the sharded
    engine carry it through checkpoints.
    """
    return (
        (fold ^ (thread_value * 2654435761 + object_value * 40503 + 1))
        * _FOLD_PRIME
    ) & _FOLD_MASK


class _Slots:
    """One slot space of a kernel, from its binding to its compaction.

    ``vertices[i]`` and ``threads[i]`` name slot ``i``'s component and
    whether it is a thread; both only grow.  ``died`` maps each retired
    slot to the layout version that retired it.  A compaction sets
    ``moved`` to ``(successor, old slot of each successor slot)``.
    """

    __slots__ = ("vertices", "threads", "died", "moved")

    def __init__(self, vertices: List[Vertex], threads: List[bool]) -> None:
        self.vertices = vertices
        self.threads = threads
        self.died: Dict[int, int] = {}
        self.moved: Optional[Tuple["_Slots", List[int]]] = None


class _Layout:
    """The slot space a stamp was minted over, at one layout version.

    ``width`` is the number of slots then, and ``full`` says none of
    them was dead, so two stamps of this layout compare on their raw
    vectors.  The public view is built on first read (:meth:`public`).
    """

    __slots__ = ("slots", "version", "width", "full", "_public")

    def __init__(
        self, slots: _Slots, version: int, width: int, full: bool, public=None
    ) -> None:
        self.slots = slots
        self.version = version
        self.width = width
        self.full = full
        self._public = public

    def __reduce__(self):
        # The public view is a cache, rebuilt on first read after a load.
        return (_Layout, (self.slots, self.version, self.width, self.full))

    def public(self) -> Tuple[ClockComponents, Optional[List[int]]]:
        """``(components, order)``: the live components threads first,
        and the raw slot of each (None when the two orders agree)."""
        public = self._public
        if public is None:
            slots, version = self.slots, self.version
            live = [s for s in range(self.width) if slots.died.get(s, version + 1) > version]
            threads = [slot for slot in live if slots.threads[slot]]
            order = threads + [slot for slot in live if not slots.threads[slot]]
            names = [slots.vertices[slot] for slot in order]
            public = self._public = (
                ClockComponents(names[:len(threads)], names[len(threads):]),
                None if order == list(range(self.width)) else order,
            )
        return public


class _LazyStamp(Timestamp):
    """A kernel-minted :class:`Timestamp`: raw slot values, public view on read.

    ``_raw`` holds the event's values in the slot order of ``_layout``:
    a tuple, or the array an array batch minted the stamp over, which
    the next array batch reads back.  The array is as narrow as the
    kernel's event count then allowed (no slot exceeds it), and a later
    batch widens it on read.  The public
    ``_components`` and ``_values`` (threads first, live slots only)
    are derived on first read; the first read of an array-minted stamp
    also converts its array to exact Python ints and releases it.
    Digest-only drivers never read a stamp, so they never pay either,
    and two array stamps of one full layout compare on their arrays.  A
    stamp pickles (and deep-copies) with a tuple, so checkpoints load
    without numpy; pickling converts without caching, so the stamp
    keeps its array.
    """

    __slots__ = ("_layout", "_raw")

    @classmethod
    def _make(cls, layout: _Layout, raw) -> "_LazyStamp":
        stamp = object.__new__(cls)
        stamp._layout = layout
        stamp._raw = raw
        return stamp

    def _tuple(self) -> tuple:
        """The raw values as a tuple (an array is converted once, then released)."""
        raw = self._raw
        if type(raw) is not tuple:
            registry = _metrics_active()
            if registry is not None:
                registry.add("kernel.lazy_stamps.materialised")
            raw = self._raw = tuple(raw.tolist())
        return raw

    def __getattr__(self, name: str):
        # Only the public view is lazy; anything else genuinely absent.
        if name == "_components":
            components = self._components = self._layout.public()[0]
            return components
        if name != "_values":
            raise AttributeError(name)
        order = self._layout.public()[1]
        raw = self._tuple()
        values = self._values = raw if order is None else tuple(map(raw.__getitem__, order))
        return values

    def __reduce__(self):
        raw = self._raw
        if type(raw) is not tuple:
            raw = tuple(raw.tolist())
        return (_LazyStamp._make, (self._layout, raw))

    def _arrays(self, other):
        """Both raw arrays, if both stamps still hold one in one full layout."""
        if type(other) is _LazyStamp and other._layout is self._layout:
            mine, theirs = self._raw, other._raw
            if self._layout.full and type(mine) is not tuple and type(theirs) is not tuple:
                return mine, theirs
        return None

    def __eq__(self, other):
        arrays = self._arrays(other)
        if arrays is None:
            return Timestamp.__eq__(self, other)
        return bool((arrays[0] == arrays[1]).all())

    def __le__(self, other):
        arrays = self._arrays(other)
        if arrays is None:
            return Timestamp.__le__(self, other)
        return bool((arrays[0] <= arrays[1]).all())

    def __lt__(self, other):
        return self <= other and not self == other

    __hash__ = Timestamp.__hash__


# ---------------------------------------------------------------------------
# The batch loop
# ---------------------------------------------------------------------------
def _stamp_array(kernel: "ClockKernel", stamp: _LazyStamp, dtype):
    """``stamp``'s values in ``kernel``'s slot space, an array at least ``dtype`` wide.

    The array form's read of a stored stamp: its own array when it
    still holds one (widened to ``dtype`` if narrower, never narrowed;
    zero-padded if slots joined since), else its values, padded and
    converted.  Never mutates (or returns a view of a region that will
    be mutated of) the source array - callers treat working arrays as
    frozen.
    """
    raw = stamp._raw
    if type(raw) is tuple or stamp._layout.slots is not kernel._slots:
        return _np.array(kernel._slot_values(stamp), dtype=dtype)
    if raw.dtype.itemsize < dtype.itemsize:
        raw = raw.astype(dtype)
    missing = kernel._layout.width - len(raw)
    return _np.concatenate((raw, _np.zeros(missing, dtype=dtype))) if missing else raw


def _list_maximum(a: Sequence[int], b: Sequence[int]) -> List[int]:
    return [x if x >= y else y for x, y in zip(a, b)]


class _Form(NamedTuple):
    """How the batch loop holds its working vectors.

    ``convert(kernel, stamp)`` reads a stored stamp in the current
    slot space; ``copy``, ``maximum`` and ``zeros(size)`` each return a
    *fresh* vector, the only kind the loop increments; ``read(vector,
    slot)`` returns one slot as a Python int, so the fold never sees
    a numpy integer; ``mint(layout, vector)`` wraps a vector in a stamp.
    """

    convert: Callable
    copy: Callable
    maximum: Callable
    zeros: Callable
    read: Callable
    mint: Callable


def _run_batch(
    kernel: "ClockKernel",
    pairs: Sequence[Tuple[Vertex, Vertex]],
    fold: int,
    stamps: Optional[List[Timestamp]],
    arrays: bool,
) -> int:
    """Apply the update rule to ``pairs``: the kernel's one batch loop.

    Mints one stamp per event into ``stamps``, or with ``stamps`` None
    advances ``fold`` by :func:`fold_stamp_values` per event and returns
    it.  Working vectors take the :data:`_ARRAYS` form when ``arrays``
    is set, else :data:`_LISTS`; both derive the same values, so the
    form only moves wall-clock.  The write-back stores one stamp per
    distinct final vector - the stamp its last event minted, if any -
    so a thread and an object whose last event was the same share one
    stamp, as :meth:`ClockKernel.observe` leaves them.  It runs on a
    strict-mode error too: the events before the offender stay applied,
    exactly as a sequential ``observe`` loop would have left them.
    """
    layout = kernel._current()
    size = layout.width
    kernel._events += len(pairs)
    thread_slots = kernel._thread_slot
    object_slots = kernel._object_slot
    thread_stamps = kernel._thread_stamps
    object_stamps = kernel._object_stamps
    convert, copy, maximum, zeros, read, mint = _array_form(kernel._events) if arrays else _LISTS
    registry = _metrics_active()
    if registry is not None:
        form = "array" if arrays else "python"
        registry.add(f"kernel.batch.{form}_batches")
        registry.add(f"kernel.batch.{form}_events", len(pairs))
    thread_work: Dict[Vertex, object] = {}
    object_work: Dict[Vertex, object] = {}
    # Stamps by the id of their working vector, which the stamp keeps
    # alive, so no key can be recycled while the dict is in use.
    minted: Dict[int, Timestamp] = {}
    append_stamp = stamps.append if stamps is not None else None
    try:
        for thread, obj in pairs:
            thread_values = thread_work.get(thread)
            if thread_values is None:
                stamp = thread_stamps.get(thread)
                if stamp is not None:
                    thread_values = convert(kernel, stamp)
            object_values = object_work.get(obj)
            if object_values is None:
                stamp = object_stamps.get(obj)
                if stamp is not None:
                    object_values = convert(kernel, stamp)
            object_slot = object_slots.get(obj)
            thread_slot = thread_slots.get(thread)
            if object_values is None or object_values is thread_values:
                values = thread_values
            elif thread_values is None:
                values = object_values
            else:
                values = maximum(thread_values, object_values)
            if thread_slot is None and object_slot is None:
                if kernel._strict:
                    raise ComponentError(
                        f"operation ({thread!r}, {obj!r}) is not covered "
                        f"by the clock components"
                    )
                # Merge-only: no increment, and the digest sees (0, 0).
                if values is None:
                    values = zeros(size)
            else:
                # Slot-delta: when one operand is absent or both endpoints
                # share one vector, the new vector is a C-speed copy with
                # the one or two incremented slots bumped, skipping the
                # O(k) element-wise maximum entirely.
                if values is None:
                    values = zeros(size)
                elif values is thread_values or values is object_values:
                    values = copy(values)
                if object_slot is not None:
                    values[object_slot] += 1
                if thread_slot is not None:
                    values[thread_slot] += 1
            if append_stamp is None:
                fold = (
                    (
                        fold
                        ^ (
                            (read(values, thread_slot) if thread_slot is not None else 0)
                            * 2654435761
                            + (read(values, object_slot) if object_slot is not None else 0)
                            * 40503
                            + 1
                        )
                    )
                    * _FOLD_PRIME
                ) & _FOLD_MASK
            else:
                stamp = minted.get(id(values))
                if stamp is None:
                    stamp = mint(layout, values)
                    if not arrays:
                        values = stamp._raw
                    minted[id(values)] = stamp
                append_stamp(stamp)
            thread_work[thread] = values
            object_work[obj] = values
    finally:
        for stamp_store, work in (
            (thread_stamps, thread_work),
            (object_stamps, object_work),
        ):
            for vertex, values in work.items():
                stamp = minted.get(id(values))
                if stamp is None:
                    stamp = minted[id(values)] = mint(layout, values)
                stamp_store[vertex] = stamp
    return fold


#: Below this batch length the array working-state setup costs more
#: than it saves, so short runs (warm-up segments between component
#: additions, expire-riddled streams) work on lists - *unless* the
#: batch's first event reads a stamp that still holds its array.  Warm
#: state then stays on arrays at any length: the array is read back as
#: is, while a list batch would materialise the stamps it reads and the
#: next array batch would rebuild them from tuples.
MIN_ARRAY_BATCH = 16

#: Clock dimensions below which a mint (resp. fold) batch stays on
#: lists, because ``np.maximum`` call overhead exceeds the element-wise
#: Python loop it replaces.  Lazy array-rooted stamps made minting nearly
#: as cheap on arrays as folding, so the two crossovers sit close.
MIN_ARRAY_DIM_MINT = 48
MIN_ARRAY_DIM_ADVANCE = 32


#: Compaction runs once dead slots outnumber live ones this many times
#: over, which keeps a stamp's width within twice the clock dimension.
COMPACTION_RATIO = 1

#: The array form's integer widths, narrowest first, each with the
#: largest kernel event count it holds; past the last limit a batch runs
#: on ``int64``.  No slot value exceeds that count (see "Backends").
STAMP_WIDTHS = (("int16", 2**15 - 1), ("int32", 2**31 - 1))


def _array_form(events: int) -> "_Form":
    """The array form of the narrowest width that holds ``events``."""
    return _ARRAYS[next((name for name, limit in STAMP_WIDTHS if events <= limit), "int64")]


def _use_arrays(kernel: "ClockKernel", pairs, min_dim: int) -> bool:
    """Whether this batch runs on arrays; ``min_dim`` is the width gate.

    Never under the ``python`` backend; under ``numpy`` when the first
    event reads a stamp still holding its array, or when the batch and
    the clock both clear their gates.
    """
    if kernel.backend_name != NUMPY_BACKEND:
        return False
    if pairs:
        thread, obj = pairs[0]
        for stamp in (
            kernel._thread_stamps.get(thread),
            kernel._object_stamps.get(obj),
        ):
            if stamp is not None and type(stamp._raw) is not tuple:
                return True
    return len(pairs) >= MIN_ARRAY_BATCH and len(kernel._slots.vertices) >= min_dim


def numpy_available() -> bool:
    """``True`` when the optional numpy backend can actually be selected.

    The first call imports numpy and builds the array form of the batch
    loop (:data:`_ARRAYS`).
    """
    global _np, _ARRAYS
    if _np is _UNTRIED:
        try:
            import numpy as _np
        except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
            _np = None
            return False
        _ARRAYS = {
            name: _Form(
                partial(_stamp_array, dtype=_np.dtype(name)),
                _np.ndarray.copy,
                _np.maximum,
                partial(_np.zeros, dtype=name),
                _np.ndarray.item,
                _LazyStamp._make,
            )
            for name in ("int16", "int32", "int64")
        }
    return _np is not None


def default_backend_name() -> str:
    """The backend a kernel gets without an explicit choice: ``numpy``
    when numpy imports, ``python`` otherwise."""
    return NUMPY_BACKEND if numpy_available() else PYTHON_BACKEND


def resolve_backend(name: Optional[str] = None) -> str:
    """Validate a backend name; ``None`` resolves to the default.

    Raises :class:`~repro.exceptions.ClockError` for anything but
    ``None``, ``"python"`` and ``"numpy"``, and for ``numpy`` when numpy
    is not importable - the gate that keeps the accelerator optional.
    """
    if name is None:
        return default_backend_name()
    if not isinstance(name, str) or name not in (PYTHON_BACKEND, NUMPY_BACKEND):
        raise ClockError(
            f"unknown kernel backend {name!r} (expected 'python' or 'numpy')"
        )
    if name == NUMPY_BACKEND and not numpy_available():
        raise ClockError(
            "kernel backend 'numpy' requested but numpy is not "
            "importable; install numpy or select the 'python' backend"
        )
    return name


class ClockKernel:
    """Mutable per-thread / per-object clock state for one protocol run.

    Parameters
    ----------
    components:
        The clock's component set; fixes the vector dimension and the slot
        index of every component.
    strict:
        When ``True`` (the default), observing an operation whose thread
        and object are both outside the component set raises
        :class:`ComponentError`; when ``False`` the operation is merged but
        not incremented (see ``VectorClockProtocol`` for why that loses the
        vector clock property).
    backend:
        The name of the backend picking the form of the batch loop's
        working vectors: ``python`` always works on lists, ``numpy`` on
        arrays when a batch is wide enough; ``None`` picks ``numpy``
        when it imports and ``python`` otherwise, at the first batch.
        The backend never changes results, only wall-clock.
    """

    __slots__ = (
        "_strict", "_epoch", "_retired_total", "_arrays", "_slots", "_version", "_layout",
        "_thread_slot", "_object_slot", "_thread_stamps", "_object_stamps", "_events",
    )

    def __init__(
        self,
        components: ClockComponents,
        strict: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        self._strict = strict
        self._epoch = 0
        self._retired_total = 0
        self.set_backend(backend)
        self._thread_stamps: Dict[Vertex, _LazyStamp] = {}
        self._object_stamps: Dict[Vertex, _LazyStamp] = {}
        self._bind(components)

    def _bind(self, components: ClockComponents) -> None:
        """Start a fresh slot space and event count over ``components``, in their order."""
        self._events = 0
        order = components.ordered
        threads = len(components.thread_components)
        self._slots = _Slots(
            list(order), [True] * threads + [False] * (len(order) - threads)
        )
        self._version = 0
        self._thread_slot = dict(zip(order[:threads], range(threads)))
        self._object_slot = dict(zip(order[threads:], range(threads, len(order))))
        self._layout: Optional[_Layout] = _Layout(
            self._slots, 0, len(order), True, (components, None)
        )

    def _current(self) -> _Layout:
        """The current layout; one handle per version, made on first use."""
        layout = self._layout
        if layout is None:
            slots = self._slots
            layout = self._layout = _Layout(
                slots, self._version, len(slots.vertices), not slots.died
            )
        return layout

    def _slot_values(self, stamp: _LazyStamp) -> tuple:
        """``stamp``'s raw values in the current slot space, zero-padded.

        Follows the compactions since the stamp was minted, one gather
        each; a stamp of the current slot space only pads.
        """
        raw = stamp._raw
        if type(raw) is not tuple:
            raw = stamp._tuple()
        slots = stamp._layout.slots
        while slots is not self._slots:
            if slots.moved is None:
                raise ClockError("stamp was not minted in this kernel's slot space")
            raw += (0,) * (len(slots.vertices) - len(raw))
            slots, moved = slots.moved
            raw = tuple(map(raw.__getitem__, moved))
        missing = len(slots.vertices) - len(raw)
        return raw + (0,) * missing if missing else raw

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def components(self) -> ClockComponents:
        """The live components, threads first (built once per layout)."""
        return self._current().public()[0]

    @property
    def size(self) -> int:
        """The clock dimension: the number of live components."""
        return len(self._thread_slot) + len(self._object_slot)

    @property
    def epoch(self) -> int:
        """How many times :meth:`rotate_epoch` has been applied."""
        return self._epoch

    @property
    def retired_total(self) -> int:
        """Total components retired across all epoch rotations so far."""
        return self._retired_total

    @property
    def backend_name(self) -> str:
        """Name of the backend picking the batch loop's form.

        A kernel built without a backend name resolves the default here,
        on first use, so one that only observes never imports numpy.
        """
        if self._arrays is None:
            self._arrays = default_backend_name() == NUMPY_BACKEND
        return NUMPY_BACKEND if self._arrays else PYTHON_BACKEND

    def set_backend(self, backend: Optional[str]) -> None:
        """Swap the batch backend (results are identical by contract).

        Used when resuming a checkpointed run under a different
        ``EngineConfig.backend``: the pickled kernel carries the backend
        it ran with, and the resuming configuration wins.  Nothing needs
        converting: the stored stamps are the only clock state, and both
        forms of the batch loop read them.  ``None`` defers the default
        to the first batch (:attr:`backend_name`).
        """
        self._arrays = None if backend is None else resolve_backend(backend) == NUMPY_BACKEND

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            # The default slots pickle form: (dict-state, slots-dict).
            state = state[1] or {}
        for slot, value in state.items():
            setattr(self, slot, value)
        # A kernel pickled under numpy loads on a host without it on lists
        # (bit-identical by contract); a resuming run re-pins it anyway.
        self._arrays = self._arrays and numpy_available()

    def lift(self, stamp: Timestamp) -> Timestamp:
        """``stamp`` (minted by this kernel) over the current component set."""
        layout = self._current()
        if stamp._layout is layout:
            return stamp
        return _LazyStamp._make(layout, self._slot_values(stamp))

    def thread_stamp(self, thread: Vertex) -> Timestamp:
        """Current clock of ``thread`` as an immutable timestamp."""
        stamp = self._thread_stamps.get(thread)
        return Timestamp.zero(self.components) if stamp is None else self.lift(stamp)

    def object_stamp(self, obj: Vertex) -> Timestamp:
        """Current clock of ``obj`` as an immutable timestamp."""
        stamp = self._object_stamps.get(obj)
        return Timestamp.zero(self.components) if stamp is None else self.lift(stamp)

    # ------------------------------------------------------------------
    # The update rule
    # ------------------------------------------------------------------
    def observe(self, thread: Vertex, obj: Vertex) -> Timestamp:
        """Apply the update rule for one operation and return its timestamp.

        One list, one tuple and one stamp are allocated per event;
        nothing is re-validated.  Endpoint clocks minted before slots
        joined read zero-padded.  An uncovered event (non-strict mode
        only) is merged and not incremented.
        """
        thread_stamp = self._thread_stamps.get(thread)
        object_stamp = self._object_stamps.get(obj)
        layout = self._current()
        object_slot = self._object_slot.get(obj)
        thread_slot = self._thread_slot.get(thread)
        if thread_slot is None and object_slot is None and self._strict:
            raise ComponentError(
                f"operation ({thread!r}, {obj!r}) is not covered by the "
                f"clock components"
            )
        if thread_stamp is None:
            values = (
                [0] * layout.width if object_stamp is None
                else list(self._slot_values(object_stamp))
            )
        elif object_stamp is None or object_stamp is thread_stamp:
            values = list(self._slot_values(thread_stamp))
        else:
            values = _list_maximum(
                self._slot_values(thread_stamp), self._slot_values(object_stamp)
            )
        if object_slot is not None:
            values[object_slot] += 1
        if thread_slot is not None:
            values[thread_slot] += 1
        stamp = _LazyStamp._make(layout, tuple(values))
        self._thread_stamps[thread] = stamp
        self._object_stamps[obj] = stamp
        self._events += 1
        return stamp

    def timestamp_batch(
        self, pairs: Sequence[Tuple[Vertex, Vertex]]
    ) -> List[Timestamp]:
        """Apply the update rule to a whole chunk; one timestamp per event.

        Bit-identical to calling :meth:`observe` per pair (the property
        tests assert it for every backend), but one loop runs the whole
        chunk: slot lookups and stamp allocation are amortised over the
        batch instead of being re-paid per Python call.  On a
        strict-mode coverage error the events preceding the offender are
        applied, exactly as a sequential loop would have left them.
        """
        stamps: List[Timestamp] = []
        _run_batch(
            self, pairs, 0, stamps, _use_arrays(self, pairs, MIN_ARRAY_DIM_MINT)
        )
        return stamps

    def advance_batch(
        self, pairs: Sequence[Tuple[Vertex, Vertex]], fold: int = 0
    ) -> int:
        """Advance the clocks over a chunk without minting timestamps.

        The engine's hot path: per-thread/object clock state ends up
        exactly as after :meth:`timestamp_batch`, but no per-event
        :class:`Timestamp` is materialised - the returned value is
        ``fold`` advanced by :func:`fold_stamp_values` for every event,
        the digest the sharded engine carries into its fingerprint.
        """
        arrays = _use_arrays(self, pairs, MIN_ARRAY_DIM_ADVANCE)
        return _run_batch(self, pairs, fold, None, arrays)

    def fold_event(
        self, fold: int, stamp: Timestamp, thread: Vertex, obj: Vertex
    ) -> int:
        """Fold one :meth:`observe` stamp into the digest (the tests' oracle).

        The per-event reference for :meth:`advance_batch`'s internal
        fold: both absorb the post-increment thread/object slot values,
        so folding :meth:`observe`'s stamps one by one gives the digest
        :meth:`advance_batch` computes for the same stream.  The engine
        never calls it; its per-event pipeline runs :meth:`advance_batch`
        on one-insert runs.
        """
        thread_slot = self._thread_slot.get(thread)
        object_slot = self._object_slot.get(obj)
        values = self._slot_values(stamp)
        return fold_stamp_values(
            fold,
            values[thread_slot] if thread_slot is not None else 0,
            values[object_slot] if object_slot is not None else 0,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def extend_components(
        self,
        thread_components: Iterable[Vertex] = (),
        object_components: Iterable[Vertex] = (),
    ) -> None:
        """Grow the component set in place (the online append-only step).

        Each new component appends one slot and one map entry, ``O(1)``;
        no stored stamp is touched.  Clocks minted before read the new
        slot as zero, which is exactly the value it would have had from
        the start.  Components already present are skipped; a thread
        component that is already an object component (or the reverse)
        raises :class:`ComponentError`.
        """
        slots = self._slots
        for names, own, other, is_thread in (
            (thread_components, self._thread_slot, self._object_slot, True),
            (object_components, self._object_slot, self._thread_slot, False),
        ):
            for vertex in names:
                if vertex in own:
                    continue
                if vertex in other:
                    raise ComponentError(
                        f"components cannot be both thread and object: [{vertex!r}]"
                    )
                own[vertex] = len(slots.vertices)
                slots.vertices.append(vertex)
                slots.threads.append(is_thread)
                self._version += 1
                self._layout = None

    def rotate_epoch(self, new_components: ClockComponents) -> int:
        """Begin a new epoch over ``new_components``; returns #retired.

        All per-thread / per-object clock state is discarded: the caller
        must replay the events that are still live (in their original
        order) through :meth:`observe` so every surviving event - and the
        thread/object clocks future events merge from - is re-timestamped
        in the new epoch's basis.  Components of the old set absent from
        the new one are *retired*; the new epoch starts a fresh slot
        space over ``new_components``, so no timestamp minted in it
        references them.  :class:`~repro.core.timestamping.EpochClock`
        packages the replay and the re-timestamping invariant check.
        """
        retired = len(self._thread_slot.keys() - new_components.thread_components)
        retired += len(self._object_slot.keys() - new_components.object_components)
        self._retired_total += retired
        self._epoch += 1
        self._thread_stamps.clear()
        self._object_stamps.clear()
        self._bind(new_components)
        return retired

    def rotate_epoch_delta(
        self,
        retired: Iterable[Vertex],
        idle_threads: Iterable[Vertex] = (),
        idle_objects: Iterable[Vertex] = (),
    ) -> int:
        """Begin a new epoch by *retirement*; returns #retired.

        The incremental counterpart of :meth:`rotate_epoch` for the
        pure-retirement case: the ``retired`` components leave, none
        joins.  Each retired slot is marked dead and its component's
        clock dropped; so are the clocks of ``idle_threads`` /
        ``idle_objects`` that own no surviving component.  Every other
        clock stays as it is, so the rotation costs ``O(#retired +
        #idle)`` - unless dead slots now outnumber live ones
        (:data:`COMPACTION_RATIO`), when the slot space is compacted
        (``O(k)`` once; stored stamps are gathered across on their next
        read).  The epoch / retired-total counters advance exactly as
        :meth:`rotate_epoch` would.

        When retirement preserves causal verdicts, which clocks count as
        idle, and the fallback to :meth:`rotate_epoch` + replay are
        owned by :meth:`EpochClock.rotate
        <repro.core.timestamping.EpochClock.rotate>`; this method trusts
        its caller on them.
        """
        retired = list(retired)
        self._version += 1
        self._layout = None
        for component in retired:
            own = self._thread_slot if component in self._thread_slot else self._object_slot
            if component not in own:
                raise ClockError(f"cannot retire {component!r}: not a clock component")
            self._slots.died[own.pop(component)] = self._version
        # A retired component's clock goes with its slot: it has no live event.
        for idle, slots, stamps in (
            (chain(retired, idle_threads), self._thread_slot, self._thread_stamps),
            (chain(retired, idle_objects), self._object_slot, self._object_stamps),
        ):
            for vertex in idle:
                if vertex not in slots:
                    stamps.pop(vertex, None)
        self._retired_total += len(retired)
        self._epoch += 1
        if len(self._slots.died) > COMPACTION_RATIO * self.size:
            self._compact()
        return len(retired)

    def _compact(self) -> None:
        """Start a slot space of the live slots, in join order.

        The old space records where each slot went (``moved``), so a
        stamp minted in it is gathered across on its next read; nothing
        is touched here.
        """
        old = self._slots
        moved = sorted(chain(self._thread_slot.values(), self._object_slot.values()))
        self._slots = _Slots(
            [old.vertices[slot] for slot in moved],
            [old.threads[slot] for slot in moved],
        )
        old.moved = (self._slots, moved)
        renumber = dict(zip(moved, range(len(moved))))
        self._thread_slot = {v: renumber[s] for v, s in self._thread_slot.items()}
        self._object_slot = {v: renumber[s] for v, s in self._object_slot.items()}
        self._version = 0
        self._layout = None

    def reset(self) -> None:
        """Forget all clock state."""
        self._thread_stamps.clear()
        self._object_stamps.clear()


#: Sequences: a stored stamp is read as its raw tuple and a derived
#: vector is a list.  Minting freezes the list into the stamp's tuple,
#: which then replaces it as working state, so a mint batch holds no
#: list beyond the event being derived.
_LISTS = _Form(
    ClockKernel._slot_values,
    list,
    _list_maximum,
    lambda size: [0] * size,
    getitem,
    lambda layout, values: _LazyStamp._make(layout, tuple(values)),
)

#: Arrays, one form per width of :data:`STAMP_WIDTHS` plus ``int64``:
#: the maximum is one C call, and minted stamps are lazy stamps over the
#: arrays, which the next array batch reads back.  Built when numpy is
#: first imported.
_ARRAYS: Dict[str, _Form] = {}

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
component set, retired components' slots are compacted away, and the
caller replays the live window so every surviving event is re-timestamped
in the new epoch's basis).  Timestamps minted in an epoch reference only
that epoch's components; :class:`~repro.core.timestamping.EpochClock`
wraps the replay and proves verdict preservation with the
re-timestamping invariant check.  For the pure-retirement case - the new
set is a subset of the old and no retired component touches a live
event - :meth:`ClockKernel.rotate_epoch_delta` replaces the replay with
a layout change that keeps the surviving clocks as they are (see "Lift
on read"); ``EpochClock.rotate`` owns the applicability gate and the
fallback.

Lift on read
------------
Neither layout change touches a stored stamp.  A stamp keeps the
component set it was minted over (its *mint layout*); the kernel keeps
a chain of its layouts, one step per extension or rotation, and notes
which components left the layout and which re-joined it later.  A read
that finds ``stamp._components is not kernel._components`` *lifts* the
stamp: a current component present continuously since the mint layout
keeps its minted value, any other reads zero - what it would have
carried had it been present from the start, or since it was re-added
after a retirement.  The lift is one compiled gather per source layout,
memoised until the next layout change (an ``itemgetter`` for the list
form, one ``take`` for an array).  So extension and
rotation cost ``O(k)`` in the clock dimension and nothing per stored
stamp; ``EpochClock`` lifts its ledger stamps through the same
:meth:`ClockKernel.lift`, and a pickle lifts every stored stamp to the
current layout, since layout identity does not survive one.

Backends
--------
Per-event :meth:`ClockKernel.observe` pays Python-interpreter overhead
per event no matter how lean the update rule is, so the kernel also has
*batch* entry points - :meth:`ClockKernel.timestamp_batch` (mint one
timestamp per event) and :meth:`ClockKernel.advance_batch` (advance the
clocks and fold a digest, minting nothing).  Both run one loop,
:func:`_run_batch`, over working vectors of one of two forms:

* *lists* (:data:`_LISTS`) - a stored stamp is read as its value tuple
  and a derived vector is a list; a mint batch keeps the minted tuples
  as its working state;
* *arrays* (:data:`_ARRAYS`) - ``int64`` arrays, so the merge is a
  single C call (``np.maximum``).  Minted stamps are lazy stamps
  (:class:`_LazyStamp`) that keep their array and materialise an exact
  Python-int tuple only on first ``_values`` access (two of them in one
  layout compare on their arrays).  A stored lazy stamp is therefore
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
whatever builds one) wins; otherwise ``numpy`` when numpy imports, else
``python``.  Requesting ``numpy`` without numpy installed, or any name
but these two, raises a clean :class:`~repro.exceptions.ClockError`.
"""

from __future__ import annotations

import weakref
from itertools import repeat
from operator import getitem, itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.clock import Timestamp
from repro.core.components import ClockComponents
from repro.exceptions import ClockError, ComponentError
from repro.graph.bipartite import Vertex

# Telemetry write handle (stdlib-only import; repro.obs deliberately
# imports nothing back from the core).  Every use below follows the
# batch-granularity pattern: fetch once, guard on ``is not None``, so
# the disabled cost never lands on a per-event path.
from repro.obs.registry import active as _metrics_active

try:  # The gate: numpy is an optional accelerator, never a requirement.
    import numpy as _np
    _ZERO = _np.zeros(1, dtype=_np.int64)  # the slot an array lift reads for 0
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

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
    event's thread and object slots (0 for an absent side).  Any
    divergence in the clock state propagates into some later event's
    incremented slots, so pipelines, backends and worker layouts that
    disagree on any stamp disagree on the digest.  Pure ints, cheap, and
    picklable - the property that lets the sharded engine carry it
    through checkpoints.
    """
    return (
        (fold ^ (thread_value * 2654435761 + object_value * 40503 + 1))
        * _FOLD_PRIME
    ) & _FOLD_MASK


def _values_gather(indices: Sequence[int]):
    """A C-level tuple gather: ``values -> tuple(values[i] for i in indices)``.

    ``operator.itemgetter`` runs the whole gather inside the interpreter
    core, which is what keeps a lift a memcpy-class ``O(k)`` instead of
    a bytecode-per-slot one.  The zero- and one-index cases are
    special-cased because ``itemgetter`` changes shape there (no
    arguments is an error, one argument returns a bare value).
    """
    if not indices:
        return lambda values: ()
    if len(indices) == 1:
        index = indices[0]
        return lambda values: (values[index],)
    return itemgetter(*indices)


class _LazyStamp(Timestamp):
    """A numpy-minted :class:`Timestamp` whose value tuple is built on first read.

    ``_source`` is the ``int64`` array an array batch minted the stamp
    over, in the stamp's own layout, and the array the next array batch
    reads back; the first ``_values`` read converts it to exact Python
    ints, writes the tuple back and releases the array.  Digest-only
    drivers never read it, so they never pay the conversion, and two
    lazy stamps of one layout compare on their arrays while both hold
    one.  A lazy stamp pickles (and deep-copies) as the plain stamp it
    stands for, so checkpoints load without numpy; pickling converts
    without caching, so the stamp keeps its array.
    """

    __slots__ = ("_source",)

    @classmethod
    def _make(cls, components: ClockComponents, source) -> "_LazyStamp":
        stamp = object.__new__(cls)
        stamp._components = components
        stamp._source = source
        return stamp

    def __getattr__(self, name: str):
        # Only the _values slot is lazy; anything else genuinely absent.
        if name != "_values":
            raise AttributeError(name)
        registry = _metrics_active()
        if registry is not None:
            registry.add("kernel.lazy_stamps.materialised")
        values = self._values = tuple(self._source.tolist())
        self._source = None
        return values

    def __reduce__(self):
        source = self._source
        values = self._values if source is None else tuple(source.tolist())
        return (Timestamp._from_trusted, (self._components, values))

    def _arrays(self, other):
        """Both value arrays, if both stamps still hold one in one layout."""
        if type(other) is _LazyStamp and other._components is self._components:
            if self._source is not None and other._source is not None:
                return self._source, other._source
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
def _stamp_array(kernel: "ClockKernel", stamp: Timestamp):
    """An ``int64`` array of ``stamp``'s values in ``kernel``'s layout.

    The array form's read of a stored stamp: a lazy stamp still holding
    its array reuses that array directly when its layout is current, or
    lifts it with one ``take`` when it is not.  Anything else converts
    the stamp's value tuple.  Never mutates (or returns a
    view of a region that will be mutated of) the source array -
    callers treat working arrays as frozen.
    """
    source = stamp._source if type(stamp) is _LazyStamp else None
    if source is None:
        source = _np.array(stamp._values, dtype=_np.int64)
    if stamp._components is kernel._components:
        return source
    take = kernel._lift_from(stamp._components, array=True)
    return _np.concatenate((source, _ZERO)).take(take)


def _stamp_tuple(kernel: "ClockKernel", stamp: Timestamp) -> tuple:
    """The list form's read of a stored stamp: its values, lifted."""
    return kernel.lift(stamp)._values


def _list_maximum(a: Sequence[int], b: Sequence[int]) -> List[int]:
    return [x if x >= y else y for x, y in zip(a, b)]


class _Form(NamedTuple):
    """How the batch loop holds its working vectors.

    ``convert(kernel, stamp)`` reads a stored stamp in the current
    layout; ``copy``, ``maximum`` and ``zeros(size)`` each return a
    *fresh* vector, the only kind the loop increments; ``read(vector,
    slot)`` returns one slot as a Python int, so the fold never sees
    ``np.int64``; ``mint(components, vector)`` wraps a vector in a stamp.
    """

    convert: Callable
    copy: Callable
    maximum: Callable
    zeros: Callable
    read: Callable
    mint: Callable


#: Sequences: a stored stamp is read as its value tuple and a derived
#: vector is a list.  Minting freezes the list into the stamp's tuple,
#: which then replaces it as working state, so a mint batch holds no
#: list beyond the event being derived.
_LISTS = _Form(
    _stamp_tuple,
    list,
    _list_maximum,
    lambda size: [0] * size,
    getitem,
    lambda components, values: Timestamp._from_trusted(components, tuple(values)),
)

#: ``int64`` arrays: the maximum is one C call, and minted stamps are
#: lazy stamps over the arrays, which the next array batch reads back.
_ARRAYS = None if _np is None else _Form(
    _stamp_array,
    _np.ndarray.copy,
    _np.maximum,
    lambda size: _np.zeros(size, dtype=_np.int64),
    _np.ndarray.item,
    _LazyStamp._make,
)


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
    components = kernel._components
    size = components.size
    thread_slots = kernel._thread_slot
    object_slots = kernel._object_slot
    thread_stamps = kernel._thread_stamps
    object_stamps = kernel._object_stamps
    convert, copy, maximum, zeros, read, mint = _ARRAYS if arrays else _LISTS
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
                    stamp = mint(components, values)
                    if not arrays:
                        values = stamp._values
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
                    stamp = minted[id(values)] = mint(components, values)
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


def _use_arrays(kernel: "ClockKernel", pairs, min_dim: int) -> bool:
    """Whether this batch runs on arrays; ``min_dim`` is the width gate.

    Never under the ``python`` backend; under ``numpy`` when the first
    event reads a stamp still holding its array, or when the batch and
    the clock both clear their gates.
    """
    if not kernel._arrays:
        return False
    if pairs:
        thread, obj = pairs[0]
        for stamp in (
            kernel._thread_stamps.get(thread),
            kernel._object_stamps.get(obj),
        ):
            if type(stamp) is _LazyStamp and stamp._source is not None:
                return True
    return len(pairs) >= MIN_ARRAY_BATCH and kernel._components.size >= min_dim


def numpy_available() -> bool:
    """``True`` when the optional numpy backend can actually be selected."""
    return _np is not None


def available_backends() -> Tuple[str, ...]:
    """The backend names selectable in this process, python first."""
    return (PYTHON_BACKEND,) if _np is None else (PYTHON_BACKEND, NUMPY_BACKEND)


def default_backend_name() -> str:
    """The backend a kernel gets without an explicit choice: ``numpy``
    when numpy imports, ``python`` otherwise."""
    return PYTHON_BACKEND if _np is None else NUMPY_BACKEND


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
            f"unknown kernel backend {name!r} "
            f"(expected one of: {', '.join(available_backends())})"
        )
    if name == NUMPY_BACKEND and _np is None:
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
        when it imports and ``python`` otherwise.  The backend never
        changes results, only wall-clock.
    """

    __slots__ = (
        "_components",
        "_strict",
        "_zero",
        "_thread_slot",
        "_object_slot",
        "_thread_stamps",
        "_object_stamps",
        "_epoch",
        "_retired_total",
        "_arrays",
        "_step",
        "_left",
        "_rejoined",
        "_layouts",
        "_lifts",
    )

    #: Process-local slots a pickle leaves out (see :meth:`__getstate__`).
    _UNPICKLED = frozenset(("_step", "_left", "_rejoined", "_layouts", "_lifts"))

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
        self._thread_stamps: Dict[Vertex, Timestamp] = {}
        self._object_stamps: Dict[Vertex, Timestamp] = {}
        self._bind_components(components, fresh=True)

    def _bind_components(
        self, components: ClockComponents, fresh: bool = False
    ) -> None:
        """Push ``components`` onto the layout chain and make it current.

        Records which components left and which *re*-joined (with the
        step), which is what :meth:`_lift_from` reads.  ``fresh``
        restarts the chain at ``components`` instead: no stamp the
        kernel will read again predates it (construction, replay
        rotation, unpickling).  Layouts are held weakly, so the layout
        of a stamp nobody holds any more is collected with it.
        """
        if fresh:
            self._step = 0
            self._left: set = set()
            self._rejoined: Dict[Vertex, int] = {}
            self._layouts: Dict[int, tuple] = {}
        layouts = self._layouts
        entry = layouts.get(id(components))
        if entry is not None and entry[0]() is components:
            # A layout still on the chain keeps its step: re-enter a copy.
            threads = len(components.thread_components)
            components = ClockComponents(
                components.ordered[:threads], components.ordered[threads:]
            )
        self._step = step = self._step + 1
        old = {} if fresh else self._components._index
        new = components._index
        for component in old.keys() - new.keys():
            self._left.add(component)
            self._rejoined.pop(component, None)
        for component in (new.keys() - old.keys()) & self._left:
            self._rejoined[component] = step
        key = id(components)
        layouts[key] = (
            weakref.ref(components, lambda _, key=key: layouts.pop(key, None)),
            step,
        )
        self._lifts: Dict[tuple, tuple] = {}
        self._components = components
        self._zero = Timestamp.zero(components)
        # Thread slots precede object slots (ClockComponents' slot order).
        threads = len(components.thread_components)
        order = components.ordered
        self._thread_slot = dict(zip(order[:threads], range(threads)))
        self._object_slot = dict(zip(order[threads:], range(threads, len(order))))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def components(self) -> ClockComponents:
        return self._components

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
        """Name of the backend picking the batch loop's form."""
        return NUMPY_BACKEND if self._arrays else PYTHON_BACKEND

    def set_backend(self, backend: Optional[str]) -> None:
        """Swap the batch backend (results are identical by contract).

        Used when resuming a checkpointed run under a different
        ``EngineConfig.backend``: the pickled kernel carries the backend
        it ran with, and the resuming configuration wins.  Nothing needs
        converting: the stored stamps are the only clock state, and both
        forms of the batch loop read them.
        """
        self._arrays = resolve_backend(backend) == NUMPY_BACKEND

    def __getstate__(self):
        # Layout identity does not survive a pickle, so every stored stamp
        # is lifted to the current layout (O(stored), at checkpoint time
        # only) and the chain restarts there on load.  A lazy stamp still
        # holding its array is lifted as an array, and every lazy stamp
        # serialises as a plain Timestamp via __reduce__, so a checkpoint
        # materialises none of them: the next array batch still reads
        # their arrays.
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in self._UNPICKLED
        }
        components = self._components
        for name in ("_thread_stamps", "_object_stamps"):
            stamps = state[name] = dict(state[name])
            for vertex, stamp in stamps.items():
                if stamp._components is not components:
                    stamps[vertex] = (
                        _LazyStamp._make(components, _stamp_array(self, stamp))
                        if type(stamp) is _LazyStamp and stamp._source is not None
                        else self.lift(stamp)
                    )
        return state

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            # The default slots pickle form: (dict-state, slots-dict).
            state = state[1] or {}
        for slot, value in state.items():
            setattr(self, slot, value)
        # A kernel pickled under numpy loads on a host without it on lists
        # (bit-identical by contract); a resuming run re-pins it anyway.
        self._arrays = self._arrays and _np is not None
        self._bind_components(self._components, fresh=True)

    # ------------------------------------------------------------------
    # Lift on read
    # ------------------------------------------------------------------
    def _lift_from(self, layout: ClockComponents, array: bool = False):
        """The memoised gather from ``layout`` into the current layout.

        A current component reads its slot in ``layout`` if it has been
        present continuously since then; any other reads zero, from one
        slot appended past ``layout``'s end.  A component present in
        both can only have left in between if it *re*-joined after
        ``layout``, so the identity map plus those few fix-ups is exact.
        Returns an ``itemgetter`` over ``values + (0,)``, or with
        ``array`` a numpy index for ``take``; compiled once per source
        layout until the next layout change.
        """
        lift = self._lifts.get((id(layout), array))
        if lift is not None and lift[0] is layout:
            return lift[1]
        entry = self._layouts.get(id(layout))
        if entry is None or entry[0]() is not layout:
            raise ClockError("stamp layout is not on this kernel's layout chain")
        index = layout._index
        absent = layout.size
        current = self._components
        indices = list(map(index.get, current.ordered, repeat(absent)))
        for component, joined in self._rejoined.items():
            if joined > entry[1] and component in index:
                indices[current._index[component]] = absent
        gather = (
            _np.array(indices, dtype=_np.intp) if array else _values_gather(indices)
        )
        self._lifts[(id(layout), array)] = (layout, gather)
        return gather

    def lift(self, stamp: Timestamp) -> Timestamp:
        """``stamp`` (minted by this kernel) over the current component set."""
        if stamp._components is self._components:
            return stamp
        values = self._lift_from(stamp._components)(stamp._values + (0,))
        return Timestamp._from_trusted(self._components, values)

    def thread_stamp(self, thread: Vertex) -> Timestamp:
        """Current clock of ``thread`` as an immutable timestamp."""
        return self.lift(self._thread_stamps.get(thread, self._zero))

    def object_stamp(self, obj: Vertex) -> Timestamp:
        """Current clock of ``obj`` as an immutable timestamp."""
        return self.lift(self._object_stamps.get(obj, self._zero))

    # ------------------------------------------------------------------
    # The update rule
    # ------------------------------------------------------------------
    def observe(self, thread: Vertex, obj: Vertex) -> Timestamp:
        """Apply the update rule for one operation and return its timestamp.

        One list, one tuple and one :class:`Timestamp` are allocated per
        covered event; nothing is re-validated.  Endpoint clocks of an
        older layout are lifted on read.
        """
        thread_stamp = self._thread_stamps.get(thread)
        object_stamp = self._object_stamps.get(obj)
        components = self._components
        if thread_stamp is not None and thread_stamp._components is not components:
            thread_stamp = self.lift(thread_stamp)
        if object_stamp is not None and object_stamp._components is not components:
            object_stamp = self.lift(object_stamp)
        object_slot = self._object_slot.get(obj)
        thread_slot = self._thread_slot.get(thread)

        if thread_slot is None and object_slot is None:
            if self._strict:
                raise ComponentError(
                    f"operation ({thread!r}, {obj!r}) is not covered by the "
                    f"clock components"
                )
            # Merge-only (no increment): the degenerate non-strict path.
            stamp = self._merge_only(thread_stamp, object_stamp)
            self._thread_stamps[thread] = stamp
            self._object_stamps[obj] = stamp
            return stamp

        if thread_stamp is None:
            values = list(object_stamp._values) if object_stamp is not None else [
                0
            ] * components.size
        elif object_stamp is None or object_stamp is thread_stamp:
            values = list(thread_stamp._values)
        else:
            values = [
                a if a >= b else b
                for a, b in zip(thread_stamp._values, object_stamp._values)
            ]
        if object_slot is not None:
            values[object_slot] += 1
        if thread_slot is not None:
            values[thread_slot] += 1
        stamp = Timestamp._from_trusted(components, tuple(values))
        self._thread_stamps[thread] = stamp
        self._object_stamps[obj] = stamp
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
        """Fold one per-event stamp into the digest (per-event pipeline).

        The counterpart of :meth:`advance_batch`'s internal fold: both
        absorb the post-increment thread/object slot values, so the
        per-event and batched pipelines produce the same digest for the
        same stream.
        """
        thread_slot = self._thread_slot.get(thread)
        object_slot = self._object_slot.get(obj)
        values = stamp._values
        return fold_stamp_values(
            fold,
            values[thread_slot] if thread_slot is not None else 0,
            values[object_slot] if object_slot is not None else 0,
        )

    def _merge_only(
        self, thread_stamp: Optional[Timestamp], object_stamp: Optional[Timestamp]
    ) -> Timestamp:
        """Bare merge for an uncovered event (non-strict mode only)."""
        if thread_stamp is None and object_stamp is None:
            return self._zero
        if thread_stamp is None:
            return object_stamp
        if object_stamp is None or object_stamp is thread_stamp:
            return thread_stamp
        return thread_stamp.merged(object_stamp)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def extend_components(
        self,
        thread_components: Iterable[Vertex] = (),
        object_components: Iterable[Vertex] = (),
    ) -> ClockComponents:
        """Grow the component set in place (the online append-only step).

        Stored thread/object clocks keep their layout and are lifted by
        component *identity* on their next read: existing components
        keep their values (their slot index may move - thread slots
        precede object slots by convention), new components read zero,
        which is exactly the value they would have had from the start.
        ``O(k)`` in the clock dimension, nothing per stored stamp.
        Returns the new component set.
        """
        extended = self._components.extended(thread_components, object_components)
        if extended.size != self._components.size:
            self._bind_components(extended)
        return self._components

    def _advance_epoch(self, new_components: ClockComponents) -> int:
        """Count a rotation to ``new_components``; returns #retired."""
        old = self._components
        retired = len(old.thread_components - new_components.thread_components)
        retired += len(old.object_components - new_components.object_components)
        self._retired_total += retired
        self._epoch += 1
        return retired

    def rotate_epoch(self, new_components: ClockComponents) -> int:
        """Begin a new epoch over ``new_components``; returns #retired.

        All per-thread / per-object clock state is discarded: the caller
        must replay the events that are still live (in their original
        order) through :meth:`observe` so every surviving event - and the
        thread/object clocks future events merge from - is re-timestamped
        in the new epoch's basis.  Components of the old set absent from
        the new one are *retired*: their slots are compacted away and no
        timestamp minted in the new epoch references them.
        :class:`~repro.core.timestamping.EpochClock` packages the replay
        and the re-timestamping invariant check.
        """
        retired = self._advance_epoch(new_components)
        self._thread_stamps.clear()
        self._object_stamps.clear()
        self._bind_components(new_components, fresh=True)
        return retired

    def rotate_epoch_delta(
        self,
        new_components: ClockComponents,
        keep_threads: AbstractSet[Vertex],
        keep_objects: AbstractSet[Vertex],
    ) -> int:
        """Begin a new epoch by *projection*; returns #retired.

        The incremental counterpart of :meth:`rotate_epoch` for the
        pure-retirement case: ``new_components`` must be a subset of the
        current set (retired slots drop, no additions).  Instead of
        discarding all clock state and replaying the live window, the
        kept clocks stay as they are and every later read lifts them
        (see "Lift on read" in the module docstring), so the rotation
        costs ``O(k)`` plus a filter of the stamp dicts with no
        allocation per stamp.  Thread/object clocks outside
        ``keep_threads`` / ``keep_objects`` are dropped.  The epoch /
        retired-total counters advance exactly as :meth:`rotate_epoch`
        would.

        When projection preserves causal verdicts, which clocks to keep,
        and the fallback to :meth:`rotate_epoch` + replay are owned by
        :meth:`EpochClock.rotate
        <repro.core.timestamping.EpochClock.rotate>`; this method trusts
        its caller on them.
        """
        retired = self._advance_epoch(new_components)
        self._thread_stamps = {
            vertex: stamp
            for vertex, stamp in self._thread_stamps.items()
            if vertex in keep_threads
        }
        self._object_stamps = {
            vertex: stamp
            for vertex, stamp in self._object_stamps.items()
            if vertex in keep_objects
        }
        self._bind_components(new_components)
        return retired

    def reset(self) -> None:
        """Forget all clock state."""
        self._thread_stamps.clear()
        self._object_stamps.clear()

"""The :class:`~repro.computation.streams.StreamEvent` contract.

Stream cores unpack events as ``thread, obj, kind`` tuples, so these
tests pin down what every consumer relies on: the field order and the
default kind, the ``is_*`` properties and ``pair``, immutability,
pickling (shard tasks cross process boundaries), the coercion of bare
pairs, the two stream adapters on a fixed input, and each registered
generator's output on a fixed seed.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.computation import REGISTRY, STREAM
from repro.computation.streams import (
    EPOCH,
    EXPIRE,
    INSERT,
    StreamEvent,
    as_stream_event,
    epoch_marker,
    sliding_window,
    with_epochs,
)
from repro.exceptions import ComputationError


def test_default_kind_is_insert_and_fields_unpack_in_order():
    event = StreamEvent("T1", "O2")
    assert event.kind == INSERT
    thread, obj, kind = event
    assert (thread, obj, kind) == ("T1", "O2", INSERT)
    assert StreamEvent("T1", "O2", EXPIRE).kind == EXPIRE


@pytest.mark.parametrize(
    "event, flags",
    [
        (StreamEvent("T1", "O2"), (True, False, False)),
        (StreamEvent("T1", "O2", EXPIRE), (False, True, False)),
        (epoch_marker(), (False, False, True)),
    ],
)
def test_kind_properties(event, flags):
    assert (event.is_insert, event.is_expire, event.is_epoch) == flags


def test_pair_of_inserts_and_expires():
    assert StreamEvent("T1", "O2").pair == ("T1", "O2")
    assert StreamEvent("T1", "O2", EXPIRE).pair == ("T1", "O2")


def test_epoch_marker_carries_no_pair():
    marker = epoch_marker()
    assert (marker.thread, marker.obj, marker.kind) == (None, None, EPOCH)
    assert epoch_marker() is marker
    with pytest.raises(ComputationError, match="no \\(thread, object\\) pair"):
        marker.pair


@pytest.mark.parametrize("field", ["thread", "obj", "kind", "extra"])
def test_setting_an_attribute_raises(field):
    event = StreamEvent("T1", "O2")
    with pytest.raises(AttributeError):
        setattr(event, field, "X")
    assert event == StreamEvent("T1", "O2")


@pytest.mark.parametrize(
    "event",
    [StreamEvent("T1", "O2"), StreamEvent(3, ("a", 1), EXPIRE), epoch_marker()],
)
def test_pickle_round_trip(event):
    restored = pickle.loads(pickle.dumps(event))
    assert restored == event
    assert type(restored) is StreamEvent


def test_as_stream_event_coerces_pairs_and_passes_events_through():
    assert as_stream_event(("T1", "O2")) == StreamEvent("T1", "O2", INSERT)
    assert type(as_stream_event(["T1", "O2"])) is StreamEvent
    for event in (StreamEvent("T1", "O2", EXPIRE), epoch_marker()):
        assert as_stream_event(event) is event


#: A fixed input for the adapters: inserts, one marker, bare pairs.
_FIXED = [
    ("T0", "O0"),
    StreamEvent("T1", "O1"),
    epoch_marker(),
    ("T0", "O2"),
    StreamEvent("T2", "O0"),
    ("T1", "O1"),
]


def test_sliding_window_output_on_a_fixed_input():
    out = [tuple(event) for event in sliding_window(_FIXED, 2)]
    assert out == [
        ("T0", "O0", INSERT),
        ("T1", "O1", INSERT),
        (None, None, EPOCH),
        ("T0", "O0", EXPIRE),
        ("T0", "O2", INSERT),
        ("T1", "O1", EXPIRE),
        ("T2", "O0", INSERT),
        ("T0", "O2", EXPIRE),
        ("T1", "O1", INSERT),
    ]
    assert all(type(event) is StreamEvent for event in sliding_window(_FIXED, 2))


def test_with_epochs_output_on_a_fixed_input():
    stream = _FIXED[:2] + [StreamEvent("T0", "O0", EXPIRE)] + _FIXED[2:]
    out = [tuple(event) for event in with_epochs(stream, 2)]
    assert out == [
        ("T0", "O0", INSERT),
        ("T1", "O1", INSERT),
        (None, None, EPOCH),
        ("T0", "O0", EXPIRE),
        (None, None, EPOCH),
        ("T0", "O2", INSERT),
        ("T2", "O0", INSERT),
        (None, None, EPOCH),
        ("T1", "O1", INSERT),
    ]


#: SHA-256 over ``repr((thread, obj, kind))`` per event, one per line, of
#: ``build(12, 10, 0.3, 400, seed=7)``: any change to a generator's
#: draws or events moves it.
_GENERATOR_DIGESTS = {
    "hot-object-drift": (400, "a2323d432cc458ad46da270bbb01516913451e5ceff9f7393f4b15a2b9be2858"),
    "phase-change": (403, "e501cff1082f0971bab443ea3bff2efda242569390b6adc5a760c53d4fc01aff"),
    "thread-churn": (581, "ece3d525c8b5649cebe6e74d61d531986998a7f939361324d6811cf4ddcd35d8"),
}


@pytest.mark.parametrize("name", sorted(_GENERATOR_DIGESTS))
def test_generator_output_on_a_fixed_seed(name):
    hasher = hashlib.sha256()
    count = 0
    for event in REGISTRY.get(name, kind=STREAM).build(12, 10, 0.3, 400, seed=7):
        assert type(event) is StreamEvent
        hasher.update(repr(tuple(event)).encode("utf-8"))
        hasher.update(b"\n")
        count += 1
    assert (count, hasher.hexdigest()) == _GENERATOR_DIGESTS[name]


def test_every_registered_generator_is_pinned():
    assert sorted(REGISTRY.names(STREAM)) == sorted(_GENERATOR_DIGESTS)

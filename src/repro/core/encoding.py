"""Differential timestamp encoding (Singhal-Kshemkalyani technique).

The related-work section of the paper points out that the
Singhal-Kshemkalyani optimisation - only transmit the vector entries that
changed since the last message to the same destination - is *orthogonal* to
the mixed clock and can be layered on top of it.  This module provides that
layer for the timestamps this library produces:

* :func:`encode_delta` / :func:`apply_delta` - the difference between two
  timestamps over the same component set, as a sparse ``{component: value}``
  mapping containing only the entries that changed;
* :class:`DeltaEncoder` - encodes a stream of timestamps (e.g. the
  successive events of one thread, or the successive messages on one
  channel) as first-full-then-delta records and reports how many integers
  were transmitted compared to sending full vectors every time;
* :func:`chain_compression_ratio` - convenience: the transmitted-integer
  ratio for each thread chain of a timestamped computation.

Because both the mixed clock (fewer components) and the delta encoding
(fewer entries per message) reduce overhead independently, their savings
multiply - which is exactly the claim of the paper's related-work
discussion, and what the corresponding tests check.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.clock import Timestamp
from repro.core.components import ClockComponents
from repro.core.timestamping import TimestampedComputation
from repro.exceptions import ClockError
from repro.graph.bipartite import Vertex


def encode_delta(previous: Timestamp, current: Timestamp) -> Dict[Vertex, int]:
    """The sparse difference ``current - previous`` (changed entries only).

    Both timestamps must share the same component set and ``current`` must
    dominate or equal ``previous`` component-wise (vector clocks never go
    backwards along a chain); otherwise :class:`ClockError` is raised.
    """
    if previous.components != current.components:
        raise ClockError("cannot diff timestamps over different component sets")
    if not previous <= current:
        raise ClockError("delta encoding requires a non-decreasing timestamp stream")
    delta: Dict[Vertex, int] = {}
    for component, before, after in zip(
        previous.components.ordered, previous.values, current.values
    ):
        if after != before:
            delta[component] = after
    return delta


def apply_delta(previous: Timestamp, delta: Mapping[Vertex, int]) -> Timestamp:
    """Reconstruct the next timestamp from the previous one plus a delta."""
    values = dict(previous.as_dict())
    for component, value in delta.items():
        if component not in previous.components:
            raise ClockError(f"delta mentions unknown component {component!r}")
        if value < values[component]:
            raise ClockError(
                f"delta moves component {component!r} backwards "
                f"({values[component]} -> {value})"
            )
        values[component] = value
    return Timestamp.from_mapping(previous.components, values)


class DeltaEncoder:
    """Encode a stream of timestamps as one full vector plus per-step deltas.

    The encoder is stateful: the first timestamp is transmitted in full
    (``components.size`` integers), every subsequent one as its delta
    against the previous transmission (2 integers per changed entry - the
    component identity and the new value - which is the accounting Singhal
    and Kshemkalyani use).
    """

    def __init__(self, components: ClockComponents) -> None:
        self._components = components
        self._previous: Optional[Timestamp] = None
        self._full_integers = 0
        self._transmitted_integers = 0
        self._records = 0

    # ------------------------------------------------------------------
    @property
    def records(self) -> int:
        """Number of timestamps encoded so far."""
        return self._records

    @property
    def transmitted_integers(self) -> int:
        """Integers actually transmitted (full first vector + deltas)."""
        return self._transmitted_integers

    @property
    def full_integers(self) -> int:
        """Integers that sending every vector in full would have cost."""
        return self._full_integers

    def compression_ratio(self) -> float:
        """``transmitted / full`` - lower is better; 1.0 means no savings."""
        if self._full_integers == 0:
            return 1.0
        return self._transmitted_integers / self._full_integers

    # ------------------------------------------------------------------
    def encode(self, timestamp: Timestamp) -> Dict[Vertex, int]:
        """Encode the next timestamp of the stream and return what is sent.

        The first call returns the full vector as a mapping; later calls
        return only the changed entries.
        """
        if timestamp.components != self._components:
            raise ClockError("timestamp does not match the encoder's component set")
        self._records += 1
        self._full_integers += self._components.size
        if self._previous is None:
            payload = timestamp.as_dict()
            self._transmitted_integers += self._components.size
        else:
            payload = encode_delta(self._previous, timestamp)
            self._transmitted_integers += 2 * len(payload)
        self._previous = timestamp
        return payload


class DeltaDecoder:
    """The receiving side of :class:`DeltaEncoder`."""

    def __init__(self, components: ClockComponents) -> None:
        self._components = components
        self._previous: Optional[Timestamp] = None

    def decode(self, payload: Mapping[Vertex, int]) -> Timestamp:
        """Reconstruct the next timestamp from an encoder payload."""
        if self._previous is None:
            timestamp = Timestamp.from_mapping(self._components, dict(payload))
        else:
            timestamp = apply_delta(self._previous, payload)
        self._previous = timestamp
        return timestamp


def chain_compression_ratio(stamped: TimestampedComputation) -> Dict[object, float]:
    """Per-thread compression ratio of delta-encoding its event timestamps.

    Models a debugger or monitor that streams each thread's timestamps in
    program order: consecutive timestamps of one thread differ in only a
    few entries, so the delta encoding transmits far fewer integers than
    resending the whole vector, and the saving compounds with the smaller
    mixed-clock vectors.
    """
    ratios: Dict[object, float] = {}
    for thread in stamped.computation.threads:
        encoder = DeltaEncoder(stamped.components)
        decoder = DeltaDecoder(stamped.components)
        for event in stamped.computation.thread_events(thread):
            payload = encoder.encode(stamped[event])
            if decoder.decode(payload) != stamped[event]:  # pragma: no cover - safety net
                raise ClockError("delta round-trip mismatch")
        ratios[thread] = encoder.compression_ratio()
    return ratios

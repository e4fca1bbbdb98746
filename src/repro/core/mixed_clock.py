"""Mixed vector clocks - the paper's contribution.

A mixed vector clock uses *both* threads and objects as components.  Any
vertex cover of the thread-object bipartite graph yields a valid mixed
clock (Theorem 2); the minimum vertex cover yields the optimal (smallest)
one (Theorem 3).  This module provides the constructors that go from a
cover - or directly from a computation via the offline algorithm in
:mod:`repro.offline.algorithm` - to a ready-to-use protocol.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.computation.trace import Computation
from repro.core.components import ClockComponents
from repro.core.timestamping import TimestampedComputation, VectorClockProtocol
from repro.graph.bipartite import BipartiteGraph, Vertex


def mixed_clock_components(
    graph: BipartiteGraph, cover: Iterable[Vertex], validate: bool = True
) -> ClockComponents:
    """Component set of a mixed clock built from a vertex cover of ``graph``.

    With ``validate=True`` (default) the cover property is checked: every
    edge of ``graph`` must have an endpoint among the components, otherwise
    the resulting clock would not be able to order events on the uncovered
    edge and :class:`~repro.exceptions.ComponentError` is raised.
    """
    components = ClockComponents.from_cover(graph, cover)
    if validate:
        components.validate_covers_graph(graph)
    return components


def mixed_clock_protocol(
    graph: BipartiteGraph, cover: Iterable[Vertex], validate: bool = True
) -> VectorClockProtocol:
    """A fresh mixed vector clock protocol from a vertex cover of ``graph``."""
    return VectorClockProtocol(mixed_clock_components(graph, cover, validate=validate))


def timestamp_with_mixed_clock(
    computation: Computation,
    cover: Iterable[Vertex],
    graph: Optional[BipartiteGraph] = None,
) -> TimestampedComputation:
    """Timestamp ``computation`` with the mixed clock defined by ``cover``.

    ``graph`` defaults to the computation's own thread-object bipartite
    graph; pass it explicitly when it has already been computed to avoid
    rebuilding it.
    """
    if graph is None:
        graph = computation.bipartite_graph()
    protocol = mixed_clock_protocol(graph, cover)
    return protocol.timestamp_computation(computation)

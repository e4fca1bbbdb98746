"""The offline optimal mixed vector clock algorithm (Section III).

Pipeline, exactly as the paper describes it:

1. build the thread-object bipartite graph of the computation
   (Section III-A);
2. compute a maximum matching with Hopcroft-Karp (Section III-B);
3. apply the König-Egerváry construction (Algorithm 1) to turn the matching
   into a minimum vertex cover;
4. the cover's vertices are the components of the mixed vector clock, which
   is optimal in size (Theorem 3);
5. optionally, timestamp the computation with that clock (Section III-C).

:class:`OfflineResult` keeps every intermediate artefact so that examples,
tests and the experiment harness can inspect them, and
:func:`optimal_clock_size` provides the cheap "just give me the number"
entry point the benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.computation.trace import Computation
from repro.core.components import ClockComponents
from repro.core.timestamping import TimestampedComputation, VectorClockProtocol
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.matching import Matching, maximum_matching
from repro.graph.vertex_cover import konig_vertex_cover, validate_vertex_cover


@dataclass(frozen=True)
class OfflineResult:
    """Everything the offline algorithm produced for one computation/graph.

    Attributes
    ----------
    graph:
        The thread-object bipartite graph the algorithm ran on.
    matching:
        The maximum matching found (its size equals the optimal clock size,
        by König-Egerváry).
    cover:
        The minimum vertex cover - the mixed clock's components as raw
        vertices.
    components:
        The same cover packaged as :class:`ClockComponents`, ready to
        instantiate a protocol.
    """

    graph: BipartiteGraph
    matching: Matching
    cover: FrozenSet[Vertex]
    components: ClockComponents

    @property
    def clock_size(self) -> int:
        """Size of the optimal mixed vector clock."""
        return self.components.size

    @property
    def thread_component_count(self) -> int:
        return len(self.components.thread_components)

    @property
    def object_component_count(self) -> int:
        return len(self.components.object_components)

    def protocol(self) -> VectorClockProtocol:
        """A fresh protocol over the optimal components."""
        return VectorClockProtocol(self.components)

    def savings_vs_naive(self) -> int:
        """How many components the mixed clock saves over ``min(n, m)``."""
        naive = min(self.graph.num_threads, self.graph.num_objects)
        return naive - self.clock_size

    def summary(self) -> dict:
        """Flat dict used by the experiment harness and reports."""
        return {
            "threads": self.graph.num_threads,
            "objects": self.graph.num_objects,
            "edges": self.graph.num_edges,
            "density": self.graph.density(),
            "matching_size": len(self.matching),
            "clock_size": self.clock_size,
            "thread_components": self.thread_component_count,
            "object_components": self.object_component_count,
            "naive_size": min(self.graph.num_threads, self.graph.num_objects),
        }


def optimal_components_for_graph(
    graph: BipartiteGraph, algorithm: str = "hopcroft-karp"
) -> OfflineResult:
    """Run the offline algorithm on an already-built bipartite graph.

    This is the entry point the evaluation uses (the paper's experiments
    operate directly on random bipartite graphs).
    """
    matching = maximum_matching(graph, algorithm=algorithm)
    cover = konig_vertex_cover(graph, matching)
    validate_vertex_cover(graph, cover)
    components = ClockComponents.from_cover(graph, cover)
    return OfflineResult(
        graph=graph, matching=matching, cover=cover, components=components
    )


def optimal_components_for_computation(
    computation: Computation, algorithm: str = "hopcroft-karp"
) -> OfflineResult:
    """Run the offline algorithm on a computation (builds its graph first)."""
    return optimal_components_for_graph(
        computation.bipartite_graph(), algorithm=algorithm
    )


def timestamp_offline(
    computation: Computation, algorithm: str = "hopcroft-karp"
) -> TimestampedComputation:
    """End-to-end offline pipeline: optimal components, then timestamping."""
    result = optimal_components_for_computation(computation, algorithm=algorithm)
    return result.protocol().timestamp_computation(computation)


def optimal_clock_size(graph: BipartiteGraph, algorithm: str = "hopcroft-karp") -> int:
    """The optimal mixed clock size for ``graph``.

    Equal to the maximum matching size (König-Egerváry); computing the
    matching alone is enough, so this skips the cover construction.
    """
    return len(maximum_matching(graph, algorithm=algorithm))

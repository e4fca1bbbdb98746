"""The Hybrid online mechanism: Popularity early, Naive late.

Section V of the paper closes with a practical recommendation: because
Popularity (and Random) only beat Naive while the revealed graph is sparse
and small, "set thresholds for both graph density and number of nodes in
graph; at the beginning adopt the Popularity mechanism and as more events
come in adopt the Naive approach if the graph parameters exceed the
thresholds".  :class:`HybridMechanism` implements exactly that switch; the
threshold values themselves are studied by the ablation benchmark
``benchmarks/bench_hybrid_ablation.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import OnlineMechanismError
from repro.graph.bipartite import Vertex
from repro.online.base import OBJECT, THREAD, OnlineMechanism, popularity_choice


class HybridMechanism(OnlineMechanism):
    """Popularity until the revealed graph gets too dense or too big, then Naive.

    Parameters
    ----------
    density_threshold:
        Once the revealed graph's density exceeds this value, fall back to
        the Naive policy.  The paper's Fig. 4 crossover sits near 0.1-0.2
        for 50+50 nodes; the default of ``0.15`` reflects that.
    node_threshold:
        Once the revealed graph has more than this many vertices (threads
        plus objects), fall back to Naive.  Fig. 5's crossover is around 70
        nodes *per side* at density 0.05, i.e. 140 total; the default of
        ``140`` reflects that.
    naive_side:
        Which side the Naive fallback picks (thread by default).
    warmup_edges:
        The density test only applies once at least this many edges have
        been revealed.  The density of the *revealed* graph starts out
        artificially high (the first edge alone has density 1.0) and only
        converges to the computation's true density as edges accumulate, so
        without a warm-up the density threshold would trigger immediately
        on every computation.  The node threshold is not affected.
    """

    name = "hybrid"

    def __init__(
        self,
        density_threshold: float = 0.15,
        node_threshold: int = 140,
        naive_side: str = THREAD,
        warmup_edges: int = 30,
    ) -> None:
        super().__init__()
        if density_threshold < 0.0:
            raise OnlineMechanismError("density_threshold must be non-negative")
        if node_threshold < 0:
            raise OnlineMechanismError("node_threshold must be non-negative")
        if warmup_edges < 0:
            raise OnlineMechanismError("warmup_edges must be non-negative")
        if naive_side not in (THREAD, OBJECT):
            raise OnlineMechanismError(
                f"naive_side must be {THREAD!r} or {OBJECT!r}, got {naive_side!r}"
            )
        self._density_threshold = density_threshold
        self._node_threshold = node_threshold
        self._naive_side = naive_side
        self._warmup_edges = warmup_edges
        self._switched_at: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def density_threshold(self) -> float:
        return self._density_threshold

    @property
    def node_threshold(self) -> int:
        return self._node_threshold

    @property
    def warmup_edges(self) -> int:
        return self._warmup_edges

    @property
    def switched_at(self) -> Optional[int]:
        """Event index at which the fallback to Naive happened, if it did."""
        return self._switched_at

    @property
    def in_naive_phase(self) -> bool:
        return self._switched_at is not None

    def _exceeds_thresholds(self) -> bool:
        graph = self.revealed_graph
        density_exceeded = (
            graph.num_edges >= self._warmup_edges
            and graph.density() > self._density_threshold
        )
        return density_exceeded or graph.num_vertices > self._node_threshold

    def _choose(self, thread: Vertex, obj: Vertex) -> str:
        if self._switched_at is None and self._exceeds_thresholds():
            self._switched_at = self.events_seen - 1
        if self._switched_at is not None:
            return self._naive_side
        return popularity_choice(self.revealed_graph, thread, obj, THREAD)

"""The Popularity online mechanism: pick the more popular endpoint.

Definition 1 of the paper: the popularity of a vertex ``v`` in the revealed
bipartite graph is ``pop(v) = deg(v) / |E|``.  When an uncovered event
``(t, o)`` arrives, the mechanism adds whichever of ``t`` and ``o`` has the
higher popularity; the intuition is that a popular vertex covers more
future edges, keeping the clock small (Section IV, mechanism 3).

Since both popularities share the same denominator ``|E|``, the comparison
reduces to comparing degrees in the revealed graph *including* the new
event's edge.  Ties are broken by a configurable side (thread by default,
matching the convention that a tie gives no evidence the object will be
reused more than the thread).
"""

from __future__ import annotations

from repro.exceptions import OnlineMechanismError
from repro.graph.bipartite import Vertex
from repro.online.base import OBJECT, THREAD, OnlineMechanism, popularity_choice


class PopularityMechanism(OnlineMechanism):
    """Pick the endpoint with the higher popularity in the revealed graph.

    Parameters
    ----------
    tie_break:
        Which side to pick when thread and object have equal popularity
        (``"thread"`` by default).
    """

    name = "popularity"

    def __init__(self, tie_break: str = THREAD) -> None:
        super().__init__()
        if tie_break not in (THREAD, OBJECT):
            raise OnlineMechanismError(
                f"tie_break must be {THREAD!r} or {OBJECT!r}, got {tie_break!r}"
            )
        self._tie_break = tie_break

    @property
    def tie_break(self) -> str:
        return self._tie_break

    def _choose(self, thread: Vertex, obj: Vertex) -> str:
        # observe() already added the edge, so both vertices exist and |E| > 0.
        return popularity_choice(self.revealed_graph, thread, obj, self._tie_break)

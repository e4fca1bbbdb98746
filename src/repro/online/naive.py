"""The Naive online mechanism: always pick the same side.

"Always choose thread or always choose object" (Section IV, mechanism 1).
Its final clock size equals the number of distinct threads (or objects)
that appear in the computation, i.e. exactly the classical thread-based or
object-based vector clock, which is why the paper uses it as the baseline
every other mechanism is compared against.
"""

from __future__ import annotations

from repro.exceptions import OnlineMechanismError
from repro.graph.bipartite import Vertex
from repro.online.base import OBJECT, THREAD, OnlineMechanism


class NaiveMechanism(OnlineMechanism):
    """Always choose the thread (default) or always choose the object.

    Parameters
    ----------
    side:
        ``"thread"`` to reproduce the thread-based clock, ``"object"`` for
        the object-based clock.
    """

    name = "naive"

    def __init__(self, side: str = THREAD) -> None:
        super().__init__()
        if side not in (THREAD, OBJECT):
            raise OnlineMechanismError(
                f"side must be {THREAD!r} or {OBJECT!r}, got {side!r}"
            )
        self._side = side
        self.name = f"naive-{side}"

    @property
    def side(self) -> str:
        return self._side

    def _choose(self, thread: Vertex, obj: Vertex) -> str:
        return self._side

"""The Random online mechanism: a fair coin per uncovered event.

"Randomly choose the associated object or thread of the new event with
equal probability" (Section IV, mechanism 2).  The coin is drawn from an
explicitly seeded :class:`random.Random` so experiment runs are exactly
reproducible and independent trials can use independent seeds.
"""

from __future__ import annotations

from repro.graph.bipartite import Vertex
from repro.graph.generators import SeedLike, _rng
from repro.online.base import OBJECT, THREAD, OnlineMechanism


class RandomMechanism(OnlineMechanism):
    """Pick thread or object uniformly at random for each uncovered event.

    Parameters
    ----------
    seed:
        Seed (or a shared :class:`random.Random`) for the coin flips.
    thread_probability:
        Probability of picking the thread; ``0.5`` reproduces the paper's
        mechanism, other values are exposed for the ablation benchmarks.
    """

    name = "random"

    def __init__(self, seed: SeedLike = None, thread_probability: float = 0.5) -> None:
        super().__init__()
        if not (0.0 <= thread_probability <= 1.0):
            raise ValueError("thread_probability must be in [0, 1]")
        self._rng = _rng(seed)
        self._thread_probability = thread_probability

    @property
    def thread_probability(self) -> float:
        return self._thread_probability

    def _choose(self, thread: Vertex, obj: Vertex) -> str:
        if self._rng.random() < self._thread_probability:
            return THREAD
        return OBJECT

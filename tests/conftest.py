"""Shared fixtures and oracles for the test suite.

The central correctness statement of the paper is Theorem 2: a clock is a
valid vector clock iff for all events ``s != t`` of the computation,
``s → t  ⇔  s.v < t.v``.  :func:`assert_valid_vector_clock` checks exactly
that against the independent happened-before oracle
(:class:`repro.computation.HappenedBefore`) and is reused by the unit,
integration and property tests for every clock flavour the library ships.
"""

from __future__ import annotations

import contextlib
import random
from typing import Callable, Iterator, List, Tuple

import pytest
from hypothesis import Phase, settings

from repro.computation import Computation, HappenedBefore, paper_example_trace
from repro.graph import BipartiteGraph, paper_example_graph
from repro.obs.registry import MetricsRegistry, install as obs_install

# The mutation check (tests/mutants/run.py) only needs each mutant to
# fail, not a minimal failing example, so its profile skips shrinking.
settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------
def assert_valid_vector_clock(
    computation: Computation,
    timestamp_of: Callable[[object], object],
    oracle: HappenedBefore = None,
) -> None:
    """Assert Theorem 2 (``s → t ⇔ s.v < t.v``) for every ordered event pair.

    ``timestamp_of`` maps an event to any object supporting ``<`` with the
    vector clock semantics (a :class:`repro.core.Timestamp`, for one).
    """
    oracle = oracle or HappenedBefore(computation)
    for s in computation:
        for t in computation:
            if s == t:
                continue
            expected = oracle.happened_before(s, t)
            actual = timestamp_of(s) < timestamp_of(t)
            assert actual == expected, (
                f"vector clock condition violated for {s} vs {t}: "
                f"happened-before={expected}, timestamp<{actual}"
            )


def brute_force_cover_size(graph: BipartiteGraph) -> int:
    """Minimum vertex cover size by exhaustive search (tiny graphs only)."""
    from repro.graph import brute_force_vertex_cover

    return len(brute_force_vertex_cover(graph))


def random_pairs(
    num_threads: int, num_objects: int, num_events: int, seed: int
) -> List[Tuple[str, str]]:
    """A reproducible random (thread, object) pair sequence."""
    rng = random.Random(seed)
    return [
        (f"T{rng.randrange(num_threads)}", f"O{rng.randrange(num_objects)}")
        for _ in range(num_events)
    ]


@contextlib.contextmanager
def count_array_batches() -> Iterator[Callable[[], int]]:
    """Count the kernel batches that run in the array form inside the block.

    Yields a callable returning the count so far: the
    ``kernel.batch.array_batches`` counter of a telemetry registry
    installed for the block only.  The "array form ran" check of the
    kernel suites.
    """
    registry = MetricsRegistry(origin="array-batches")
    previous = obs_install(registry)
    try:
        yield lambda: registry.counter_value("kernel.batch.array_batches")
    finally:
        obs_install(previous)


def small_random_graph(seed: int, max_side: int = 6, density: float = 0.4) -> BipartiteGraph:
    """A small random bipartite graph usable with the brute-force oracles."""
    rng = random.Random(seed)
    n = rng.randint(1, max_side)
    m = rng.randint(1, max_side)
    graph = BipartiteGraph(
        threads=[f"T{i}" for i in range(n)], objects=[f"O{j}" for j in range(m)]
    )
    for i in range(n):
        for j in range(m):
            if rng.random() < density:
                graph.add_edge(f"T{i}", f"O{j}")
    return graph


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def paper_graph() -> BipartiteGraph:
    """The thread-object bipartite graph of the paper's Fig. 2."""
    return paper_example_graph()


@pytest.fixture
def paper_trace() -> Computation:
    """The computation of the paper's Fig. 1."""
    return paper_example_trace()


@pytest.fixture
def small_computation() -> Computation:
    """A hand-written computation with known causal structure.

    Two threads sharing one object plus one private object each::

        A: (A, x) (A, shared) (A, x)
        B: (B, shared) (B, y)

    interleaved as  (A,x) (B,shared) (A,shared) (A,x) (B,y).
    """
    return Computation.from_pairs(
        [
            ("A", "x"),
            ("B", "shared"),
            ("A", "shared"),
            ("A", "x"),
            ("B", "y"),
        ]
    )


@pytest.fixture
def medium_random_computation() -> Computation:
    """A medium-sized random computation used by several validity tests."""
    return Computation.from_pairs(random_pairs(6, 8, 120, seed=42))

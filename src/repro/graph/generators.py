"""Random thread-object bipartite graph generators.

Section V of the paper evaluates the algorithms on two families of random
bipartite graphs:

* **Uniform** - every (thread, object) pair is an edge independently with
  the same probability ``p`` (the "density" swept in Figs. 4 and 6).
* **Nonuniform** - a small fraction of threads and objects are "popular"
  and connect with a high probability; all other pairs connect with a much
  smaller probability.

Both are implemented here, along with two extra families (power-law-skewed
degrees and a clustered/community structure) used by the additional
ablation benchmarks.  All generators take an explicit ``seed`` (or an
already-constructed :class:`random.Random`) so experiments are exactly
reproducible.

Vertex naming convention: threads are ``"T0", "T1", ...`` and objects are
``"O0", "O1", ...`` which keeps the two sides visually distinct in debug
output and in the examples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from repro.graph.bipartite import BipartiteGraph

SeedLike = Union[int, random.Random, None]


def _rng(seed: SeedLike) -> random.Random:
    """Normalise ``seed`` into a :class:`random.Random` instance."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def thread_names(count: int) -> List[str]:
    """Canonical thread vertex names ``["T0", ..., f"T{count-1}"]``."""
    return [f"T{i}" for i in range(count)]


def object_names(count: int) -> List[str]:
    """Canonical object vertex names ``["O0", ..., f"O{count-1}"]``."""
    return [f"O{i}" for i in range(count)]


@dataclass(frozen=True)
class GraphSpec:
    """A declarative description of a random bipartite graph.

    Used by the experiment harness to record exactly which graph family and
    parameters produced a data point.
    """

    family: str
    num_threads: int
    num_objects: int
    density: float
    popular_fraction: float = 0.0
    popular_boost: float = 1.0
    seed: Optional[int] = None

    def generate(self, seed: SeedLike = None) -> BipartiteGraph:
        """Instantiate the graph described by this spec.

        ``seed`` overrides the spec's own seed when provided, which lets a
        single spec be replicated across independent trials.
        """
        effective_seed = seed if seed is not None else self.seed
        if self.family == "uniform":
            return uniform_bipartite(
                self.num_threads, self.num_objects, self.density, seed=effective_seed
            )
        if self.family == "nonuniform":
            return nonuniform_bipartite(
                self.num_threads,
                self.num_objects,
                self.density,
                popular_fraction=self.popular_fraction or 0.1,
                popular_boost=self.popular_boost if self.popular_boost > 1 else 10.0,
                seed=effective_seed,
            )
        if self.family == "powerlaw":
            return powerlaw_bipartite(
                self.num_threads, self.num_objects, self.density, seed=effective_seed
            )
        if self.family == "clustered":
            return clustered_bipartite(
                self.num_threads, self.num_objects, self.density, seed=effective_seed
            )
        raise ValueError(f"unknown graph family: {self.family!r}")


def uniform_bipartite(
    num_threads: int,
    num_objects: int,
    density: float,
    seed: SeedLike = None,
) -> BipartiteGraph:
    """Uniform scenario of Section V.

    Every (thread, object) pair becomes an edge independently with
    probability ``density``.  Expected density of the result equals the
    requested density.
    """
    _check_sizes(num_threads, num_objects)
    _check_probability(density, "density")
    rng = _rng(seed)
    graph = BipartiteGraph(threads=thread_names(num_threads), objects=object_names(num_objects))
    # Iterate the ordered name lists, not graph.threads/graph.objects:
    # those are frozensets, and consuming one rng.random() draw per pair
    # in hash order made the generated graph for a fixed seed depend on
    # PYTHONHASHSEED (caught by lint rule D101's class of bug; the other
    # families below always iterated the ordered lists).
    for t in thread_names(num_threads):
        for o in object_names(num_objects):
            if rng.random() < density:
                graph.add_edge(t, o)
    return graph


def nonuniform_bipartite(
    num_threads: int,
    num_objects: int,
    density: float,
    popular_fraction: float = 0.1,
    popular_boost: float = 10.0,
    seed: SeedLike = None,
) -> BipartiteGraph:
    """Nonuniform scenario of Section V.

    A fraction ``popular_fraction`` of threads and of objects are marked
    *popular*.  An edge whose endpoints include a popular vertex is added
    with probability ``min(1, density * popular_boost)``; edges between two
    unpopular vertices use a reduced probability chosen so the *expected
    overall density* still approximates ``density``.  This mirrors the
    paper's description ("popular threads and objects with a higher
    probability and non-popular ... with a smaller probability") while
    keeping the density axis of Figs. 4 and 6 comparable between the two
    scenarios.
    """
    _check_sizes(num_threads, num_objects)
    _check_probability(density, "density")
    _check_probability(popular_fraction, "popular_fraction")
    if popular_boost < 1.0:
        raise ValueError("popular_boost must be >= 1.0")
    rng = _rng(seed)

    threads = thread_names(num_threads)
    objects = object_names(num_objects)
    num_popular_threads = max(1, int(round(popular_fraction * num_threads)))
    num_popular_objects = max(1, int(round(popular_fraction * num_objects)))
    popular_threads = set(rng.sample(threads, num_popular_threads))
    popular_objects = set(rng.sample(objects, num_popular_objects))

    # Fraction of pairs that involve at least one popular endpoint.
    popular_pair_fraction = 1.0 - (
        (1.0 - num_popular_threads / num_threads)
        * (1.0 - num_popular_objects / num_objects)
    )
    # Boosted probability for popular pairs, capped so the overall expected
    # density cannot exceed the requested one (keeps the density axis of
    # Figs. 4/6 comparable across the Uniform and Nonuniform scenarios).
    high_p = min(1.0, density * popular_boost)
    if popular_pair_fraction > 0.0:
        high_p = min(high_p, density / popular_pair_fraction)
    # Solve: popular_pair_fraction*high_p + (1-popular_pair_fraction)*low_p = density
    if popular_pair_fraction < 1.0:
        low_p = (density - popular_pair_fraction * high_p) / (1.0 - popular_pair_fraction)
        low_p = min(max(low_p, 0.0), 1.0)
    else:  # pragma: no cover - degenerate: everything popular
        low_p = high_p

    graph = BipartiteGraph(threads=threads, objects=objects)
    for t in threads:
        for o in objects:
            p = high_p if (t in popular_threads or o in popular_objects) else low_p
            if rng.random() < p:
                graph.add_edge(t, o)
    return graph


def powerlaw_bipartite(
    num_threads: int,
    num_objects: int,
    density: float,
    exponent: float = 1.5,
    seed: SeedLike = None,
) -> BipartiteGraph:
    """Skewed-degree scenario (extra ablation).

    Each vertex gets a Zipf-like weight ``rank**-exponent``; the edge
    probability of a pair is proportional to the product of its endpoint
    weights, scaled so that the expected density equals ``density``.  This
    produces heavier degree skew than the paper's two-level Nonuniform
    generator and is used in the extended evaluation only.
    """
    _check_sizes(num_threads, num_objects)
    _check_probability(density, "density")
    rng = _rng(seed)
    threads = thread_names(num_threads)
    objects = object_names(num_objects)

    thread_weights = [1.0 / (i + 1) ** exponent for i in range(num_threads)]
    object_weights = [1.0 / (i + 1) ** exponent for i in range(num_objects)]
    rng.shuffle(thread_weights)
    rng.shuffle(object_weights)

    mean_weight_product = (
        sum(thread_weights) / num_threads * sum(object_weights) / num_objects
    )
    scale = density / mean_weight_product if mean_weight_product > 0 else 0.0

    graph = BipartiteGraph(threads=threads, objects=objects)
    for wi, t in zip(thread_weights, threads):
        for wj, o in zip(object_weights, objects):
            if rng.random() < min(1.0, scale * wi * wj):
                graph.add_edge(t, o)
    return graph


def clustered_bipartite(
    num_threads: int,
    num_objects: int,
    density: float,
    num_clusters: int = 4,
    within_boost: float = 8.0,
    seed: SeedLike = None,
) -> BipartiteGraph:
    """Community-structured scenario (extra ablation).

    Threads and objects are partitioned into ``num_clusters`` groups
    (modelling, e.g., threads of one software module touching that module's
    objects).  Within-cluster pairs use a boosted probability; cross-cluster
    pairs a reduced one, with the overall expected density kept at
    ``density``.
    """
    _check_sizes(num_threads, num_objects)
    _check_probability(density, "density")
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    rng = _rng(seed)
    threads = thread_names(num_threads)
    objects = object_names(num_objects)
    thread_cluster = {t: rng.randrange(num_clusters) for t in threads}
    object_cluster = {o: rng.randrange(num_clusters) for o in objects}

    within_fraction = 1.0 / num_clusters
    high_p = min(1.0, density * within_boost)
    if within_fraction < 1.0:
        low_p = (density - within_fraction * high_p) / (1.0 - within_fraction)
        low_p = min(max(low_p, 0.0), 1.0)
    else:  # pragma: no cover - single cluster degenerates to uniform
        low_p = density

    graph = BipartiteGraph(threads=threads, objects=objects)
    for t in threads:
        for o in objects:
            p = high_p if thread_cluster[t] == object_cluster[o] else low_p
            if rng.random() < p:
                graph.add_edge(t, o)
    return graph


def complete_bipartite(num_threads: int, num_objects: int) -> BipartiteGraph:
    """The complete bipartite graph ``K_{n,m}`` (density 1).

    Worst case for the mixed clock: the minimum vertex cover is the whole
    smaller side, so the optimum degenerates to ``min(n, m)``.
    """
    _check_sizes(num_threads, num_objects)
    threads = thread_names(num_threads)
    objects = object_names(num_objects)
    return BipartiteGraph(
        threads=threads,
        objects=objects,
        edges=[(t, o) for t in threads for o in objects],
    )


def star_bipartite(num_threads: int, num_objects: int, center_is_thread: bool = True) -> BipartiteGraph:
    """A star: one central vertex adjacent to the whole other side.

    Best case for the mixed clock: the optimum cover is the single centre,
    so one component suffices regardless of ``n`` and ``m``.
    """
    _check_sizes(num_threads, num_objects)
    threads = thread_names(num_threads)
    objects = object_names(num_objects)
    graph = BipartiteGraph(threads=threads, objects=objects)
    if center_is_thread:
        for o in objects:
            graph.add_edge(threads[0], o)
    else:
        for t in threads:
            graph.add_edge(t, objects[0])
    return graph


def chain_bipartite(num_vertices: int) -> BipartiteGraph:
    """A chain (path) graph alternating threads and objects.

    The path is ``T0 - O0 - T1 - O1 - ...`` with ``num_vertices`` vertices
    in total, so threads and objects split the count as evenly as possible
    and there are ``num_vertices - 1`` edges.  The maximum matching has
    size ``num_vertices // 2``.

    Chains are the worst case for augmenting-path length (a single path of
    ``O(V)`` hops), which makes this the stress scenario for the matchers'
    stack depth and for the matching-scaling benchmark.
    """
    if num_vertices < 2:
        raise ValueError("chain_bipartite needs at least 2 vertices")
    graph = BipartiteGraph()
    for i in range(num_vertices - 1):
        # Vertex i and i+1 are adjacent; even positions are threads.
        thread_pos, object_pos = (i, i + 1) if i % 2 == 0 else (i + 1, i)
        graph.add_edge(f"T{thread_pos // 2}", f"O{object_pos // 2}")
    return graph


def graph_from_edges(edges: Iterable[Tuple[str, str]]) -> BipartiteGraph:
    """Build a graph from explicit ``(thread, object)`` pairs."""
    return BipartiteGraph(edges=list(edges))


def paper_example_graph() -> BipartiteGraph:
    """The running example of Fig. 1 / Fig. 2 of the paper.

    Four threads ``T1..T4`` and four objects ``O1..O4``; every operation in
    the computation involves thread ``T2``, object ``O2`` or object ``O3``,
    so the minimum vertex cover (and hence the optimal mixed clock) is
    ``{T2, O2, O3}`` of size 3 < min(4, 4).
    """
    edges = [
        ("T1", "O2"),
        ("T2", "O1"),
        ("T2", "O2"),
        ("T2", "O3"),
        ("T3", "O3"),
        ("T4", "O2"),
        ("T4", "O3"),
    ]
    graph = BipartiteGraph(
        threads=["T1", "T2", "T3", "T4"],
        objects=["O1", "O2", "O3", "O4"],
        edges=edges,
    )
    return graph


def expected_edge_count(num_threads: int, num_objects: int, density: float) -> float:
    """Expected number of edges for a uniform graph with the given density."""
    return num_threads * num_objects * density


def _check_sizes(num_threads: int, num_objects: int) -> None:
    if num_threads < 1 or num_objects < 1:
        raise ValueError("graphs need at least one thread and one object")


def _check_probability(value: float, name: str) -> None:
    if not (0.0 <= value <= 1.0) or math.isnan(value):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")

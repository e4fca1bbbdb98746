"""Bipartite graph substrate: graphs, matchings, vertex covers, generators.

This subpackage contains everything combinatorial the paper relies on:

* :class:`~repro.graph.bipartite.BipartiteGraph` - the thread-object
  bipartite graph of a computation (Section III-A).
* :func:`~repro.graph.matching.hopcroft_karp_matching` and friends -
  maximum bipartite matching (Section III-B, citing Hopcroft-Karp).
* :class:`~repro.graph.incremental.DynamicMatching` - maximum matching
  maintained across edge insertions *and* deletions (augmenting paths are
  read off two locally repaired alternating forests), powering the per-event
  offline-optimum trajectory of the online evaluation and the
  sliding-window monitoring regime
  (:func:`~repro.graph.incremental.sliding_window_optimum_trajectory`).
* :func:`~repro.graph.vertex_cover.konig_vertex_cover` - Algorithm 1, the
  König-Egerváry construction of a minimum vertex cover from a maximum
  matching.
* :mod:`~repro.graph.generators` - the Uniform and Nonuniform random graph
  families used in the evaluation (Section V), plus extra families for
  ablations.
"""

from repro.graph.bipartite import BipartiteGraph
from repro.graph.io import (
    dump_edge_list,
    dump_graph,
    graph_from_dict,
    graph_to_dict,
    load_edge_list,
    load_graph,
)
from repro.graph.generators import (
    GraphSpec,
    chain_bipartite,
    clustered_bipartite,
    complete_bipartite,
    graph_from_edges,
    nonuniform_bipartite,
    object_names,
    paper_example_graph,
    powerlaw_bipartite,
    star_bipartite,
    thread_names,
    uniform_bipartite,
)
from repro.graph.incremental import (
    DynamicMatching,
    incremental_optimum_trajectory,
    sliding_window_optimum_trajectory,
)
from repro.graph.matching import (
    Matching,
    augmenting_path_matching,
    brute_force_matching,
    hopcroft_karp_matching,
    is_maximum_matching,
    maximum_matching,
    validate_matching,
)
from repro.graph.vertex_cover import (
    alternating_reachable,
    brute_force_vertex_cover,
    is_vertex_cover,
    konig_vertex_cover,
    minimum_vertex_cover,
    validate_vertex_cover,
)

__all__ = [
    "BipartiteGraph",
    "DynamicMatching",
    "GraphSpec",
    "Matching",
    "alternating_reachable",
    "augmenting_path_matching",
    "brute_force_matching",
    "brute_force_vertex_cover",
    "chain_bipartite",
    "clustered_bipartite",
    "complete_bipartite",
    "dump_edge_list",
    "dump_graph",
    "graph_from_dict",
    "graph_from_edges",
    "graph_to_dict",
    "hopcroft_karp_matching",
    "incremental_optimum_trajectory",
    "is_maximum_matching",
    "is_vertex_cover",
    "konig_vertex_cover",
    "load_edge_list",
    "load_graph",
    "maximum_matching",
    "minimum_vertex_cover",
    "nonuniform_bipartite",
    "object_names",
    "paper_example_graph",
    "powerlaw_bipartite",
    "sliding_window_optimum_trajectory",
    "star_bipartite",
    "thread_names",
    "uniform_bipartite",
    "validate_matching",
    "validate_vertex_cover",
]

"""Unit tests for :class:`repro.graph.BipartiteGraph`."""

from __future__ import annotations

import pytest

from repro.exceptions import DuplicateVertexError, GraphError, UnknownVertexError
from repro.graph import BipartiteGraph, paper_example_graph


def _snapshot(graph):
    """Both adjacency maps and the edge count, as plain values."""
    return (
        {thread: set(graph.neighbors(thread)) for thread in graph.threads},
        {obj: set(graph.neighbors(obj)) for obj in graph.objects},
        graph.num_edges,
    )


class TestConstruction:
    def test_empty_graph(self):
        graph = BipartiteGraph()
        assert graph.num_threads == 0
        assert graph.num_objects == 0
        assert graph.num_edges == 0
        assert graph.density() == 0.0
        assert len(graph) == 0

    def test_constructor_with_vertices_and_edges(self):
        graph = BipartiteGraph(
            threads=["T1", "T2"], objects=["O1"], edges=[("T1", "O1")]
        )
        assert graph.threads == {"T1", "T2"}
        assert graph.objects == {"O1"}
        assert graph.num_edges == 1

    def test_add_edge_creates_endpoints(self):
        graph = BipartiteGraph()
        assert graph.add_edge("T1", "O1") is True
        assert graph.has_thread("T1")
        assert graph.has_object("O1")

    def test_add_edge_is_idempotent(self):
        graph = BipartiteGraph()
        assert graph.add_edge("T1", "O1") is True
        assert graph.add_edge("T1", "O1") is False
        assert graph.num_edges == 1

    def test_add_vertex_is_idempotent(self):
        graph = BipartiteGraph()
        graph.add_thread("T1")
        graph.add_thread("T1")
        graph.add_object("O1")
        graph.add_object("O1")
        assert graph.num_threads == 1
        assert graph.num_objects == 1

    def test_vertex_cannot_live_on_both_sides(self):
        graph = BipartiteGraph()
        graph.add_thread("X")
        with pytest.raises(DuplicateVertexError):
            graph.add_object("X")
        graph.add_object("Y")
        with pytest.raises(DuplicateVertexError):
            graph.add_thread("Y")

    def test_add_edge_rejects_a_thread_endpoint_that_is_an_object(self):
        graph = BipartiteGraph(edges=[("T1", "X")])
        before = _snapshot(graph)
        with pytest.raises(DuplicateVertexError):
            graph.add_edge("X", "O2")
        assert _snapshot(graph) == before

    def test_add_edge_rejects_an_object_endpoint_that_is_a_thread(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("X", "O1")])
        before = _snapshot(graph)
        with pytest.raises(DuplicateVertexError):
            graph.add_edge("T1", "X")
        assert _snapshot(graph) == before

    def test_repeated_edge_changes_nothing(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T1", "O2"), ("T2", "O1")])
        before = _snapshot(graph)
        assert graph.add_edge("T1", "O1") is False
        assert graph.add_edge("T2", "O1") is False
        assert _snapshot(graph) == before
        assert graph.num_edges == 3

    def test_remove_edge(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T1", "O2")])
        graph.remove_edge("T1", "O1")
        assert not graph.has_edge("T1", "O1")
        assert graph.has_edge("T1", "O2")
        assert graph.num_edges == 1

    def test_remove_missing_edge_raises(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        with pytest.raises(GraphError):
            graph.remove_edge("T1", "O2")


class TestQueries:
    def test_neighbors_and_degree(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T1", "O2"), ("T2", "O1")])
        assert graph.thread_neighbors("T1") == {"O1", "O2"}
        assert graph.object_neighbors("O1") == {"T1", "T2"}
        assert graph.degree("T1") == 2
        assert graph.degree("O2") == 1
        assert graph.neighbors("T2") == {"O1"}
        assert graph.neighbors("O2") == {"T1"}

    def test_unknown_vertex_raises(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        with pytest.raises(UnknownVertexError):
            graph.thread_neighbors("T9")
        with pytest.raises(UnknownVertexError):
            graph.object_neighbors("O9")
        with pytest.raises(UnknownVertexError):
            graph.degree("missing")
        with pytest.raises(UnknownVertexError):
            graph.neighbors("missing")

    def test_contains_and_has_vertex(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        assert "T1" in graph
        assert "O1" in graph
        assert "T2" not in graph

    def test_edges_iteration(self):
        edges = {("T1", "O1"), ("T2", "O1"), ("T2", "O2")}
        graph = BipartiteGraph(edges=edges)
        assert set(graph.edges()) == edges

    def test_density(self):
        graph = BipartiteGraph(threads=["T1", "T2"], objects=["O1", "O2"])
        assert graph.density() == 0.0
        graph.add_edge("T1", "O1")
        assert graph.density() == pytest.approx(0.25)
        graph.add_edge("T1", "O2")
        graph.add_edge("T2", "O1")
        graph.add_edge("T2", "O2")
        assert graph.density() == pytest.approx(1.0)

    def test_popularity_definition(self):
        # pop(v) = deg(v) / |E|  (Definition 1 of the paper)
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T2", "O1"), ("T3", "O2")])
        assert graph.popularity("O1") == pytest.approx(2 / 3)
        assert graph.popularity("T1") == pytest.approx(1 / 3)

    def test_popularity_on_empty_graph_is_zero(self):
        graph = BipartiteGraph(threads=["T1"], objects=["O1"])
        assert graph.popularity("T1") == 0.0
        with pytest.raises(UnknownVertexError):
            graph.popularity("missing")

    def test_isolated_vertices(self):
        graph = BipartiteGraph(
            threads=["T1", "T2"], objects=["O1", "O2"], edges=[("T1", "O1")]
        )
        assert graph.isolated_vertices() == {"T2", "O2"}


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        clone = graph.copy()
        clone.add_edge("T2", "O2")
        assert graph.num_edges == 1
        assert clone.num_edges == 2
        assert graph != clone

    def test_equality(self):
        a = BipartiteGraph(edges=[("T1", "O1"), ("T2", "O2")])
        b = BipartiteGraph(edges=[("T2", "O2"), ("T1", "O1")])
        assert a == b
        b.add_edge("T1", "O2")
        assert a != b
        assert a != "not a graph"

    def test_subgraph(self):
        graph = BipartiteGraph(
            edges=[("T1", "O1"), ("T1", "O2"), ("T2", "O1"), ("T2", "O2")]
        )
        sub = graph.subgraph(["T1"], ["O1", "O2"])
        assert sub.threads == {"T1"}
        assert set(sub.edges()) == {("T1", "O1"), ("T1", "O2")}

    def test_subgraph_unknown_vertex(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        with pytest.raises(UnknownVertexError):
            graph.subgraph(["T1", "T9"], ["O1"])


class TestPaperExample:
    def test_paper_graph_shape(self):
        graph = paper_example_graph()
        assert graph.num_threads == 4
        assert graph.num_objects == 4
        # Every edge touches T2, O2 or O3 (that is why the cover has size 3).
        for thread, obj in graph.edges():
            assert thread == "T2" or obj in ("O2", "O3")

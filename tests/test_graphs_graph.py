"""Unit tests for :class:`repro.graphs.LabeledGraph`."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import LabeledGraph, complete_graph, path_graph


class TestConstruction:
    def test_empty_graph(self):
        graph = LabeledGraph(3)
        assert graph.n == 3
        assert graph.edge_count == 0
        assert list(graph.edges()) == []

    def test_single_node(self):
        graph = LabeledGraph(1)
        assert graph.degree(1) == 0
        assert graph.is_connected()

    def test_rejects_zero_nodes(self):
        with pytest.raises(GraphError):
            LabeledGraph(0)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            LabeledGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            LabeledGraph(3, [(1, 4)])

    def test_duplicate_edges_collapse(self):
        graph = LabeledGraph(3, [(1, 2), (2, 1), (1, 2)])
        assert graph.edge_count == 1

    def test_edges_sorted_lexicographically(self):
        graph = LabeledGraph(4, [(3, 4), (1, 3), (1, 2)])
        assert list(graph.edges()) == [(1, 2), (1, 3), (3, 4)]


class TestAccess:
    def test_neighbors_sorted(self):
        graph = LabeledGraph(5, [(3, 5), (3, 1), (3, 4)])
        assert graph.neighbors(3) == (1, 4, 5)

    def test_neighbor_set(self):
        graph = LabeledGraph(4, [(1, 2), (1, 3)])
        assert graph.neighbor_set(1) == frozenset({2, 3})

    def test_degree(self):
        graph = path_graph(4)
        assert graph.degree(1) == 1
        assert graph.degree(2) == 2

    def test_has_edge_symmetric(self):
        graph = LabeledGraph(3, [(1, 2)])
        assert graph.has_edge(1, 2)
        assert graph.has_edge(2, 1)
        assert not graph.has_edge(1, 3)

    def test_non_neighbors(self):
        graph = LabeledGraph(5, [(1, 2), (1, 4)])
        assert graph.non_neighbors(1) == (3, 5)

    def test_non_neighbors_excludes_self(self):
        graph = complete_graph(4)
        assert graph.non_neighbors(2) == ()

    def test_node_range_check(self):
        graph = LabeledGraph(3)
        with pytest.raises(GraphError):
            graph.degree(0)
        with pytest.raises(GraphError):
            graph.neighbors(4)


class TestMatrix:
    def test_adjacency_matrix_symmetric(self):
        graph = LabeledGraph(3, [(1, 2), (2, 3)])
        matrix = graph.adjacency_matrix()
        assert matrix[0, 1] and matrix[1, 0]
        assert matrix[1, 2] and matrix[2, 1]
        assert not matrix[0, 2]
        assert not matrix.diagonal().any()

    def test_matrix_cached(self):
        graph = LabeledGraph(3, [(1, 2)])
        assert graph.adjacency_matrix() is graph.adjacency_matrix()


class TestTransformations:
    def test_relabel_identity(self):
        graph = path_graph(4)
        same = graph.relabel({u: u for u in graph.nodes})
        assert same == graph

    def test_relabel_swap(self):
        graph = LabeledGraph(3, [(1, 2)])
        swapped = graph.relabel({1: 3, 2: 2, 3: 1})
        assert swapped.has_edge(3, 2)
        assert not swapped.has_edge(1, 2)

    def test_relabel_rejects_non_permutation(self):
        graph = path_graph(3)
        with pytest.raises(GraphError):
            graph.relabel({1: 1, 2: 1, 3: 3})

    def test_relabel_preserves_degree_multiset(self):
        graph = LabeledGraph(4, [(1, 2), (1, 3), (1, 4)])
        relabeled = graph.relabel({1: 4, 2: 3, 3: 2, 4: 1})
        assert sorted(relabeled.degree(u) for u in relabeled.nodes) == sorted(
            graph.degree(u) for u in graph.nodes
        )

    def test_without_edge(self):
        graph = path_graph(3)
        cut = graph.without_edge(1, 2)
        assert not cut.has_edge(1, 2)
        assert cut.has_edge(2, 3)

    def test_without_edge_rejects_missing(self):
        with pytest.raises(GraphError):
            path_graph(3).without_edge(1, 3)


class TestConnectivity:
    def test_path_connected(self):
        assert path_graph(5).is_connected()

    def test_disconnected(self):
        assert not LabeledGraph(4, [(1, 2)]).is_connected()

    def test_complete_connected(self):
        assert complete_graph(6).is_connected()

    def test_removed_nodes_are_left_out(self):
        graph = path_graph(5)
        assert not graph.is_connected({3})
        assert graph.is_connected({1, 5})
        assert LabeledGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]).is_connected({2})
        assert not LabeledGraph(4, [(1, 2), (3, 4)]).is_connected({1})

    def test_one_survivor_is_connected_and_none_is_not(self):
        graph = path_graph(4)
        assert graph.is_connected({1, 2, 4})
        assert not graph.is_connected({1, 2, 3, 4})
        assert LabeledGraph(1).is_connected()


class TestEquality:
    def test_equality_by_structure(self):
        a = LabeledGraph(3, [(1, 2), (2, 3)])
        b = LabeledGraph(3, [(2, 3), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_different_edges(self):
        assert LabeledGraph(3, [(1, 2)]) != LabeledGraph(3, [(1, 3)])

    def test_inequality_different_n(self):
        assert LabeledGraph(3, [(1, 2)]) != LabeledGraph(4, [(1, 2)])


@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=n),
                    st.integers(min_value=1, max_value=n),
                ).filter(lambda e: e[0] != e[1]),
                max_size=30,
            ),
        )
    )
)
def test_degree_sum_is_twice_edges(case):
    n, edges = case
    graph = LabeledGraph(n, edges)
    assert sum(graph.degree(u) for u in graph.nodes) == 2 * graph.edge_count

"""Unit tests for the compact DiGraph representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphFormatError, NodeNotFoundError
from repro.graphs import DiGraph, generators


class TestConstruction:
    def test_basic_counts(self):
        graph = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.num_nodes == 4
        assert graph.num_edges == 3
        assert len(graph) == 4

    def test_duplicate_edges_are_collapsed(self):
        graph = DiGraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
        assert graph.num_edges == 2

    def test_self_loops_are_kept(self):
        graph = DiGraph(2, [(0, 0), (0, 1)])
        assert graph.has_edge(0, 0)
        assert graph.in_degree(0) == 1

    def test_empty_graph(self):
        graph = DiGraph(3, [])
        assert graph.num_edges == 0
        assert graph.in_degree(0) == 0
        assert list(graph.edges()) == []

    def test_zero_nodes(self):
        graph = DiGraph(0, [])
        assert graph.num_nodes == 0
        assert list(graph.nodes()) == []

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphFormatError):
            DiGraph(-1, [])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            DiGraph(3, [(0, 3)])
        with pytest.raises(GraphFormatError):
            DiGraph(3, [(-1, 0)])

    def test_repr_mentions_counts(self):
        graph = DiGraph(2, [(0, 1)])
        assert "num_nodes=2" in repr(graph)
        assert "num_edges=1" in repr(graph)


class TestNeighbors:
    def test_in_and_out_neighbors(self):
        graph = DiGraph(4, [(0, 2), (1, 2), (2, 3)])
        assert sorted(graph.in_neighbors(2).tolist()) == [0, 1]
        assert graph.out_neighbors(2).tolist() == [3]
        assert graph.in_neighbors(0).tolist() == []

    def test_degrees(self):
        graph = DiGraph(4, [(0, 2), (1, 2), (2, 3)])
        assert graph.in_degree(2) == 2
        assert graph.out_degree(2) == 1
        assert graph.in_degrees().tolist() == [0, 0, 2, 1]
        assert graph.out_degrees().tolist() == [1, 1, 1, 0]

    def test_degree_sums_equal_edge_count(self):
        graph = generators.preferential_attachment(50, 3, seed=1)
        assert int(graph.in_degrees().sum()) == graph.num_edges
        assert int(graph.out_degrees().sum()) == graph.num_edges

    def test_neighbor_views_are_read_only(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        view = graph.in_neighbors(1)
        with pytest.raises(ValueError):
            view[0] = 5

    def test_unknown_node_raises(self):
        graph = DiGraph(3, [(0, 1)])
        with pytest.raises(NodeNotFoundError):
            graph.in_neighbors(7)
        with pytest.raises(NodeNotFoundError):
            graph.out_degree(-1)

    def test_contains(self):
        graph = DiGraph(3, [(0, 1)])
        assert 2 in graph
        assert 3 not in graph
        assert "a" not in graph

    def test_has_edge(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_edges_iteration_matches_construction(self):
        edges = {(0, 1), (1, 2), (2, 0), (0, 2)}
        graph = DiGraph(3, edges)
        assert set(graph.edges()) == edges


class TestSampling:
    def test_sample_in_neighbors_respects_adjacency(self):
        graph = DiGraph(4, [(0, 2), (1, 2), (2, 3)])
        rng = np.random.default_rng(0)
        nodes = np.array([2] * 100 + [3] * 100)
        sampled = graph.sample_in_neighbors(nodes, rng)
        assert set(sampled[:100].tolist()) <= {0, 1}
        assert set(sampled[100:].tolist()) == {2}

    def test_sample_in_neighbors_zero_indegree_gives_sentinel(self):
        graph = DiGraph(3, [(0, 1)])
        rng = np.random.default_rng(0)
        sampled = graph.sample_in_neighbors(np.array([0, 2]), rng)
        assert sampled.tolist() == [-1, -1]

    def test_sample_in_neighbors_propagates_sentinel(self):
        graph = DiGraph(3, [(0, 1)])
        rng = np.random.default_rng(0)
        sampled = graph.sample_in_neighbors(np.array([-1, 1]), rng)
        assert sampled[0] == -1
        assert sampled[1] == 0

    def test_sample_in_neighbors_is_roughly_uniform(self):
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        rng = np.random.default_rng(1)
        sampled = graph.sample_in_neighbors(np.full(3000, 3), rng)
        counts = np.bincount(sampled, minlength=3)[:3]
        assert counts.min() > 800  # each of the three should get ~1000

    def test_sample_in_neighbors_rejects_bad_node(self):
        graph = DiGraph(3, [(0, 1)])
        with pytest.raises(NodeNotFoundError):
            graph.sample_in_neighbors(np.array([5]), np.random.default_rng(0))


class TestLabels:
    def test_from_edge_list_assigns_ids_in_first_seen_order(self):
        graph = DiGraph.from_edge_list([("a", "b"), ("b", "c")])
        assert [graph.label_of(node) for node in graph.nodes()] == ["a", "b", "c"]

    def test_from_edge_list_symmetrize(self):
        graph = DiGraph.from_edge_list([("a", "b")], symmetrize=True)
        assert graph.num_edges == 2
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)

    def test_unlabeled_graph_uses_ids(self):
        graph = DiGraph(3, [(0, 1)])
        assert not graph.has_labels
        assert graph.label_of(1) == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphFormatError):
            DiGraph(2, [(0, 1)], labels=["x", "x"])

    def test_wrong_label_count_rejected(self):
        with pytest.raises(GraphFormatError):
            DiGraph(3, [(0, 1)], labels=["x", "y"])


class TestDerived:
    def test_reverse_swaps_directions(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        reverse = graph.reverse()
        assert reverse.has_edge(1, 0)
        assert reverse.has_edge(2, 1)
        assert reverse.num_edges == graph.num_edges

    def test_double_reverse_is_identity(self):
        graph = generators.preferential_attachment(30, 2, seed=5)
        double = graph.reverse().reverse()
        assert set(double.edges()) == set(graph.edges())

    def test_is_symmetric(self):
        assert generators.small_world(20, 4, seed=0).is_symmetric()
        assert not generators.path(4).is_symmetric()

    def test_statistics(self):
        graph = DiGraph(4, [(0, 2), (1, 2), (2, 3)])
        stats = graph.statistics()
        assert stats.num_nodes == 4
        assert stats.num_edges == 3
        assert stats.max_in_degree == 2
        assert stats.max_out_degree == 1
        assert not stats.is_symmetric

    def test_transition_matrix_columns_are_stochastic(self):
        graph = generators.preferential_attachment(25, 2, seed=2)
        transition = graph.transition_matrix()
        column_sums = np.asarray(transition.sum(axis=0)).ravel()
        in_degrees = graph.in_degrees()
        expected = (in_degrees > 0).astype(float)
        assert np.allclose(column_sums, expected)

    def test_transition_matrix_entries_are_one_over_in_degree(self):
        graph = generators.copying_model(40, 3, seed=1)
        transition = graph.transition_matrix()
        rows, cols = [], []
        for node in graph.nodes():
            rows.extend(graph.in_neighbors(node).tolist())
            cols.extend([node] * graph.in_degree(node))
        dense = np.zeros((40, 40))
        dense[rows, cols] = 1.0 / graph.in_degrees()[cols]
        assert transition.format == "csr" and transition.has_sorted_indices
        assert np.array_equal(transition.toarray(), dense)

    def test_transition_matrix_empty_graph(self):
        graph = DiGraph(3, [])
        transition = graph.transition_matrix()
        assert transition.shape == (3, 3)
        assert transition.nnz == 0

    def test_csr_views_consistent_with_neighbors(self):
        graph = generators.copying_model(30, 3, seed=4)
        in_indptr, in_indices = graph.in_csr()
        for node in graph.nodes():
            expected = sorted(graph.in_neighbors(node).tolist())
            actual = sorted(in_indices[in_indptr[node] : in_indptr[node + 1]].tolist())
            assert actual == expected

    def test_memory_bytes_positive(self):
        graph = generators.cycle(10)
        assert graph.memory_bytes() > 0


class TestPushEdgeWeights:
    def test_matches_per_edge_definition(self):
        graph = generators.two_level_community(2, 8, seed=1)
        sqrt_c = 0.775
        weights = graph.push_edge_weights(sqrt_c)
        out_indptr, out_indices = graph.out_csr()
        assert weights.shape == out_indices.shape
        in_degrees = graph.in_degrees()
        for edge, successor in enumerate(out_indices):
            assert weights[edge] == sqrt_c / in_degrees[successor]

    def test_cached_per_sqrt_c(self):
        graph = generators.cycle(6)
        first = graph.push_edge_weights(0.7)
        assert graph.push_edge_weights(0.7) is first
        assert graph.push_edge_weights(0.8) is not first

    def test_read_only(self):
        graph = generators.cycle(6)
        weights = graph.push_edge_weights(0.7)
        with pytest.raises(ValueError):
            weights[0] = 1.0

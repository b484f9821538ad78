"""Unit tests for the SLING index: construction and Algorithm-3 queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import IndexNotBuiltError, NodeNotFoundError, ParameterError
from repro.graphs import DiGraph, generators
from repro.sling import SlingIndex, SlingParameters

EPS = 0.05


@pytest.fixture(scope="module")
def community_index():
    graph = generators.two_level_community(3, 10, seed=7)
    return SlingIndex(graph, epsilon=EPS, seed=1).build()


class TestLifecycle:
    def test_querying_before_build_raises(self):
        graph = generators.cycle(5)
        index = SlingIndex(graph, epsilon=EPS)
        assert not index.is_built
        with pytest.raises(IndexNotBuiltError):
            index.single_pair(0, 1)
        with pytest.raises(IndexNotBuiltError):
            index.single_source(0)
        with pytest.raises(IndexNotBuiltError):
            index.index_size_bytes()
        with pytest.raises(IndexNotBuiltError):
            _ = index.build_statistics

    def test_build_returns_self_and_sets_flags(self):
        graph = generators.cycle(5)
        index = SlingIndex(graph, epsilon=EPS, seed=0)
        assert index.build() is index
        assert index.is_built
        stats = index.build_statistics
        assert stats.total_seconds >= 0.0
        assert stats.num_hitting_entries > 0
        assert "build took" in stats.summary()

    def test_empty_graph_rejected(self):
        with pytest.raises(ParameterError):
            SlingIndex(DiGraph(0, []), epsilon=EPS)

    def test_invalid_worker_count(self):
        graph = generators.cycle(4)
        with pytest.raises(ParameterError):
            SlingIndex(graph, epsilon=EPS).build(workers=0)

    def test_explicit_parameters_override(self):
        graph = generators.cycle(4)
        params = SlingParameters.from_accuracy_target(num_nodes=4, epsilon=0.2)
        index = SlingIndex(graph, epsilon=0.01, parameters=params)
        assert index.parameters.epsilon == 0.2

    def test_unknown_node_raises_after_build(self, community_index):
        with pytest.raises(NodeNotFoundError):
            community_index.single_pair(0, 999)
        with pytest.raises(NodeNotFoundError):
            community_index.single_source(999)

    def test_repr(self, community_index):
        assert "built" in repr(community_index)


class TestSinglePairAccuracy:
    def test_self_similarity_close_to_one(self, community_index):
        for node in range(0, 30, 7):
            assert community_index.single_pair(node, node) == pytest.approx(
                1.0, abs=EPS
            )

    def test_cycle_pairs_are_zero(self):
        graph = generators.cycle(6)
        index = SlingIndex(graph, epsilon=EPS, seed=2).build()
        assert index.single_pair(0, 3) == pytest.approx(0.0, abs=EPS)

    def test_outward_star_leaves(self, outward_star, decay):
        index = SlingIndex(outward_star, c=decay, epsilon=EPS, seed=3).build()
        assert index.single_pair(1, 2) == pytest.approx(decay, abs=EPS)

    def test_complete_graph_matches_closed_form(self, complete_graph, decay, complete_offdiag):
        index = SlingIndex(complete_graph, c=decay, epsilon=EPS, seed=4).build()
        expected = complete_offdiag(4, decay)
        assert index.single_pair(0, 1) == pytest.approx(expected, abs=EPS)

    def test_within_epsilon_of_power_method(
        self, community_graph, ground_truth_cache, decay
    ):
        truth = ground_truth_cache(community_graph)
        index = SlingIndex(community_graph, c=decay, epsilon=EPS, seed=5).build()
        estimated = index.all_pairs()
        assert np.abs(estimated - truth).max() <= EPS

    def test_scores_symmetric_within_tolerance(self, community_index):
        for u, v in [(0, 5), (3, 17), (11, 29)]:
            assert community_index.single_pair(u, v) == pytest.approx(
                community_index.single_pair(v, u), abs=1e-9
            )

    def test_scores_within_unit_interval(self, community_index):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v = rng.integers(0, 30, size=2)
            score = community_index.single_pair(int(u), int(v))
            assert 0.0 <= score <= 1.0

    def test_dag_source_nodes_have_zero_similarity(self, dag_graph):
        index = SlingIndex(dag_graph, epsilon=EPS, seed=6).build()
        sources = np.flatnonzero(dag_graph.in_degrees() == 0)
        if sources.size >= 2:
            assert index.single_pair(int(sources[0]), int(sources[1])) == 0.0


class TestDerivedQueries:
    def test_top_k_returns_sorted_scores(self, community_index):
        ranked = community_index.top_k(0, 5)
        assert len(ranked) == 5
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(node != 0 for node, _ in ranked)

    def test_top_k_invalid_k(self, community_index):
        with pytest.raises(ParameterError):
            community_index.top_k(0, 0)

    def test_top_k_k_larger_than_graph(self, community_index):
        ranked = community_index.top_k(0, 1000)
        assert len(ranked) == community_index.graph.num_nodes - 1

    def test_top_k_prefers_same_community(self, community_index):
        # Node 0 lives in community {0..9}; most of its top-5 neighbours
        # should come from the same community.
        ranked = community_index.top_k(0, 5)
        same_community = sum(1 for node, _ in ranked if node < 10)
        assert same_community >= 3

    def test_all_pairs_shape_and_diagonal(self, community_index):
        matrix = community_index.all_pairs()
        assert matrix.shape == (30, 30)
        assert np.all(matrix.diagonal() >= 1.0 - EPS)

    def test_single_node_graph(self):
        graph = DiGraph(1, [])
        index = SlingIndex(graph, epsilon=EPS, seed=0).build()
        assert index.single_pair(0, 0) == pytest.approx(1.0)
        assert index.top_k(0, 3) == []


class TestSizeAccounting:
    def test_index_size_grows_with_accuracy(self):
        graph = generators.preferential_attachment(80, 3, seed=1)
        loose = SlingIndex(graph, epsilon=0.2, seed=0).build()
        tight = SlingIndex(graph, epsilon=0.05, seed=0).build()
        assert tight.index_size_bytes() > loose.index_size_bytes()
        assert tight.average_set_size() > loose.average_set_size()

    def test_index_size_includes_corrections(self):
        graph = generators.cycle(10)
        index = SlingIndex(graph, epsilon=0.1, seed=0).build()
        assert index.index_size_bytes() >= 8 * 10

    def test_correction_factors_exposed(self, community_index):
        corrections = community_index.correction_factors
        assert corrections.shape == (30,)
        assert np.all((corrections >= 0.0) & (corrections <= 1.0))

    def test_hitting_sets_exposed(self, community_index):
        store = community_index.packed_store
        assert store.num_nodes == 30
        assert all(store.node_view(node).contains(0, node) for node in range(30))


class TestReproducibility:
    def test_same_seed_gives_identical_index(self):
        graph = generators.preferential_attachment(40, 2, seed=9)
        first = SlingIndex(graph, epsilon=EPS, seed=123).build()
        second = SlingIndex(graph, epsilon=EPS, seed=123).build()
        assert np.array_equal(first.correction_factors, second.correction_factors)
        assert first.single_pair(3, 17) == second.single_pair(3, 17)

    def test_different_seed_changes_corrections(self):
        graph = generators.preferential_attachment(40, 2, seed=9)
        first = SlingIndex(graph, epsilon=EPS, seed=1).build()
        second = SlingIndex(graph, epsilon=EPS, seed=2).build()
        assert not np.array_equal(first.correction_factors, second.correction_factors)

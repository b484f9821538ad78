"""Unit tests for single-source queries (Algorithm 6 and the naive variant)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.sling import PackedHittingStore, SlingIndex
from repro.sling.single_source import single_source_local_push

EPS = 0.05


def empty_view():
    """A query view with no stored entries."""
    empty = np.empty(0)
    return PackedHittingStore.from_columns([0, 0], empty, empty, empty).node_view(0)


@pytest.fixture(scope="module")
def built_index():
    graph = generators.two_level_community(3, 10, seed=11)
    return SlingIndex(graph, epsilon=EPS, seed=3).build()


class TestLocalPush:
    def test_shape_and_range(self, built_index):
        scores = built_index.single_source(0)
        assert scores.shape == (30,)
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0)

    def test_self_score_close_to_one(self, built_index):
        for node in (0, 13, 29):
            assert built_index.single_source(node)[node] == pytest.approx(1.0, abs=EPS)

    def test_matches_ground_truth_within_epsilon(
        self, community_graph, ground_truth_cache
    ):
        truth = ground_truth_cache(community_graph)
        index = SlingIndex(community_graph, epsilon=EPS, seed=5).build()
        for node in (0, 7, 21):
            scores = index.single_source(node)
            assert np.abs(scores - truth[node]).max() <= EPS

    def test_agrees_with_pairwise_variant(self, built_index):
        # Both variants approximate the same quantity from the same index, so
        # they should agree to within the hitting-probability pruning error.
        for node in (0, 15):
            local_push = built_index.single_source(node, method="local_push")
            pairwise = built_index.single_source(node, method="pairwise")
            assert np.abs(local_push - pairwise).max() <= EPS

    def test_unknown_method_rejected(self, built_index):
        with pytest.raises(ParameterError):
            built_index.single_source(0, method="bogus")

    def test_cycle_gives_zero_off_diagonal(self):
        graph = generators.cycle(8)
        index = SlingIndex(graph, epsilon=EPS, seed=1).build()
        scores = index.single_source(0)
        assert scores[0] == pytest.approx(1.0, abs=EPS)
        assert np.all(scores[1:] <= EPS)

    def test_outward_star_all_leaves_similar(self, outward_star, decay):
        index = SlingIndex(outward_star, c=decay, epsilon=EPS, seed=2).build()
        scores = index.single_source(1)
        for leaf in range(2, 6):
            assert scores[leaf] == pytest.approx(decay, abs=EPS)
        assert scores[0] == pytest.approx(0.0, abs=EPS)

    def test_isolated_source_node(self):
        # Node with no in-neighbours: only its self-similarity is non-zero.
        graph = generators.path(5)
        index = SlingIndex(graph, epsilon=EPS, seed=4).build()
        scores = index.single_source(0)
        assert scores[0] == pytest.approx(1.0, abs=EPS)
        assert np.all(scores[1:] == 0.0)


class TestSharedKernel:
    def test_kernel_accepts_arbitrary_hitting_set(self, built_index):
        # Any key-sorted view works, not just a store slice: here a copy
        # composed through an (identity) override.
        graph = built_index.graph
        stored = built_index.packed_store.node_view(4)
        query_set = stored.override(
            [(int(stored.levels[0]), int(stored.targets[0]), float(stored.values[0]))]
        )
        assert query_set.values is not stored.values
        scores = single_source_local_push(
            graph,
            query_set,
            built_index.correction_factors,
            built_index.parameters.sqrt_c,
            built_index.parameters.theta,
        )
        assert np.allclose(scores, built_index.single_source(4))

    def test_empty_hitting_set_gives_zero_vector(self, built_index):
        scores = single_source_local_push(
            built_index.graph,
            empty_view(),
            built_index.correction_factors,
            built_index.parameters.sqrt_c,
            built_index.parameters.theta,
        )
        assert not scores.any()


class TestCascade:
    def test_within_epsilon_of_local_push(self, built_index):
        for node in (0, 7, 14, 29):
            reference = built_index.single_source(node)
            cascade = built_index.single_source(node, method="cascade")
            assert np.abs(cascade - reference).max() <= EPS
            assert np.all(cascade >= 0.0)
            assert np.all(cascade <= 1.0)

    def test_empty_hitting_set_gives_zero_vector(self, built_index):
        from repro.sling import single_source_cascade

        scores = single_source_cascade(
            built_index.graph,
            empty_view(),
            built_index.correction_factors,
            built_index.parameters.sqrt_c,
            built_index.parameters.theta,
        )
        assert not scores.any()

    def test_returns_fresh_arrays(self, built_index):
        first = built_index.single_source(3, method="cascade")
        second = built_index.single_source(3, method="cascade")
        assert first is not second
        assert np.array_equal(first, second)


class TestBoundedTopK:
    def test_invalid_parameters_rejected(self, built_index):
        with pytest.raises(ParameterError):
            built_index.top_k_bounded(0, 0)
        with pytest.raises(ParameterError):
            built_index.top_k_bounded(0, 5, budget=-0.1)

    def test_zero_budget_matches_cascade_ranking(self, built_index):
        for node in (0, 11):
            result = built_index.top_k_bounded(node, 5, budget=0.0)
            assert result.ranked == built_index.top_k(node, 5, method="cascade")
            assert result.tail_bound == 0.0
            assert not result.truncated

    def test_method_bounded_routes_through_top_k(self, built_index):
        assert (
            built_index.top_k(4, 6, method="bounded")
            == built_index.top_k_bounded(4, 6).ranked
        )

    def test_scores_within_budget_of_exact(self, built_index):
        budget = built_index.parameters.epsilon / 4.0
        for node in (0, 9, 22):
            exact = built_index.single_source(node)
            result = built_index.top_k_bounded(node, 8, budget=budget)
            for ranked_node, score in result.ranked:
                # Truncated scores are lower bounds within tail + the
                # cascade's own (≤ ε) pruning difference from the reference.
                assert score <= exact[ranked_node] + EPS
                assert score >= exact[ranked_node] - result.tail_bound - EPS

    def test_truncated_reports_consistent_metadata(self, built_index):
        # A huge budget lets the cascade cut as early as allowed; whatever
        # decision is taken, the reported metadata must be self-consistent.
        result = built_index.top_k_bounded(2, 5, budget=10.0)
        assert len(result.ranked) == 5
        if result.truncated:
            assert result.tail_bound <= 10.0
            assert result.stop_level >= 2
        else:
            assert result.tail_bound == 0.0

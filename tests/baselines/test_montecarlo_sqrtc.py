"""Unit tests for the √c-walk Monte Carlo variant (Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    SqrtCMonteCarloIndex,
    required_num_walks,
    required_sqrtc_walks,
)
from repro.exceptions import IndexNotBuiltError, NodeNotFoundError, ParameterError
from repro.graphs import generators


class TestParameterFormulas:
    def test_budget_grows_with_accuracy_and_size(self):
        assert required_sqrtc_walks(1000, 0.01, 0.01) > required_sqrtc_walks(
            1000, 0.1, 0.01
        )
        assert required_sqrtc_walks(10_000, 0.05, 0.01) > required_sqrtc_walks(
            50, 0.05, 0.01
        )

    def test_budget_never_exceeds_truncated_variant(self):
        # Dropping the log(1/eps) factor means the sqrt(c) budget is the same
        # Chernoff count, i.e. not larger than the truncated method's.
        assert required_sqrtc_walks(1000, 0.05, 0.01) <= required_num_walks(
            1000, 0.05, 0.01
        )

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            required_sqrtc_walks(0, 0.1, 0.1)
        with pytest.raises(ParameterError):
            required_sqrtc_walks(10, 0.0, 0.1)


class TestQueries:
    @pytest.fixture(scope="class")
    def method(self, community_graph):
        return SqrtCMonteCarloIndex(community_graph, num_walks=800, seed=5).build()

    def test_queries_before_build_raise(self, community_graph):
        method = SqrtCMonteCarloIndex(community_graph, num_walks=10)
        with pytest.raises(IndexNotBuiltError):
            method.single_pair(0, 1)

    def test_identical_nodes_score_one(self, method):
        assert method.single_pair(7, 7) == 1.0

    def test_scores_in_unit_interval(self, method):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, v = rng.integers(0, 30, size=2)
            assert 0.0 <= method.single_pair(int(u), int(v)) <= 1.0

    def test_unbiased_against_ground_truth(
        self, community_graph, ground_truth_cache, decay
    ):
        truth = ground_truth_cache(community_graph)
        method = SqrtCMonteCarloIndex(
            community_graph, c=decay, num_walks=3000, seed=2
        ).build()
        estimated = method.all_pairs()
        assert np.abs(estimated - truth).max() <= 0.06

    def test_outward_star_estimate(self, outward_star, decay):
        method = SqrtCMonteCarloIndex(
            outward_star, c=decay, num_walks=4000, seed=3
        ).build()
        assert method.single_pair(1, 2) == pytest.approx(decay, abs=0.04)

    def test_cycle_scores_zero(self, decay):
        graph = generators.cycle(6)
        method = SqrtCMonteCarloIndex(graph, c=decay, num_walks=200, seed=4).build()
        assert method.single_pair(0, 3) == 0.0

    def test_single_source_matches_single_pair(self, method):
        scores = method.single_source(2)
        for node in (0, 2, 15, 29):
            assert scores[node] == pytest.approx(method.single_pair(2, node))

    def test_walks_terminate_without_truncation_parameter(self, method):
        # sqrt(c)-walks stop on their own; the stored length (4 bytes per
        # step of every walk of every node) should be far below the safety
        # cap of 16/(1 - sqrt(c)) ~ 71.
        stored_steps = method.index_size_bytes() // (
            4 * method.graph.num_nodes * method.num_walks
        )
        assert stored_steps < 60

    def test_average_walk_length_matches_geometric_expectation(
        self, community_graph, decay
    ):
        # sqrt(c)-walks have expected length sqrt(c)/(1 - sqrt(c)) ~ 3.44 for
        # c = 0.6, so the stored matrix is mostly padding: the average number
        # of non-sentinel steps per walk must sit near that expectation.
        method = SqrtCMonteCarloIndex(
            community_graph, c=decay, num_walks=500, seed=0
        ).build()
        fingerprints = method._fingerprints
        assert fingerprints is not None
        steps_per_walk = (fingerprints >= 0).sum(axis=2).mean()
        expected = decay**0.5 / (1.0 - decay**0.5)
        assert steps_per_walk == pytest.approx(expected, rel=0.15)

    def test_path_graph_all_walks_stop(self, decay):
        graph = generators.path(4)
        method = SqrtCMonteCarloIndex(graph, c=decay, num_walks=50, seed=1).build()
        assert method.single_pair(0, 2) == 0.0

    def test_unknown_node_rejected(self, method):
        with pytest.raises(NodeNotFoundError):
            method.single_pair(0, 999)

    def test_invalid_walk_budget(self, community_graph):
        with pytest.raises(ParameterError):
            SqrtCMonteCarloIndex(community_graph, num_walks=0)

    def test_reproducible_with_seed(self, community_graph):
        first = SqrtCMonteCarloIndex(community_graph, num_walks=60, seed=9).build()
        second = SqrtCMonteCarloIndex(community_graph, num_walks=60, seed=9).build()
        assert first.single_pair(1, 8) == second.single_pair(1, 8)

    def test_name_label(self, community_graph):
        assert SqrtCMonteCarloIndex(community_graph, num_walks=5).name == "MC-sqrtc"

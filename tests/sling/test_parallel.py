"""Unit tests for the parallel build path (Section 5.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.sling import SlingIndex, SlingParameters, build_hitting_sets, parallel_build
from repro.sling.parallel import build_with_thread_count, node_chunks

EPS = 0.1


class TestNodeChunks:
    def test_chunks_cover_range_without_overlap(self):
        chunks = node_chunks(103, 7)
        covered = [node for chunk in chunks for node in chunk]
        assert covered == list(range(103))

    def test_no_more_chunks_than_requested(self):
        assert len(node_chunks(100, 4)) <= 4
        assert len(node_chunks(3, 10)) <= 3

    def test_single_chunk(self):
        chunks = node_chunks(10, 1)
        assert len(chunks) == 1
        assert list(chunks[0]) == list(range(10))

    def test_empty_range(self):
        assert node_chunks(0, 4) == []

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            node_chunks(-1, 2)
        with pytest.raises(ParameterError):
            node_chunks(10, 0)


class TestParallelBuild:
    @pytest.fixture(scope="class")
    def graph(self):
        return generators.two_level_community(2, 12, seed=17)

    @pytest.fixture(scope="class")
    def params(self, graph):
        return SlingParameters.from_accuracy_target(
            num_nodes=graph.num_nodes, epsilon=EPS
        )

    def test_parallel_matches_sequential_hitting_sets(self, graph, params):
        corrections, hitting_sets, _, _ = parallel_build(
            graph, params, workers=2, seed=0
        )
        sequential = build_hitting_sets(graph, params.sqrt_c, params.theta)
        # The hitting-set construction is deterministic, so parallel and
        # sequential results must be identical.
        assert hitting_sets == sequential
        assert not np.isnan(corrections).any()

    def test_parallel_corrections_within_epsilon_of_exact(
        self, graph, params, ground_truth_cache
    ):
        from repro.sling import exact_correction_factors

        corrections, _, _, _ = parallel_build(graph, params, workers=2, seed=1)
        exact = exact_correction_factors(graph, ground_truth_cache(graph), params.c)
        assert np.abs(corrections - exact).max() <= params.epsilon_d + 1e-9

    def test_index_built_with_workers_answers_queries(self, graph, ground_truth_cache):
        index = SlingIndex(graph, epsilon=EPS, seed=2).build(workers=2)
        truth = ground_truth_cache(graph)
        estimated = index.all_pairs()
        assert np.abs(estimated - truth).max() <= EPS
        assert index.build_statistics.workers == 2

    def test_invalid_worker_count(self, graph, params):
        with pytest.raises(ParameterError):
            parallel_build(graph, params, workers=0)

    def test_build_with_thread_count_returns_positive_time(self, graph, params):
        elapsed_single = build_with_thread_count(graph, params, 1, seed=0)
        elapsed_double = build_with_thread_count(graph, params, 2, seed=0)
        assert elapsed_single > 0.0
        assert elapsed_double > 0.0

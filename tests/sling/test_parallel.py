"""Unit tests for the parallel build path (Section 5.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.sling import (
    SlingIndex,
    SlingParameters,
    build_hitting_sets,
    load_index,
    out_of_core_build,
    parallel_build,
)
from repro.sling.parallel import build_with_thread_count, node_chunks

EPS = 0.1

COLUMNS = ("offsets", "levels", "targets", "values", "keys")


def assert_same_index(index, other) -> None:
    """Equal corrections and equal store columns, bitwise."""
    assert np.array_equal(index.correction_factors, other.correction_factors)
    for column in COLUMNS:
        assert np.array_equal(
            getattr(index.packed_store, column), getattr(other.packed_store, column)
        ), column


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

    def test_parallel_matches_sequential_records(self, graph, params):
        corrections, records, _, _ = parallel_build(graph, params, workers=2, seed=0)
        sequential = build_hitting_sets(graph, params.sqrt_c, params.theta)
        # The chunks are contiguous target ranges concatenated in order, so
        # the parallel records are the sequential ones, in the same order.
        for column in range(1, 5):
            assert np.array_equal(records[column], sequential[column])
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


class TestBuildParity:
    """Every build path computes the same index: one push, one packing
    constructor, and each ``d̃_k`` from node ``k``'s own stream."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.two_level_community(2, 12, seed=17)

    @pytest.fixture(scope="class")
    def sequential(self, graph):
        return SlingIndex(graph, epsilon=0.05, seed=3).build()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_build_is_bitwise_equal_for_any_worker_count(
        self, graph, sequential, workers
    ):
        parallel = SlingIndex(graph, epsilon=0.05, seed=3).build(workers=workers)
        assert_same_index(parallel, sequential)

    def test_out_of_core_build_equals_in_memory_build(
        self, graph, sequential, tmp_path
    ):
        report = out_of_core_build(
            graph, sequential.parameters, tmp_path / "ooc", buffer_bytes=4096, seed=3
        )
        assert report.num_spill_runs > 1
        assert_same_index(load_index(report.directory, graph), sequential)

    def test_unseeded_build_keeps_its_entropy(self, graph):
        index = SlingIndex(graph, epsilon=0.05)
        first = index.build().correction_factors.copy()
        assert np.array_equal(index.build(workers=2).correction_factors, first)

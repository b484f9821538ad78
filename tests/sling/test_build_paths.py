"""Every build path computes the same index (Section 5.4).

The d̃ pass has one driver, :func:`estimate_all_correction_factors`, inline
or over a process pool; the push is :func:`build_hitting_sets` and the
packing :meth:`PackedHittingStore.from_hitting_sets` on every path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.sling import (
    SlingIndex,
    SlingParameters,
    SqrtCWalker,
    estimate_all_correction_factors,
    exact_correction_factors,
    load_index,
    out_of_core_build,
)

EPS = 0.1

COLUMNS = ("offsets", "levels", "targets", "values", "keys")


def assert_same_index(index, other) -> None:
    """Equal corrections and equal store columns, bitwise."""
    assert np.array_equal(index.correction_factors, other.correction_factors)
    for column in COLUMNS:
        assert np.array_equal(
            getattr(index.packed_store, column), getattr(other.packed_store, column)
        ), column


@pytest.fixture(scope="module")
def graph():
    return generators.two_level_community(2, 12, seed=17)


class TestCorrectionPool:
    def test_pool_estimates_a_subset_bitwise_like_inline(self, graph):
        walker = SqrtCWalker(graph, c=0.6, seed=4)
        nodes = [1, 5, 6, 7, 20, 23]
        inline = estimate_all_correction_factors(walker, 0.05, 0.01, nodes=nodes)
        pooled = estimate_all_correction_factors(
            walker, 0.05, 0.01, nodes=nodes, workers=2
        )
        assert np.array_equal(pooled, inline, equal_nan=True)
        assert np.isnan(np.delete(pooled, nodes)).all()

    def test_invalid_worker_count(self, graph):
        walker = SqrtCWalker(graph, c=0.6, seed=0)
        with pytest.raises(ParameterError):
            estimate_all_correction_factors(walker, 0.05, 0.01, workers=0)
        with pytest.raises(ParameterError):
            SlingIndex(graph, epsilon=EPS, seed=0).build(workers=0)

    def test_negative_worker_count_rejected(self, graph):
        walker = SqrtCWalker(graph, c=0.6, seed=0)
        with pytest.raises(ParameterError):
            estimate_all_correction_factors(walker, 0.05, 0.01, workers=-1)
        with pytest.raises(ParameterError):
            SlingIndex(graph, epsilon=EPS, seed=0).build(workers=-2)

    def test_positional_call_estimates_every_node(self, graph):
        walker = SqrtCWalker(graph, c=0.6, seed=4)
        values = estimate_all_correction_factors(walker, 0.05, 0.01)
        assert values.shape == (graph.num_nodes,)
        assert values.dtype == np.float64
        assert not np.isnan(values).any()
        assert ((values >= 0.0) & (values <= 1.0)).all()

    def test_all_nodes_given_equals_nodes_none(self, graph):
        walker = SqrtCWalker(graph, c=0.6, seed=4)
        full = estimate_all_correction_factors(walker, 0.05, 0.01)
        listed = estimate_all_correction_factors(
            walker, 0.05, 0.01, nodes=np.arange(graph.num_nodes)
        )
        assert np.array_equal(listed, full)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unsorted_subset_is_indexed_by_node_id(self, graph, workers):
        walker = SqrtCWalker(graph, c=0.6, seed=4)
        full = estimate_all_correction_factors(walker, 0.05, 0.01)
        nodes = [20, 3, 11, 0]
        values = estimate_all_correction_factors(
            walker, 0.05, 0.01, nodes=nodes, workers=workers
        )
        assert np.array_equal(values[nodes], full[nodes])
        assert np.isnan(np.delete(values, nodes)).all()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_subset_is_all_nan(self, graph, workers):
        walker = SqrtCWalker(graph, c=0.6, seed=4)
        values = estimate_all_correction_factors(
            walker, 0.05, 0.01, nodes=[], workers=workers
        )
        assert values.shape == (graph.num_nodes,)
        assert np.isnan(values).all()

    def test_more_workers_than_nodes(self, graph):
        walker = SqrtCWalker(graph, c=0.6, seed=4)
        nodes = [9]
        inline = estimate_all_correction_factors(walker, 0.05, 0.01, nodes=nodes)
        pooled = estimate_all_correction_factors(
            walker, 0.05, 0.01, nodes=nodes, workers=3
        )
        assert np.array_equal(pooled, inline, equal_nan=True)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_full_run_equals_inline(self, graph, workers):
        walker = SqrtCWalker(graph, c=0.6, seed=8)
        inline = estimate_all_correction_factors(walker, 0.05, 0.01)
        pooled = estimate_all_correction_factors(
            walker, 0.05, 0.01, workers=workers
        )
        assert np.array_equal(pooled, inline)

    def test_repeated_runs_do_not_advance_the_walker(self, graph):
        walker = SqrtCWalker(graph, c=0.6, seed=5)
        first = estimate_all_correction_factors(walker, 0.05, 0.01)
        estimate_all_correction_factors(walker, 0.05, 0.01, workers=2)
        assert np.array_equal(estimate_all_correction_factors(walker, 0.05, 0.01), first)

    def test_different_seeds_draw_different_samples(self, graph):
        first = estimate_all_correction_factors(SqrtCWalker(graph, c=0.6, seed=1), 0.05, 0.01)
        second = estimate_all_correction_factors(SqrtCWalker(graph, c=0.6, seed=2), 0.05, 0.01)
        assert not np.array_equal(first, second)


class TestParallelBuild:
    def test_parallel_corrections_within_epsilon_of_exact(
        self, graph, ground_truth_cache
    ):
        index = SlingIndex(graph, epsilon=EPS, seed=1).build(workers=2)
        params = index.parameters
        exact = exact_correction_factors(graph, ground_truth_cache(graph), params.c)
        assert np.abs(index.correction_factors - exact).max() <= params.epsilon_d + 1e-9

    def test_index_built_with_workers_answers_queries(self, graph, ground_truth_cache):
        index = SlingIndex(graph, epsilon=EPS, seed=2).build(workers=2)
        truth = ground_truth_cache(graph)
        estimated = index.all_pairs()
        assert np.abs(estimated - truth).max() <= EPS
        assert index.build_statistics.workers == 2

    def test_default_build_records_one_worker(self, graph):
        index = SlingIndex(graph, epsilon=EPS, seed=2).build()
        assert index.build_statistics.workers == 1


class TestBuildParity:
    """Every build path computes the same index: one push, one packing
    constructor, and each ``d̃_k`` from node ``k``'s own stream."""

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

    def test_explicit_parameters_build_matches_across_worker_counts(self, graph):
        params = SlingParameters.from_accuracy_target(
            num_nodes=graph.num_nodes, epsilon=0.05
        )
        sequential = SlingIndex(graph, parameters=params, seed=0).build()
        parallel = SlingIndex(graph, parameters=params, seed=0).build(workers=2)
        assert_same_index(parallel, sequential)

    def test_unseeded_build_keeps_its_entropy(self, graph):
        index = SlingIndex(graph, epsilon=0.05)
        first = index.build().correction_factors.copy()
        assert np.array_equal(index.build(workers=2).correction_factors, first)

"""Integration tests exercising the full pipeline across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import LinearizeIndex, MonteCarloIndex, PowerMethod
from repro.evaluation import max_error, random_pairs, top_k_precision
from repro.graphs import datasets, read_edge_list, write_edge_list
from repro.sling import SlingIndex, load_index, save_index

EPS = 0.1


class TestDatasetToQueriesPipeline:
    @pytest.fixture(scope="class")
    def graph(self):
        return datasets.load_dataset("GrQc", scale=0.08, seed=1)

    @pytest.fixture(scope="class")
    def truth(self, graph):
        return PowerMethod(graph, num_iterations=40).build().all_pairs()

    @pytest.fixture(scope="class")
    def sling(self, graph):
        return SlingIndex(graph, epsilon=EPS, seed=1).build()

    def test_sling_respects_error_bound_on_dataset_standin(self, sling, truth):
        assert max_error(sling.all_pairs(), truth) <= EPS

    def test_all_methods_agree_on_random_pairs(self, graph, truth, sling):
        mc = MonteCarloIndex(graph, num_walks=400, walk_length=10, seed=2).build()
        linearize = LinearizeIndex(graph, seed=3).build()
        for node_u, node_v in random_pairs(graph, 25, seed=4):
            reference = truth[node_u, node_v]
            assert sling.single_pair(node_u, node_v) == pytest.approx(
                reference, abs=EPS
            )
            assert mc.single_pair(node_u, node_v) == pytest.approx(reference, abs=0.15)
            assert linearize.single_pair(node_u, node_v) == pytest.approx(
                reference, abs=0.15
            )

    def test_single_source_consistent_with_single_pair(self, graph, sling):
        source = 3
        scores = sling.single_source(source)
        for target in range(0, graph.num_nodes, 7):
            assert scores[target] == pytest.approx(
                sling.single_pair(source, target), abs=2 * EPS
            )

    def test_top_k_precision_against_truth(self, sling, truth):
        assert top_k_precision(sling.all_pairs(), truth, 50) >= 0.8

    def test_sling_queries_cheaper_than_linearize(self, graph, sling):
        """The headline claim of Figure 1: SLING single-pair queries are much
        cheaper than Linearize's O(mT) traversal, already at tiny scales."""
        import time

        linearize = LinearizeIndex(graph, seed=5).build()
        pairs = random_pairs(graph, 50, seed=6)

        start = time.perf_counter()
        for node_u, node_v in pairs:
            sling.single_pair(node_u, node_v)
        sling_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        for node_u, node_v in pairs:
            linearize.single_pair(node_u, node_v)
        linearize_elapsed = time.perf_counter() - start

        assert sling_elapsed < linearize_elapsed


class TestFileRoundtripPipeline:
    def test_edge_list_to_index_to_disk_and_back(self, tmp_path):
        original = datasets.load_dataset("AS", scale=0.05, seed=2)
        edge_file = tmp_path / "graph.txt"
        write_edge_list(original, edge_file)
        graph = read_edge_list(edge_file)
        assert graph.num_nodes == original.num_nodes

        index = SlingIndex(graph, epsilon=EPS, seed=7).build()
        directory = save_index(index, tmp_path / "index")
        loaded = load_index(directory, graph, mmap_mode=None)
        disk = load_index(directory, graph, mmap_mode="r")
        for node_u, node_v in random_pairs(graph, 10, seed=8):
            in_memory = index.single_pair(node_u, node_v)
            assert loaded.single_pair(node_u, node_v) == in_memory
            assert disk.single_pair(node_u, node_v) == in_memory


class TestOptimizedIndexEquivalence:
    def test_all_option_combinations_stay_within_epsilon(self):
        graph = datasets.load_dataset("Wiki-Vote", scale=0.05, seed=3)
        truth = PowerMethod(graph, num_iterations=40).build().all_pairs()
        for reduce_space in (False, True):
            for enhance in (False, True):
                index = SlingIndex(
                    graph,
                    epsilon=EPS,
                    seed=4,
                    reduce_space=reduce_space,
                    enhance_accuracy=enhance,
                ).build()
                error = max_error(index.all_pairs(), truth)
                assert error <= EPS, (reduce_space, enhance, error)

    def test_parallel_and_sequential_builds_answer_identically_for_hitting(self):
        graph = datasets.load_dataset("AS", scale=0.05, seed=5)
        sequential = SlingIndex(graph, epsilon=EPS, seed=6).build()
        parallel = SlingIndex(graph, epsilon=EPS, seed=6).build(workers=2)
        for column in ("offsets", "levels", "targets", "values"):
            assert np.array_equal(
                getattr(sequential.packed_store, column),
                getattr(parallel.packed_store, column),
            )

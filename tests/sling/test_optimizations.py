"""Unit tests for the Section-5.2 / 5.3 optimizations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.sling import (
    AccuracyEnhancer,
    PackedHittingStore,
    SlingIndex,
    SpaceReduction,
    build_hitting_sets,
    exact_near_hops,
    neighborhood_weight,
)
from repro.sling.query import ServingState

EPS = 0.05
SQRT_C = 0.6**0.5


def packed(graph, theta) -> PackedHittingStore:
    """The store a plain build with threshold ``theta`` packs."""
    return PackedHittingStore.from_hitting_sets(build_hitting_sets(graph, SQRT_C, theta))


def marked_enhancer(graph, store) -> AccuracyEnhancer:
    """An enhancer with every node's marks selected from ``store``."""
    enhancer = AccuracyEnhancer(graph, epsilon=EPS, sqrt_c=SQRT_C)
    enhancer.mark_all_packed(store)
    return enhancer


def stored_entries(store, node) -> dict[tuple[int, int], float]:
    """``H(node)`` as ``{(level, target): value}``."""
    return {
        (int(level), int(target)): float(value)
        for level, target, value in zip(*store.node_entries(node))
    }


def enhanced_set(enhancer, node, store) -> dict[tuple[int, int], float]:
    """``H*(node)``: the stored set plus the generated entries."""
    enhanced = stored_entries(store, node)
    enhanced.update(
        enhancer.generated_entries(
            node, lambda level, target: enhanced.get((level, target), 0.0) > 0.0
        )
    )
    return enhanced


@pytest.fixture(scope="module")
def graph():
    return generators.two_level_community(3, 10, seed=13)


@pytest.fixture(scope="module")
def truth(graph, ground_truth_cache):
    return ground_truth_cache(graph)


class TestSpaceReduction:
    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            SpaceReduction(theta=0.0)
        with pytest.raises(ParameterError):
            SpaceReduction(theta=0.01, gamma=0.0)

    def test_weight_budget(self):
        reduction = SpaceReduction(theta=0.001, gamma=10.0)
        assert reduction.weight_budget == pytest.approx(10_000)

    def test_is_reducible_uses_neighborhood_weight(self, graph):
        reduction = SpaceReduction(theta=0.5, gamma=1.0)  # budget = 2
        for node in graph.nodes():
            expected = neighborhood_weight(graph, node) <= 2
            assert reduction.is_reducible(graph, node) == expected

    def test_apply_drops_levels_one_and_two(self, graph):
        records = build_hitting_sets(graph, SQRT_C, theta=0.01)
        reduction = SpaceReduction(theta=0.01, gamma=1e9)  # everything reducible
        reduced, kept = reduction.apply(graph, records)
        assert reduced.all()
        assert not np.isin(kept.levels, (1, 2)).any()
        assert kept.num_records == np.count_nonzero(~np.isin(records.levels, (1, 2)))

    def test_apply_masks_only_reducible_sources(self, graph):
        records = build_hitting_sets(graph, SQRT_C, theta=0.01)
        reduction = SpaceReduction(theta=0.04, gamma=1.0)  # budget = 25
        reduced, kept = reduction.apply(graph, records)
        assert 0 < reduced.sum() < graph.num_nodes
        dropped = reduced[records.sources] & np.isin(records.levels, (1, 2))
        assert kept.num_records == records.num_records - dropped.sum()
        assert np.array_equal(kept.values, records.values[~dropped])
        for node in graph.nodes():
            assert reduced[node] == reduction.is_reducible(graph, node)

    def test_apply_reduces_total_size(self, graph):
        records = build_hitting_sets(graph, SQRT_C, theta=0.01)
        _, kept = SpaceReduction(theta=0.01, gamma=1e9).apply(graph, records)
        assert kept.num_records < records.num_records

    def test_reconstruct_restores_exact_near_hops(self, graph):
        # A reduced node's stored set lacks levels 1-2; the view a query
        # reads carries the exact Algorithm-5 values there.
        index = SlingIndex(graph, epsilon=EPS, seed=1, reduce_space=True).build()
        state = index._serving()
        node = int(np.flatnonzero(state.reduced)[0])
        stored_levels = set(index.packed_store.node_view(node).levels.tolist())
        assert not stored_levels & {1, 2}
        view = state.query_view(node)
        entries = {
            (int(level), int(target)): float(value)
            for level, target, value in zip(view.levels, view.targets, view.values)
        }
        exact = exact_near_hops(graph, node, index.parameters.sqrt_c)
        for level in (1, 2):
            for target, value in exact.get(level, {}).items():
                assert entries[(level, target)] == value

    def test_index_with_reduction_stays_within_epsilon(self, graph, truth):
        index = SlingIndex(graph, epsilon=EPS, seed=1, reduce_space=True).build()
        assert index.build_statistics.num_reduced_nodes > 0
        estimated = index.all_pairs()
        assert np.abs(estimated - truth).max() <= EPS

    def test_reduction_shrinks_index_size(self, graph):
        plain = SlingIndex(graph, epsilon=EPS, seed=1).build()
        reduced = SlingIndex(graph, epsilon=EPS, seed=1, reduce_space=True).build()
        assert reduced.index_size_bytes() < plain.index_size_bytes()

    def test_reduced_single_source_matches_truth(self, graph, truth):
        index = SlingIndex(graph, epsilon=EPS, seed=2, reduce_space=True).build()
        scores = index.single_source(3)
        assert np.abs(scores - truth[3]).max() <= EPS


class TestAccuracyEnhancer:
    def test_invalid_parameters(self, graph):
        with pytest.raises(ParameterError):
            AccuracyEnhancer(graph, epsilon=0.0, sqrt_c=SQRT_C)
        with pytest.raises(ParameterError):
            AccuracyEnhancer(graph, epsilon=0.1, sqrt_c=1.5)

    def test_mark_budget_is_inverse_sqrt_epsilon(self, graph):
        enhancer = AccuracyEnhancer(graph, epsilon=0.04, sqrt_c=SQRT_C)
        assert enhancer.mark_budget == 5

    def test_marks_respect_budget_and_degree_cutoff(self, graph):
        enhancer = marked_enhancer(graph, packed(graph, theta=0.01))
        in_degrees = graph.in_degrees()
        for node in graph.nodes():
            marks = enhancer.marks_for(node)
            assert len(marks) <= enhancer.mark_budget
            for _, target, _ in marks:
                assert in_degrees[target] <= enhancer.mark_budget

    def test_enhanced_set_is_superset(self, graph):
        store = packed(graph, theta=0.01)
        enhancer = marked_enhancer(graph, store)
        node = 4
        stored = stored_entries(store, node)
        enhanced = enhanced_set(enhancer, node, store)
        assert len(enhanced) >= len(stored)
        for position, value in stored.items():
            assert enhanced[position] == pytest.approx(value)

    def test_generated_values_never_exceed_exact(self, graph):
        # Section 5.3 argues the generated approximations stay below the true
        # hitting probabilities; verify against the exact matrix values.
        store = packed(graph, theta=0.02)
        enhancer = marked_enhancer(graph, store)
        scaled_transition = graph.transition_matrix().toarray() * SQRT_C
        node = 7
        enhanced = enhanced_set(enhancer, node, store)
        # h^(l)(node, k) = (R^l e_node)[k] with R = sqrt(c) P  (Lemma 5).
        exact_level = np.eye(graph.num_nodes)[node]
        for level in range(max(level for level, _ in enhanced) + 1):
            for (at_level, target), value in enhanced.items():
                if at_level == level:
                    assert value <= exact_level[target] + 1e-9
            exact_level = scaled_transition @ exact_level

    def test_enhancement_does_not_hurt_accuracy(self, graph, truth):
        plain = SlingIndex(graph, epsilon=EPS, seed=3).build()
        enhanced = SlingIndex(
            graph, epsilon=EPS, seed=3, enhance_accuracy=True
        ).build()
        plain_error = np.abs(plain.all_pairs() - truth).max()
        enhanced_error = np.abs(enhanced.all_pairs() - truth).max()
        # The enhanced hitting probabilities are closer to the true values, so
        # the overall error should not get materially worse (the correction
        # factors are shared between the two indexes) and must stay within ε.
        assert enhanced_error <= EPS
        assert enhanced_error <= plain_error + 0.005

    def test_enhancement_with_space_reduction_combined(self, graph, truth):
        index = SlingIndex(
            graph, epsilon=EPS, seed=4, reduce_space=True, enhance_accuracy=True
        ).build()
        assert np.abs(index.all_pairs() - truth).max() <= EPS

    def test_no_marks_returns_same_object(self, graph):
        enhancer = AccuracyEnhancer(graph, epsilon=EPS, sqrt_c=SQRT_C)
        # mark_all_packed was never called, so every node is unmarked and
        # generates nothing: the query reads the zero-copy store slice.
        assert enhancer.generated_entries(0, lambda level, target: False) == {}
        index = SlingIndex(graph, epsilon=EPS, seed=3).build()
        state = ServingState(
            graph, index.parameters, index.correction_factors, index.packed_store,
            enhancer=enhancer,
        )
        assert state.query_view(0).values.base is not None  # a slice, not a copy

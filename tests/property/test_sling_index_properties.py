"""Property-based tests of the end-to-end SLING guarantee on random graphs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import simrank_matrix
from repro.graphs import DiGraph
from repro.sling import SlingIndex

C = 0.6
EPSILON = 0.15  # loose target keeps the per-example build cheap


def small_graphs(max_nodes: int = 8, max_edges: int = 24):
    return (
        st.integers(min_value=1, max_value=max_nodes)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=n - 1),
                        st.integers(min_value=0, max_value=n - 1),
                    ).filter(lambda edge: edge[0] != edge[1]),
                    max_size=max_edges,
                ),
            )
        )
        .map(lambda data: DiGraph(data[0], data[1]))
    )


@settings(max_examples=20, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_single_pair_scores_within_epsilon_of_truth(graph, seed):
    truth = simrank_matrix(graph, c=C, num_iterations=40)
    index = SlingIndex(graph, c=C, epsilon=EPSILON, seed=seed).build()
    for node_u in graph.nodes():
        for node_v in graph.nodes():
            estimate = index.single_pair(node_u, node_v)
            assert 0.0 <= estimate <= 1.0
            assert abs(estimate - truth[node_u, node_v]) <= EPSILON


@settings(max_examples=15, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_single_source_matches_truth_and_pairwise_variant(graph, seed):
    truth = simrank_matrix(graph, c=C, num_iterations=40)
    index = SlingIndex(graph, c=C, epsilon=EPSILON, seed=seed).build()
    for source in graph.nodes():
        local_push = index.single_source(source, method="local_push")
        pairwise = index.single_source(source, method="pairwise")
        assert np.abs(local_push - truth[source]).max() <= EPSILON
        assert np.abs(local_push - pairwise).max() <= EPSILON


@settings(max_examples=15, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_optimized_indexes_keep_the_guarantee(graph, seed):
    truth = simrank_matrix(graph, c=C, num_iterations=40)
    index = SlingIndex(
        graph,
        c=C,
        epsilon=EPSILON,
        seed=seed,
        reduce_space=True,
        enhance_accuracy=True,
    ).build()
    estimated = index.all_pairs()
    assert np.abs(estimated - truth).max() <= EPSILON


@settings(max_examples=15, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_correction_factors_and_hitting_sets_are_structurally_sound(graph, seed):
    index = SlingIndex(graph, c=C, epsilon=EPSILON, seed=seed).build()
    corrections = index.correction_factors
    assert np.all((corrections >= 0.0) & (corrections <= 1.0))
    store = index.packed_store
    for node in graph.nodes():
        # Level 0 always contains the node itself with probability 1.
        view = store.node_view(node)
        assert view.contains(0, node)
        # (a level-0 entry's combined key is its target id)
        assert view.values[np.searchsorted(view.keys, node)] == 1.0
        for level, _targets, values in view.iter_levels():
            assert values.sum() <= (C**0.5) ** level + 1e-9

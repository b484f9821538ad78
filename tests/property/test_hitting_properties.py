"""Property-based tests for the hitting-probability machinery (Algorithm 2)."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import DiGraph
from repro.sling import PackedHittingStore, build_hitting_sets, exact_near_hops, reverse_push
from repro.sling.hitting import theoretical_error_bound

SQRT_C = math.sqrt(0.6)


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


def exact_hitting_matrices(graph: DiGraph, max_level: int) -> list[np.ndarray]:
    """Exact h^(l) matrices (entry [i, k]) for levels 0..max_level."""
    scaled = SQRT_C * graph.transition_matrix().toarray()
    levels = [np.eye(graph.num_nodes)]
    for _ in range(max_level):
        levels.append(scaled.T @ levels[-1])
    return levels


thetas = st.sampled_from([0.005, 0.02, 0.05, 0.15])


@settings(max_examples=30, deadline=None)
@given(small_graphs(), thetas)
def test_reverse_push_entries_above_theta_and_below_exact(graph, theta):
    max_level = 10
    exact = exact_hitting_matrices(graph, max_level)
    for target in range(graph.num_nodes):
        pushed = reverse_push(graph, target, SQRT_C, theta, max_levels=max_level)
        for level, entries in pushed.items():
            for source, value in entries.items():
                assert value > theta
                assert value <= exact[level][source, target] + 1e-12


@settings(max_examples=30, deadline=None)
@given(small_graphs(), thetas)
def test_reverse_push_error_within_lemma7_bound(graph, theta):
    max_level = 8
    exact = exact_hitting_matrices(graph, max_level)
    for target in range(graph.num_nodes):
        pushed = reverse_push(graph, target, SQRT_C, theta, max_levels=max_level)
        for level in range(max_level):
            bound = theoretical_error_bound(SQRT_C, theta, level)
            entries = pushed.get(level, {})
            for source in range(graph.num_nodes):
                approx = entries.get(source, 0.0)
                assert exact[level][source, target] - approx <= bound + 1e-12


@settings(max_examples=30, deadline=None)
@given(small_graphs(), thetas)
def test_hitting_set_level_mass_bounded(graph, theta):
    store = PackedHittingStore.from_hitting_sets(build_hitting_sets(graph, SQRT_C, theta))
    _, levels, totals, _ = store.level_stats()
    assert levels.size > 0
    assert np.all(totals <= SQRT_C**levels + 1e-9)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_exact_near_hops_match_matrix_computation(graph):
    exact = exact_hitting_matrices(graph, 2)
    for node in range(graph.num_nodes):
        near = exact_near_hops(graph, node, SQRT_C)
        for level in (1, 2):
            entries = near.get(level, {})
            for target in range(graph.num_nodes):
                assert abs(entries.get(target, 0.0) - exact[level][node, target]) < 1e-12


@settings(max_examples=25, deadline=None)
@given(small_graphs(), thetas)
def test_smaller_theta_never_shrinks_hitting_sets(graph, theta):
    coarse = build_hitting_sets(graph, SQRT_C, theta)
    fine = build_hitting_sets(graph, SQRT_C, theta / 4)
    assert fine.num_records >= coarse.num_records

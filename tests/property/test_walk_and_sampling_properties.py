"""Property-based tests for √c-walks and the Bernoulli-mean estimators."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import simrank_matrix
from repro.graphs import DiGraph
from repro.sling import SqrtCWalker
from repro.sling.sampling import (
    estimate_bernoulli_mean_adaptive,
    estimate_bernoulli_mean_adaptive_batch,
    fixed_sample_count,
)

C = 0.6


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


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_walks_always_follow_in_edges(graph, seed):
    # Two walks that follow in-edges can meet only at a common ancestor at
    # the same distance from both starts, which is where SimRank is positive.
    # A pair walk first meets within n² steps if it can meet at all, so n²
    # power iterations leave exactly the never-meeting pairs at zero.
    n = graph.num_nodes
    truth = simrank_matrix(graph, c=C, num_iterations=n * n)
    walker = SqrtCWalker(graph, c=C, seed=seed)
    for node_a, node_b in zip(*np.nonzero(truth == 0.0)):
        assert not any(walker.walk_pair_meets(node_a, node_b) for _ in range(10))
        assert walker.count_meeting_pairs(np.full(10, node_a), np.full(10, node_b)) == 0


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_walk_pair_meeting_symmetric_in_expectation(graph, seed):
    walker = SqrtCWalker(graph, c=C, seed=seed)
    # Meeting of (u, u) pairs is certain, regardless of graph shape.
    for node in range(graph.num_nodes):
        assert walker.walk_pair_meets(node, node)


@settings(max_examples=20, deadline=None)
@given(small_graphs(max_nodes=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_count_meeting_pairs_between_zero_and_batch_size(graph, seed):
    walker = SqrtCWalker(graph, c=C, seed=seed)
    rng = np.random.default_rng(seed)
    batch = 64
    starts_a = rng.integers(0, graph.num_nodes, size=batch)
    starts_b = rng.integers(0, graph.num_nodes, size=batch)
    count = walker.count_meeting_pairs(starts_a, starts_b)
    assert 0 <= count <= batch
    identical = int((starts_a == starts_b).sum())
    assert count >= identical  # identical starts always meet at step 0


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.05, 0.1, 0.2]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_adaptive_estimator_concentrates(probability, epsilon, seed):
    rng = np.random.default_rng(seed)
    estimate = estimate_bernoulli_mean_adaptive(
        lambda: bool(rng.random() < probability), epsilon=epsilon, delta=0.01
    )
    # delta = 1% failure probability; with 25 examples a systematic violation
    # would show up immediately, an isolated unlucky draw is tolerated by the
    # slack added below.
    assert abs(estimate.mean - probability) <= epsilon + 0.02


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.05, 0.1, 0.2]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batch_and_scalar_adaptive_estimators_use_same_budgets(
    probability, epsilon, seed
):
    scalar_rng = np.random.default_rng(seed)
    batch_rng = np.random.default_rng(seed)
    scalar = estimate_bernoulli_mean_adaptive(
        lambda: bool(scalar_rng.random() < probability), epsilon=epsilon, delta=0.05
    )
    batch = estimate_bernoulli_mean_adaptive_batch(
        lambda count: int((batch_rng.random(count) < probability).sum()),
        epsilon=epsilon,
        delta=0.05,
    )
    # Identical RNG stream => identical first-phase success counts => identical
    # total budgets and means.
    assert scalar.num_samples == batch.num_samples
    assert scalar.mean == batch.mean


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0.01, 0.05, 0.1]), st.sampled_from([0.001, 0.01, 0.1]))
def test_fixed_sample_count_monotone(epsilon, delta):
    assert fixed_sample_count(epsilon, delta) >= fixed_sample_count(epsilon * 2, delta)
    assert fixed_sample_count(epsilon, delta) >= fixed_sample_count(epsilon, delta * 2)

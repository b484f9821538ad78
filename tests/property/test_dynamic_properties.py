"""Property-based tests of the dynamic-index maintenance guarantee.

Across random graphs and random edit sequences, the incrementally
maintained index must (a) serve a store bitwise equal to a from-scratch
rebuild's after every edit, (b) answer every query kind within the
certified staleness bound of that rebuild, and (c) return to *bitwise*
rebuild parity, correction factors included, after a re-freeze.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import DiGraph
from repro.sling import DynamicSlingIndex, SlingIndex

C = 0.6
EPSILON = 0.15  # loose target keeps the per-example build cheap
SEED = 5
STORE_COLUMNS = ("offsets", "levels", "targets", "values", "keys")


def edge_strategy(n: int):
    return st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda edge: edge[0] != edge[1])


def graph_and_edits(max_nodes: int = 7, max_edges: int = 16, max_edits: int = 5):
    """A small graph plus a random sequence of (add?, (u, v)) edit steps."""
    return st.integers(min_value=2, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(edge_strategy(n), max_size=max_edges),
            st.lists(
                st.tuples(st.booleans(), edge_strategy(n)),
                min_size=1,
                max_size=max_edits,
            ),
        )
    )


def apply_edit(index: DynamicSlingIndex, is_add: bool, edge: tuple[int, int]):
    if is_add:
        return index.add_edges([edge])
    return index.remove_edges([edge])


@settings(max_examples=12, deadline=None)
@given(graph_and_edits(), st.integers(min_value=0, max_value=2**31 - 1))
def test_incremental_answers_track_rebuild_within_staleness_bound(data, seed):
    n, edges, edits = data
    index = DynamicSlingIndex.from_index(
        SlingIndex(DiGraph(n, edges), c=C, epsilon=EPSILON, seed=seed).build()
    )
    for is_add, edge in edits:
        apply_edit(index, is_add, edge)
        fresh = SlingIndex(index.graph, c=C, epsilon=EPSILON, seed=seed).build()
        for column in STORE_COLUMNS:
            mine = getattr(index.packed_store, column)
            theirs = getattr(fresh.packed_store, column)
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
        bound = index.staleness_bound()
        for node in range(n):
            incremental = index.single_source(node)
            rebuilt = fresh.single_source(node)
            assert np.abs(incremental - rebuilt).max() <= bound
            for other in range(n):
                pair = index.single_pair(node, other)
                assert abs(pair - fresh.single_pair(node, other)) <= bound
            # Top-k scores must agree within the bound too (rank order may
            # legitimately differ for scores closer than the bound).
            for rank, (target, score) in enumerate(index.top_k(node, 3)):
                assert abs(score - rebuilt[target]) <= bound


@settings(max_examples=12, deadline=None)
@given(graph_and_edits(), st.integers(min_value=0, max_value=2**31 - 1))
def test_refreeze_restores_bitwise_rebuild_parity(data, seed):
    n, edges, edits = data
    index = DynamicSlingIndex.from_index(
        SlingIndex(DiGraph(n, edges), c=C, epsilon=EPSILON, seed=seed).build()
    )
    for is_add, edge in edits:
        apply_edit(index, is_add, edge)
    assert index.refreeze()
    assert index.staleness_bound() == 0.0
    fresh = SlingIndex(index.graph, c=C, epsilon=EPSILON, seed=seed).build()
    assert np.array_equal(index.correction_factors, fresh.correction_factors)
    for node in range(n):
        assert np.array_equal(index.single_source(node), fresh.single_source(node))
        levels, targets, values = index.packed_store.node_entries(node)
        f_levels, f_targets, f_values = fresh.packed_store.node_entries(node)
        assert np.array_equal(levels, f_levels)
        assert np.array_equal(targets, f_targets)
        assert np.array_equal(values, f_values)


@settings(max_examples=12, deadline=None)
@given(graph_and_edits(max_edits=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_edit_sequence_converges_to_direct_construction(data, seed):
    """The graph after any edit sequence matches building it directly."""
    n, edges, edits = data
    index = DynamicSlingIndex.from_index(
        SlingIndex(DiGraph(n, edges), c=C, epsilon=EPSILON, seed=seed).build()
    )
    reference = set(map(tuple, DiGraph(n, edges).edges()))
    for is_add, edge in edits:
        apply_edit(index, is_add, edge)
        if is_add:
            reference.add(edge)
        else:
            reference.discard(edge)
    assert set(map(tuple, index.graph.edges())) == reference

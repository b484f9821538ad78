"""Property-based SimRank invariants enforced across every backend.

Every registered similarity backend — the SLING index and each baseline —
must present the same mathematical contract through the
:class:`~repro.engine.backends.SimilarityBackend` protocol:

* ``s(u, u) = 1`` (exactly for exact backends, within the accuracy target
  for approximate ones);
* ``0 <= s(u, v) <= 1``;
* symmetry, ``s(u, v) = s(v, u)``;
* ``single_source(u)[v]`` consistent with ``single_pair(u, v)``;
* ``top_k`` (the engine's ranking of the backend's vector) sorted by
  descending score (ties on the smaller node id), excluding the source,
  with scores consistent with single-pair values.

Graphs are drawn by hypothesis; backends are built deterministically
(fixed seed), so any failure replays exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import BackendConfig, QueryEngine, backend_names, create_backend
from repro.graphs import DiGraph

#: Exact backends answer these invariants to rounding error.
EXACT_TOLERANCE = 1e-9

#: SLING and linearize are additive-epsilon approximations (and linearize's
#: correction diagonal is itself estimated), so identity/bounds/consistency
#: hold only to accuracy-target order.  The builds below use epsilon=0.05;
#: observed worst cases are ~0.03 — 0.15 is that with a safety margin, small
#: enough that a genuinely broken backend (wrong normalisation, asymmetric
#: intersection, off-by-one level) still fails loudly.
APPROX_TOLERANCE = 0.15

#: Backends whose stored structures make these invariants exact.
EXACT_BACKENDS = ("naive", "power", "montecarlo", "montecarlo_sqrtc")

#: Backends that answer within the accuracy target only.
APPROX_BACKENDS = ("sling", "linearize")

#: All in-memory backends (sling-disk is exercised separately on a fixed
#: graph — per-example temp-dir builds would dominate the run time).
ALL_BACKENDS = EXACT_BACKENDS + APPROX_BACKENDS

CONFIG = BackendConfig(epsilon=0.05, seed=0, mc_num_walks=300)


def tolerance_for(name: str) -> float:
    return EXACT_TOLERANCE if name in EXACT_BACKENDS else APPROX_TOLERANCE


def small_graphs(max_nodes: int = 7, max_edges: int = 20):
    """Strategy producing small DiGraph instances (mirrors the suite-wide
    generator in test_simrank_properties)."""
    return (
        st.integers(min_value=2, max_value=max_nodes)
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


def build_all(graph: DiGraph):
    """One built backend per registry name, deterministic for the graph."""
    return {name: create_backend(name, graph, CONFIG) for name in ALL_BACKENDS}


def test_backend_lists_cover_registry():
    """The invariant suite must not silently skip a newly-registered backend."""
    assert set(ALL_BACKENDS) | {"sling-disk"} == set(backend_names())


@settings(max_examples=15, deadline=None)
@given(small_graphs())
def test_self_similarity_is_one(graph):
    for name, backend in build_all(graph).items():
        tolerance = tolerance_for(name)
        for node in graph.nodes():
            assert abs(backend.single_pair(node, node) - 1.0) <= tolerance, name


@settings(max_examples=15, deadline=None)
@given(small_graphs())
def test_scores_lie_in_unit_interval(graph):
    for name, backend in build_all(graph).items():
        tolerance = tolerance_for(name)
        for node in graph.nodes():
            scores = np.asarray(backend.single_source(node), dtype=np.float64)
            assert scores.min() >= -tolerance, name
            assert scores.max() <= 1.0 + tolerance, name


@settings(max_examples=15, deadline=None)
@given(small_graphs())
def test_single_pair_is_symmetric(graph):
    """Symmetry is structural (shared walks / commutative intersections), so
    it must hold to rounding error even for the approximate backends."""
    for name, backend in build_all(graph).items():
        for node_u in graph.nodes():
            for node_v in graph.nodes():
                forward = backend.single_pair(node_u, node_v)
                backward = backend.single_pair(node_v, node_u)
                assert abs(forward - backward) <= EXACT_TOLERANCE, name


@settings(max_examples=15, deadline=None)
@given(small_graphs())
def test_single_source_consistent_with_single_pair(graph):
    for name, backend in build_all(graph).items():
        tolerance = tolerance_for(name)
        for node_u in graph.nodes():
            scores = np.asarray(backend.single_source(node_u), dtype=np.float64)
            for node_v in graph.nodes():
                pair = backend.single_pair(node_u, node_v)
                assert abs(scores[node_v] - pair) <= tolerance, name


@settings(max_examples=15, deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=10))
def test_top_k_is_sorted_and_consistent(graph, k):
    for name, backend in build_all(graph).items():
        tolerance = tolerance_for(name)
        engine = QueryEngine(backend, cache_size=0)
        for node in graph.nodes():
            ranked = engine.top_k(node, k)
            assert len(ranked) == min(k, graph.num_nodes - 1), name
            assert all(other != node for other, _ in ranked), name
            assert len({other for other, _ in ranked}) == len(ranked), name
            # Sorted: descending score, ties broken on the smaller node id.
            for (node_a, score_a), (node_b, score_b) in zip(ranked, ranked[1:]):
                assert (-score_a, node_a) <= (-score_b, node_b), name
            # Ranked scores agree with the single-pair answers, and the
            # ranking is genuinely top-k: nothing outside beats the tail.
            for other, score in ranked:
                assert abs(score - backend.single_pair(node, other)) <= tolerance, name
            if ranked:
                scores = np.asarray(backend.single_source(node), dtype=np.float64)
                tail = ranked[-1][1]
                outside = [
                    float(scores[other])
                    for other in graph.nodes()
                    if other != node and other not in {o for o, _ in ranked}
                ]
                if outside:
                    assert max(outside) <= tail + EXACT_TOLERANCE, name

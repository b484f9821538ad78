"""Cache-behaviour tests for :class:`QueryEngine`.

A counting stub backend makes backend-call amortization observable: the
cache guarantees are asserted as exact hit/miss/eviction and call counts,
not timings.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import (
    PAIR_AMORTIZE_THRESHOLD,
    BackendConfig,
    BackendInfo,
    QueryEngine,
    SimilarityBackend,
    create_engine,
)
from repro.exceptions import ParameterError
from repro.graphs import generators


class CountingBackend(SimilarityBackend):
    """Deterministic stub: s(u, v) = 1/(1+|u-v|), with call counters.

    Deliberately NOT registered — it exists only to observe how often the
    engine reaches the backend.
    """

    info = BackendInfo(name="counting", exact=True, build_cost="none")

    def __init__(self, graph, config=None):
        super().__init__(graph, config)
        self.pair_calls = 0
        self.source_calls = 0

    def build(self):
        self._built = True
        return self

    def single_pair(self, node_u, node_v):
        self.pair_calls += 1
        return 1.0 / (1.0 + abs(int(node_u) - int(node_v)))

    def single_source(self, node):
        self.source_calls += 1
        n = self._graph.num_nodes
        return np.array(
            [1.0 / (1.0 + abs(int(node) - other)) for other in range(n)]
        )

    def index_size_bytes(self):
        return 8


@pytest.fixture()
def graph():
    return generators.cycle(12)


@pytest.fixture()
def engine(graph):
    return QueryEngine(CountingBackend(graph), cache_size=4)


class TestCacheBehaviour:
    def test_single_source_miss_then_hit(self, engine):
        first = engine.single_source(3)
        second = engine.single_source(3)
        np.testing.assert_allclose(first, second)
        assert engine.backend.source_calls == 1
        assert engine.statistics.cache_misses == 1
        assert engine.statistics.cache_hits == 1
        assert engine.statistics.cache_hit_rate == 0.5

    def test_results_are_caller_owned_copies(self, engine):
        first = engine.single_source(3)
        first[:] = -1.0
        second = engine.single_source(3)
        assert float(second[3]) == 1.0

    def test_eviction_is_lru(self, engine):
        for node in (0, 1, 2, 3):
            engine.single_source(node)
        engine.single_source(0)  # refresh node 0
        engine.single_source(4)  # evicts node 1, the least recently used
        assert engine.statistics.cache_evictions == 1
        assert engine.cached_nodes() == [2, 3, 0, 4]
        engine.single_source(1)  # gone: must recompute
        assert engine.backend.source_calls == 6

    def test_top_k_routes_through_cache(self, engine):
        engine.single_source(5)
        ranked = engine.top_k(5, 3)
        assert engine.backend.source_calls == 1
        assert len(ranked) == 3
        assert 5 not in {node for node, _ in ranked}
        # Nearest neighbours of 5 under the stub metric, id tie-break.
        assert [node for node, _ in ranked] == [4, 6, 3]

    def test_top_k_rejects_bad_k(self, engine):
        with pytest.raises(ParameterError):
            engine.top_k(1, 0)

    def test_single_pair_served_from_cached_vector(self, engine):
        engine.single_source(2)
        score = engine.single_pair(2, 7)
        assert score == pytest.approx(1.0 / 6.0)
        assert engine.backend.pair_calls == 0
        score = engine.single_pair(7, 2)  # symmetric lookup also hits
        assert engine.backend.pair_calls == 0
        assert engine.statistics.cache_hits == 2

    def test_clear_cache(self, engine):
        engine.single_source(1)
        engine.clear_cache()
        engine.single_source(1)
        assert engine.backend.source_calls == 2

    def test_zero_cache_disables_caching(self, graph):
        engine = QueryEngine(CountingBackend(graph), cache_size=0)
        engine.single_source(1)
        engine.single_source(1)
        assert engine.backend.source_calls == 2
        assert engine.statistics.cache_hits == 0

    def test_negative_cache_size_rejected(self, graph):
        with pytest.raises(ParameterError):
            QueryEngine(CountingBackend(graph), cache_size=-1)


class TestRepeatedQueries:
    """Every request takes the single-query path; the only sharing between
    repeated requests is the source-vector cache (and pair admission)."""

    def test_repeated_sources_compute_each_distinct_source_once(self, engine):
        results = [engine.single_source(node) for node in (0, 1, 0, 1, 0)]
        assert len(results) == 5
        assert engine.backend.source_calls == 2
        assert engine.statistics.cache_hits == 3
        assert engine.statistics.cache_misses == 2
        np.testing.assert_array_equal(results[0], results[2])

    def test_repeated_sources_recompute_without_cache(self, graph):
        engine = QueryEngine(CountingBackend(graph), cache_size=0)
        results = [engine.single_source(4) for _ in range(3)]
        assert engine.backend.source_calls == 3
        assert all(np.array_equal(results[0], other) for other in results[1:])

    def test_hot_pair_source_is_computed_once(self, engine):
        pairs = [(0, v) for v in range(1, PAIR_AMORTIZE_THRESHOLD + 3)]
        scores = [engine.single_pair(u, v) for u, v in pairs]
        assert scores == [1.0 / (1.0 + v) for _, v in pairs]
        # Probes below the threshold go pairwise; the crossing probe admits
        # the source's vector and every later pair reads it.
        assert engine.backend.source_calls == 1
        assert engine.backend.pair_calls == PAIR_AMORTIZE_THRESHOLD - 1
        assert engine.cached_nodes() == [0]

    def test_cold_pair_sources_stay_pairwise(self, engine):
        scores = [engine.single_pair(u, v) for u, v in ((0, 1), (2, 3), (4, 5))]
        assert engine.backend.pair_calls == 3
        assert engine.backend.source_calls == 0
        assert scores == [0.5, 0.5, 0.5]

    def test_pair_scores_agree_with_source_vectors(self, engine, graph):
        n = graph.num_nodes
        for u in range(n):
            row = engine.single_source(u)
            for v in range(n):
                assert engine.single_pair(u, v) == row[v]

    def test_repeated_top_k_shares_cached_vectors(self, engine):
        for node in (1, 2, 1, 2):
            engine.top_k(node, 3)
        assert engine.backend.source_calls == 2
        assert engine.statistics.top_k_queries == 4
        assert engine.statistics.cache_hits == 2

    def test_repeated_top_k_recomputes_without_cache(self, graph):
        engine = QueryEngine(CountingBackend(graph), cache_size=0)
        results = [engine.top_k(4, 3) for _ in range(3)]
        assert engine.backend.source_calls == 3
        assert results[0] == results[1] == results[2]

    def test_warm_top_k_matches_a_cold_engine(self, engine, graph):
        for node in (3, 7):
            engine.single_source(node)
        warm = [engine.top_k(node, 4) for node in (3, 7)]
        fresh = QueryEngine(CountingBackend(graph), cache_size=4)
        assert warm == [fresh.top_k(3, 4), fresh.top_k(7, 4)]

    def test_top_k_is_clamped_to_the_other_nodes(self, engine, graph):
        ranked = engine.top_k(0, 10 * graph.num_nodes)
        assert len(ranked) == graph.num_nodes - 1
        assert 0 not in {node for node, _ in ranked}

    def test_pair_reaches_the_backend_in_canonical_order(self, graph):
        seen = []

        class RecordingBackend(CountingBackend):
            def single_pair(self, node_u, node_v):
                seen.append((node_u, node_v))
                return super().single_pair(node_u, node_v)

        engine = QueryEngine(
            RecordingBackend(graph), cache_size=4, pair_admission_threshold=None
        )
        engine.single_pair(9, 3)
        engine.single_pair(3, 9)
        assert seen == [(3, 9), (3, 9)]

    def test_sling_pairs_are_bitwise_symmetric_in_every_cache_state(self):
        graph = generators.two_level_community(2, 6, seed=5)
        engine = create_engine(
            graph, backend="sling", config=BackendConfig(epsilon=0.1, seed=0),
            cache_size=8, pair_admission_threshold=None,
        )
        pairs = [(1, 7), (2, 4), (0, 11)]
        cold = [(engine.single_pair(u, v), engine.single_pair(v, u)) for u, v in pairs]
        for u, _ in pairs:
            engine.single_source(u)  # cache every canonical source
        warm = [(engine.single_pair(u, v), engine.single_pair(v, u)) for u, v in pairs]
        assert all(forward == backward for forward, backward in cold + warm)
        assert engine.statistics.pair_probe_hits == 2 * len(pairs)

    def test_warm_mixed_traffic_is_fully_cache_resident(self, engine):
        for node in range(4):  # the cache holds exactly these four
            engine.single_source(node)
        engine.reset_statistics()
        calls = (engine.backend.source_calls, engine.backend.pair_calls)
        for step in range(24):
            node = step % 4
            engine.single_source(node)
            engine.top_k(node, 3)
            engine.single_pair(node, node + 5)
        stats = engine.statistics
        assert stats.cache_hit_rate == 1.0
        assert stats.cache_misses == 0
        assert (engine.backend.source_calls, engine.backend.pair_calls) == calls


class TestStatistics:
    def test_counters_by_kind(self, engine):
        engine.single_pair(0, 1)
        engine.single_source(0)
        engine.top_k(0, 2)
        stats = engine.statistics
        assert stats.single_pair_queries == 1
        assert stats.single_source_queries == 1
        assert stats.top_k_queries == 1
        assert stats.total_queries == 3
        assert stats.total_seconds > 0.0
        assert stats.backend == "counting"

    def test_as_dict_is_json_serialisable(self, engine):
        engine.single_source(0)
        payload = json.loads(json.dumps(engine.statistics.as_dict()))
        assert payload["total_queries"] == 1
        assert payload["backend"] == "counting"
        assert 0.0 <= payload["cache_hit_rate"] <= 1.0

    def test_as_dict_exposes_recent_queries(self, engine):
        engine.single_source(0)
        engine.single_source(0)
        payload = json.loads(json.dumps(engine.statistics.as_dict()))
        records = payload["recent_queries"]
        assert [record["cache_hit"] for record in records] == [False, True]
        assert all(record["kind"] == "single_source" for record in records)
        assert all(record["seconds"] >= 0.0 for record in records)

    def test_as_dict_recent_queries_stay_bounded(self, engine):
        from repro.engine.engine import MAX_QUERY_RECORDS

        for _ in range(MAX_QUERY_RECORDS + 10):
            engine.single_pair(0, 1)
        payload = engine.statistics.as_dict()
        assert len(payload["recent_queries"]) == MAX_QUERY_RECORDS

    def test_recent_queries_record_latency_and_provenance(self, engine):
        engine.single_source(0)
        engine.single_source(0)
        records = engine.statistics.recent_queries
        assert [r.cache_hit for r in records] == [False, True]
        assert all(r.backend == "counting" for r in records)
        assert all(r.seconds >= 0.0 for r in records)

    def test_reset_statistics_keeps_cache(self, engine):
        engine.single_source(0)
        engine.reset_statistics()
        assert engine.statistics.total_queries == 0
        engine.single_source(0)
        assert engine.backend.source_calls == 1  # still cached

    def test_summary_mentions_backend_and_hit_rate(self, engine):
        engine.single_source(0)
        summary = engine.statistics.summary()
        assert "counting" in summary
        assert "cache hit rate" in summary


class TestEngineBuildsBackendIfNeeded:
    def test_unbuilt_backend_is_built_on_construction(self, graph):
        backend = CountingBackend(graph)
        assert not backend.is_built
        engine = QueryEngine(backend)
        assert engine.backend.is_built


class TestCreateEngine:
    def test_engine_answers_queries(self):
        graph = generators.two_level_community(2, 10, seed=5)
        engine = create_engine(
            graph, config=BackendConfig(epsilon=0.1, seed=0), cache_size=8
        )
        assert engine.backend.name == "sling"
        assert 0.0 <= engine.single_pair(0, 1) <= 1.0
        assert engine.backend.is_built
        assert "plan" not in engine.describe()

    def test_engine_respects_explicit_backend(self, graph):
        engine = create_engine(
            graph, backend="power", config=BackendConfig(epsilon=0.1)
        )
        assert engine.backend.name == "power"

    @pytest.mark.parametrize("label", ["auto", "SLING", "sling"])
    def test_auto_is_an_alias_of_sling(self, graph, label):
        engine = create_engine(
            graph, backend=label, config=BackendConfig(epsilon=0.1)
        )
        assert engine.backend.name == "sling"

    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(ParameterError):
            create_engine(graph, backend="FooBar")

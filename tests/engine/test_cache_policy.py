"""Cache-policy regression tests: pair-probe accounting, cross-kind
admission, no time-based expiry, and the per-kind / per-outcome
statistics surface.

These pin the fixes from the cache-accounting PR: ``single_pair`` used to
count a ``cache_miss`` on every uncached pair while never admitting
anything, permanently deflating ``cache_hit_rate`` on pair-heavy traffic.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import (
    ENGINE_TOTAL_COUNTERS,
    PAIR_AMORTIZE_THRESHOLD,
    QueryEngine,
    merge_statistics_totals,
)
from repro.exceptions import ParameterError
from repro.graphs import generators

from test_engine import CountingBackend


@pytest.fixture()
def graph():
    return generators.cycle(12)


@pytest.fixture()
def engine(graph):
    return QueryEngine(CountingBackend(graph), cache_size=4)


class TestPairProbeAccounting:
    def test_uncached_pairs_do_not_deflate_hit_rate(self, engine):
        """The regression: distinct cold pairs must not count cache misses."""
        engine.single_pair(0, 5)
        engine.single_pair(1, 6)
        engine.single_pair(2, 7)
        stats = engine.statistics
        assert stats.cache_misses == 0
        assert stats.cache_hits == 0
        assert stats.pair_probe_misses == 3
        assert stats.pair_probe_hits == 0
        # Cacheable work now defines the rate; pair read-throughs don't.
        assert stats.cache_hit_rate == 0.0
        engine.single_source(3)
        engine.single_source(3)
        assert engine.statistics.cache_hit_rate == 0.5

    def test_probe_hits_count_as_cache_hits(self, engine):
        engine.single_source(4)
        engine.single_pair(4, 9)
        stats = engine.statistics
        assert stats.pair_probe_hits == 1
        assert stats.cache_hits == 1
        assert engine.backend.pair_calls == 0

    def test_zero_cache_has_no_probe_accounting(self, graph):
        engine = QueryEngine(CountingBackend(graph), cache_size=0)
        for _ in range(PAIR_AMORTIZE_THRESHOLD + 2):
            engine.single_pair(0, 5)
        stats = engine.statistics
        assert stats.pair_probe_hits == 0
        assert stats.pair_probe_misses == 0
        assert stats.cache_misses == 0
        assert stats.pair_admissions == 0
        assert engine.backend.source_calls == 0


class TestCrossKindAdmission:
    def test_hot_pair_source_admitted_at_threshold(self, engine):
        for _ in range(PAIR_AMORTIZE_THRESHOLD - 1):
            engine.single_pair(2, 8)
        assert engine.backend.source_calls == 0
        assert engine.cached_nodes() == []
        value = engine.single_pair(2, 8)  # crosses the threshold
        stats = engine.statistics
        assert engine.backend.source_calls == 1
        assert engine.cached_nodes() == [2]
        assert stats.pair_admissions == 1
        assert stats.cache_admissions == 1
        # The admission-crossing probe is a true miss: the cache did work.
        assert stats.cache_misses == 1
        assert stats.pair_probe_misses == PAIR_AMORTIZE_THRESHOLD
        # The pair is answered from the newly admitted vector.
        assert value == engine.single_source(2)[8]

    def test_admission_counts_canonical_source(self, engine):
        """(u, v) and (v, u) build pressure on the same canonical source."""
        engine.single_pair(3, 9)
        engine.single_pair(9, 3)
        engine.single_pair(3, 9)
        engine.single_pair(9, 3)
        assert engine.statistics.pair_admissions == 1
        assert engine.cached_nodes() == [3]

    def test_after_admission_pairs_hit_the_cache(self, engine):
        for _ in range(PAIR_AMORTIZE_THRESHOLD):
            engine.single_pair(1, 7)
        before = engine.backend.source_calls
        engine.single_pair(1, 6)
        engine.top_k(1, 3)
        assert engine.backend.source_calls == before
        assert engine.statistics.pair_probe_hits == 1

    def test_threshold_none_disables_admission(self, graph):
        engine = QueryEngine(
            CountingBackend(graph), cache_size=4, pair_admission_threshold=None
        )
        for _ in range(PAIR_AMORTIZE_THRESHOLD * 3):
            engine.single_pair(0, 6)
        stats = engine.statistics
        assert stats.pair_admissions == 0
        assert stats.cache_misses == 0
        assert engine.backend.source_calls == 0
        assert engine.cached_nodes() == []

    def test_probes_below_threshold_admit_nothing(self, engine):
        for _ in range(PAIR_AMORTIZE_THRESHOLD - 1):
            engine.single_pair(5, 11)
        stats = engine.statistics
        assert stats.pair_admissions == 0
        assert stats.pair_probe_misses == PAIR_AMORTIZE_THRESHOLD - 1
        assert engine.backend.pair_calls == PAIR_AMORTIZE_THRESHOLD - 1
        assert engine.cached_nodes() == []

    def test_threshold_one_admits_on_first_probe(self, graph):
        engine = QueryEngine(
            CountingBackend(graph), cache_size=4, pair_admission_threshold=1
        )
        engine.single_pair(6, 2)
        assert engine.cached_nodes() == [2]
        assert engine.backend.pair_calls == 0
        assert engine.statistics.pair_admissions == 1

    def test_invalid_threshold_rejected(self, graph):
        with pytest.raises(ParameterError):
            QueryEngine(
                CountingBackend(graph), cache_size=4, pair_admission_threshold=0
            )


class TestNoTimeExpiry:
    def test_idle_entries_stay_cached(self, engine):
        """Entries leave the cache only by LRU eviction or an index-version
        change, never by age."""
        engine.single_source(1)
        time.sleep(0.02)
        engine.single_source(1)
        assert engine.statistics.cache_hits == 1
        assert engine.backend.source_calls == 1


class TestStatisticsSurface:
    def test_per_kind_hit_rates(self, engine):
        engine.single_source(0)   # miss
        engine.single_source(0)   # hit
        engine.top_k(0, 3)        # hit
        engine.top_k(5, 3)        # miss
        engine.single_pair(0, 7)  # probe hit
        payload = engine.statistics_snapshot().as_dict()
        assert payload["hits_by_kind"] == {"single_pair": 1,
                                           "single_source": 1, "top_k": 1}
        assert payload["misses_by_kind"] == {"single_source": 1, "top_k": 1}
        rates = payload["hit_rate_by_kind"]
        assert rates["single_source"] == 0.5
        assert rates["top_k"] == 0.5
        assert rates["single_pair"] == 1.0

    def test_latency_percentiles_by_outcome(self, engine):
        engine.single_source(0)
        engine.single_source(0)
        payload = engine.statistics_snapshot().as_dict()
        by_outcome = payload["latency_percentiles_by_outcome"]
        assert by_outcome["hit"]["count"] == 1
        assert by_outcome["miss"]["count"] == 1
        assert by_outcome["hit"]["p50"] <= by_outcome["miss"]["p50"]

    def test_describe_exposes_policy_knobs(self, graph):
        engine = QueryEngine(
            CountingBackend(graph),
            cache_size=4,
            pair_admission_threshold=7,
        )
        described = engine.describe()
        assert described["pair_admission_threshold"] == 7

    def test_merge_totals_identity_and_sum(self, engine, graph):
        other = QueryEngine(CountingBackend(graph), cache_size=4)
        engine.single_source(0)
        engine.single_pair(0, 5)
        other.top_k(1, 3)
        a = engine.statistics_snapshot().as_dict()
        b = other.statistics_snapshot().as_dict()
        merged = merge_statistics_totals([a, b])
        for counter in ENGINE_TOTAL_COUNTERS:
            assert merged[counter] == a[counter] + b[counter], counter
        assert merged["latency_histogram"] == {
            **a["latency_histogram"], **b["latency_histogram"]
        }  # disjoint kinds: the merge is the union
        # Merging one engine's stats reproduces its own counters and
        # latency view exactly.
        alone = merge_statistics_totals([a])
        for counter in ENGINE_TOTAL_COUNTERS:
            assert alone[counter] == a[counter]
        for key in (
            "latency_histogram",
            "latency_percentiles",
            "latency_percentiles_by_outcome",
        ):
            assert alone[key] == a[key]

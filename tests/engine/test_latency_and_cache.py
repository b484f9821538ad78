"""Latency percentiles and runtime cache resizing on the query engine."""

from __future__ import annotations

import pytest

from repro.engine import (
    LATENCY_BUCKET_EDGES,
    create_engine,
    histogram_quantiles,
    latency_bucket,
    latency_quantiles,
)
from repro.exceptions import ParameterError
from repro.graphs.datasets import load_dataset


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GrQc", scale=0.05, seed=0)


class TestLatencyQuantiles:
    def test_nearest_rank_on_known_sample(self):
        # Nearest-rank: ceil(q*n)-th order statistic — every reported value
        # actually occurred.
        sample = [float(v) for v in range(1, 101)]  # 1..100
        out = latency_quantiles(sample)
        assert out == {"count": 100, "p50": 50.0, "p95": 95.0, "p99": 99.0}

    def test_tiny_samples_use_real_order_statistics(self):
        assert latency_quantiles([0.25]) == {
            "count": 1, "p50": 0.25, "p95": 0.25, "p99": 0.25
        }
        out = latency_quantiles([0.2, 0.1])
        assert out["count"] == 2 and out["p50"] == 0.1 and out["p99"] == 0.2

    def test_empty_sample_reports_count_only(self):
        assert latency_quantiles([]) == {"count": 0}

    def test_histogram_quantiles_report_bucket_upper_edges(self):
        counts = [0] * len(LATENCY_BUCKET_EDGES)
        for seconds in (0.1, 0.2, 0.3):
            counts[latency_bucket(seconds)] += 1
        out = histogram_quantiles(counts)
        assert out["count"] == 3
        assert out["p50"] == LATENCY_BUCKET_EDGES[latency_bucket(0.2)]
        assert 0.2 <= out["p50"] <= 0.2 * 2 ** (1 / 8)
        assert out["p99"] == LATENCY_BUCKET_EDGES[latency_bucket(0.3)]

    def test_empty_histogram_reports_count_only(self):
        assert histogram_quantiles([0] * len(LATENCY_BUCKET_EDGES)) == {
            "count": 0
        }

    def test_engine_statistics_expose_percentiles_by_kind(self, graph):
        engine = create_engine(graph, backend="montecarlo", cache_size=8)
        engine.single_pair(0, 1)
        engine.single_pair(1, 2)
        engine.top_k(0, 3)
        stats = engine.statistics.as_dict()
        percentiles = stats["latency_percentiles"]
        assert list(percentiles) == ["single_pair", "top_k"]
        assert percentiles["single_pair"]["count"] == 2
        assert percentiles["top_k"]["count"] == 1
        assert percentiles["top_k"]["p99"] > 0.0


class TestResizeCache:
    def test_shrinking_evicts_oldest_and_counts_evictions(self, graph):
        engine = create_engine(graph, backend="montecarlo", cache_size=8)
        for node in range(6):
            engine.single_source(node)
        before = engine.statistics.cache_evictions
        engine.resize_cache(2)
        assert engine.statistics.cache_evictions == before + 4
        # The two most recent sources survive.
        engine.single_source(5)
        assert engine.statistics.cache_hits >= 1

    def test_growing_keeps_entries(self, graph):
        engine = create_engine(graph, backend="montecarlo", cache_size=2)
        engine.single_source(0)
        engine.resize_cache(16)
        hits = engine.statistics.cache_hits
        engine.single_source(0)
        assert engine.statistics.cache_hits == hits + 1

    def test_zero_disables_and_negative_rejects(self, graph):
        engine = create_engine(graph, backend="montecarlo", cache_size=4)
        engine.single_source(0)
        engine.resize_cache(0)
        hits = engine.statistics.cache_hits
        engine.single_source(0)
        assert engine.statistics.cache_hits == hits  # nothing cached now
        with pytest.raises(ParameterError):
            engine.resize_cache(-1)

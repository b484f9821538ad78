"""Hit-rate consistency under the realistic-traffic harness.

The property pinned here: the engine, a single service, and a sharded
pool must all agree on what a hit rate *is*.  There is exactly one
definition — :func:`repro.engine.merge_statistics_totals`, called by both
``SimRankService.statistics`` and the router's stats fan-out merge — so
driving the same generated traffic through a 1-worker and a 4-worker
executor must yield identical query values, and every layer's totals
must reduce to ``cache_hits / (cache_hits + cache_misses)`` over the
same per-engine counters.  The real sharded pool is exercised in
``test_router.py``; the partitioned merge here replays its exact merge
path without spawning worker processes.
"""

from __future__ import annotations

import pytest

from repro.engine import ENGINE_TOTAL_COUNTERS, merge_statistics_totals
from repro.evaluation.traffic import (
    TrafficPattern,
    generate_traffic,
    replay_events,
)
from repro.graphs import generators
from repro.service import ParallelExecutor, ServiceConfig, SimRankService
from repro.service.wire import decode_envelope

#: Two generated datasets so the partitioned merge has shards to split.
GRAPHS = {
    "alpha": generators.two_level_community(3, 8, seed=0),
    "beta": generators.cycle(20),
}

#: A hot-pair pattern: pairs probe the cached region, so every layer's
#: pair/probe counters are exercised, not just vector hits.
PATTERN = TrafficPattern(
    num_queries=240,
    seed=13,
    hot_set_size=6,
    drift_every=80,
    burst_every=60,
    burst_length=12,
    pair_mode="hot",
)


def make_service() -> SimRankService:
    # The power backend is deterministic, so identical traffic must give
    # bitwise-identical values regardless of executor concurrency.
    service = SimRankService(ServiceConfig(backend="power", cache_size=8))
    for name, graph in GRAPHS.items():
        service.open_dataset(name, graph=graph)
    return service


def traffic_events():
    return generate_traffic(
        {name: graph.num_nodes for name, graph in GRAPHS.items()}, PATTERN
    )


def run_traffic(executor: ParallelExecutor) -> list:
    """Submit the generated traffic as decoded wire lines and collect the
    results in submission order."""
    futures = [
        executor.submit(decode_envelope(event.to_wire()))
        for event in traffic_events()
    ]
    return [future.result() for future in futures]


def engine_dicts(payload: dict) -> list[dict]:
    return [
        engine_stats
        for detail in payload["datasets"].values()
        for engine_stats in detail["engines"].values()
    ]


class TestWorkersOneVersusFour:
    def test_identical_values_and_envelopes(self):
        outputs = {}
        for workers in (1, 4):
            service = make_service()
            with ParallelExecutor(service, workers=workers) as executor:
                results = run_traffic(executor)
            assert all(result.ok for result in results)
            outputs[workers] = [
                (result.kind, result.dataset, result.value)
                for result in results
            ]
        assert outputs[1] == outputs[4]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_totals_are_the_shared_merge_of_the_engines(self, workers):
        service = make_service()
        with ParallelExecutor(service, workers=workers) as executor:
            run_traffic(executor)
        payload = service.statistics()
        merged = merge_statistics_totals(engine_dicts(payload))
        totals = payload["totals"]
        for counter in ENGINE_TOTAL_COUNTERS:
            assert totals[counter] == merged[counter], counter
        assert totals["cache_hit_rate"] == merged["cache_hit_rate"]
        lookups = totals["cache_hits"] + totals["cache_misses"]
        assert lookups > 0  # the pattern actually exercised the cache
        assert totals["cache_hit_rate"] == totals["cache_hits"] / lookups
        assert totals["hit_rate_by_kind"] == merged["hit_rate_by_kind"]
        assert totals["latency_histogram"] == merged["latency_histogram"]


class TestPartitionedMerge:
    def test_sharded_merge_agrees_with_the_single_service(self):
        """Partitioning engines across shards (the router's fan-out shape)
        and merging the shard totals must reproduce the flat merge."""
        service = make_service()
        replay_events(service, traffic_events())
        dicts = engine_dicts(service.statistics())
        assert len(dicts) >= 2
        flat = merge_statistics_totals(dicts)
        shards = [
            merge_statistics_totals(dicts[: len(dicts) // 2]),
            merge_statistics_totals(dicts[len(dicts) // 2:]),
        ]
        combined = merge_statistics_totals(shards)
        for counter in ENGINE_TOTAL_COUNTERS:
            assert combined[counter] == flat[counter], counter
        assert combined["cache_hit_rate"] == flat["cache_hit_rate"]
        assert combined["hits_by_kind"] == flat["hits_by_kind"]
        assert combined["misses_by_kind"] == flat["misses_by_kind"]
        assert combined["hit_rate_by_kind"] == flat["hit_rate_by_kind"]
        assert combined["total_seconds"] == pytest.approx(flat["total_seconds"])
        # Histograms merge exactly, so the sharded latency view is the flat one.
        for key in (
            "latency_histogram",
            "latency_percentiles",
            "latency_percentiles_by_outcome",
        ):
            assert combined[key] == flat[key], key

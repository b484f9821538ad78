"""The :class:`ParallelExecutor` contract and the service-level stress tests.

Covers the three guarantees the executor makes — deterministic ordered
output, per-request error envelopes that never kill the pool, and values
identical to the sequential path for any worker count — plus the
service-layer concurrency stress test (8 threads on one session) and the
Monte-Carlo determinism requirement (same seed ⇒ identical results across
runs and across worker counts).
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.service import (
    ParallelExecutor,
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)

DATASET = "grid"


def make_service(backend: str = "power", **overrides) -> SimRankService:
    config = ServiceConfig(
        backend=backend,
        cache_size=overrides.pop("cache_size", 64),
        **overrides,
    )
    service = SimRankService(config)
    graph = generators.two_level_community(3, 11, seed=13)
    service.open_dataset(DATASET, graph=graph)
    return service


def mixed_queries(n: int, count: int = 60) -> list:
    queries = []
    for i in range(count):
        node = i % n
        if i % 3 == 0:
            queries.append(TopKQuery(DATASET, node=node, k=5))
        elif i % 3 == 1:
            queries.append(SinglePairQuery(DATASET, node_u=node, node_v=(node + 2) % n))
        else:
            queries.append(SingleSourceQuery(DATASET, node=node))
    return queries


def essence(result) -> tuple:
    """The deterministic part of an envelope (latency and cache-hit flags
    legitimately vary between runs and worker counts)."""
    error = (result.error.code, result.error.message) if result.error else None
    return (result.ok, result.kind, result.dataset, result.backend, result.value, error)


class TestOrderedOutput:
    def test_results_align_with_requests_for_any_worker_count(self):
        service = make_service()
        n = service.open_dataset(DATASET).num_nodes
        queries = mixed_queries(n)
        sequential = [essence(service.execute(query)) for query in queries]
        for workers in (1, 2, 4, 8):
            with ParallelExecutor(service, workers=workers) as executor:
                results = executor.run(queries)
            assert [essence(result) for result in results] == sequential, workers

    def test_empty_batch(self):
        service = make_service()
        with ParallelExecutor(service, workers=4) as executor:
            assert executor.run([]) == []

    def test_wire_payloads_and_typed_queries_mix(self):
        service = make_service()
        requests = [
            TopKQuery(DATASET, node=1, k=3),
            {"kind": "single_pair", "dataset": DATASET, "node_u": 0, "node_v": 2},
        ]
        with ParallelExecutor(service, workers=2) as executor:
            results = executor.run(requests)
        assert [result.ok for result in results] == [True, True]
        assert results[0].kind == "top_k"
        assert results[1].kind == "single_pair"


class TestErrorIsolation:
    def test_failures_stay_in_their_slots(self):
        service = make_service()
        n = service.open_dataset(DATASET).num_nodes
        requests = [
            TopKQuery(DATASET, node=0, k=3),
            {"kind": "unknown_kind"},
            TopKQuery(DATASET, node=10 * n, k=3),
            {"kind": "top_k", "dataset": "no-such-dataset", "node": 0, "k": 3},
            "not even a dict",
            TopKQuery(DATASET, node=1, k=3),
        ]
        with ParallelExecutor(service, workers=3) as executor:
            results = executor.run(requests)
        codes = [result.error.code if result.error else None for result in results]
        assert codes == [
            None,
            "bad_request",
            "node_out_of_range",
            "unknown_dataset",
            "bad_request",
            None,
        ]
        assert results[0].ok and results[5].ok

    def test_closed_executor_rejects_work(self):
        service = make_service()
        executor = ParallelExecutor(service, workers=2)
        executor.close()
        with pytest.raises(ParameterError):
            executor.submit(TopKQuery(DATASET, node=0, k=3))
        with pytest.raises(ParameterError):
            executor.run([TopKQuery(DATASET, node=0, k=3)])
        # The inline path (workers=1 / single chunk) must honour the same
        # contract instead of quietly executing on a closed executor.
        single = ParallelExecutor(service, workers=1)
        single.close()
        with pytest.raises(ParameterError):
            single.run([TopKQuery(DATASET, node=0, k=3)])


class TestDeduplication:
    def test_duplicate_queries_share_one_answer(self):
        service = make_service()
        queries = [TopKQuery(DATASET, node=3, k=4) for _ in range(32)]
        with ParallelExecutor(service, workers=1) as executor:
            results = executor.run(queries)
        # One worker means one batch-wide chunk, so every duplicate shares
        # the single envelope object; with more workers sharing is per chunk.
        assert len({id(result) for result in results}) == 1
        assert len({tuple((e["node"], e["rank"]) for e in r.value) for r in results}) == 1

    def test_wire_payload_duplicates_share_one_answer_too(self):
        """Regression: dedupe must apply on the JSONL path (the only path
        the CLI uses), not just to typed Query objects."""
        service = make_service()
        payloads = [
            {"kind": "top_k", "dataset": DATASET, "node": 3, "k": 4}
            for _ in range(32)
        ]
        with ParallelExecutor(service, workers=1) as executor:
            results = executor.run(payloads)
        assert len({id(result) for result in results}) < len(results)
        assert all(result.ok for result in results)

    def test_dedupe_does_not_leak_across_backends(self):
        service = make_service()
        queries = [SinglePairQuery(DATASET, node_u=0, node_v=2)] * 4
        with ParallelExecutor(service, workers=1) as executor:
            auto = executor.run(queries)
        with ParallelExecutor(service, workers=1, backend="naive") as executor:
            pinned = executor.run(queries)
        assert {result.backend for result in auto} == {"power"}
        assert {result.backend for result in pinned} == {"naive"}


class TestStreaming:
    def test_submit_preserves_caller_order(self):
        service = make_service()
        n = service.open_dataset(DATASET).num_nodes
        queries = mixed_queries(n, count=40)
        sequential = [essence(service.execute(query)) for query in queries]
        with ParallelExecutor(service, workers=4) as executor:
            futures = [executor.submit(query) for query in queries]
            results = [future.result() for future in futures]
        assert [essence(result) for result in results] == sequential


class TestServiceStress:
    """Satellite: hammer one service session from 8 threads, 50 iterations."""

    NUM_THREADS = 8
    ITERATIONS = 50

    def test_eight_threads_match_sequential_with_consistent_counters(self):
        service = make_service(cache_size=128)
        session = service.open_dataset(DATASET)
        n = session.num_nodes
        queries = mixed_queries(n, count=33)
        expected = [essence(service.execute(query)) for query in queries]
        engine = session.engine()
        for node in range(n):  # fully warm so counter arithmetic is exact
            engine.single_source(node)
        engine.reset_statistics()

        for iteration in range(self.ITERATIONS):
            observed: list[list] = [None] * self.NUM_THREADS
            barrier = threading.Barrier(self.NUM_THREADS)

            def worker(slot: int) -> None:
                barrier.wait()
                observed[slot] = [essence(service.execute(q)) for q in queries]

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(self.NUM_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for slot in range(self.NUM_THREADS):
                assert observed[slot] == expected, f"iteration {iteration}"
            stats = engine.statistics_snapshot()
            total = (iteration + 1) * self.NUM_THREADS * len(queries)
            assert stats.total_queries == total, f"iteration {iteration}"
            # Warm cache, capacity > n: every query is exactly one lookup
            # and every lookup hits; a single lost update breaks this.
            assert stats.cache_hits == total, f"iteration {iteration}"
            assert stats.cache_misses == 0
            assert stats.cache_evictions == 0

    def test_concurrent_first_touch_builds_one_engine(self):
        """Concurrent first queries on a fresh session must race into one
        engine build, not several."""
        for _ in range(5):
            service = make_service()
            session = service.open_dataset(DATASET)
            barrier = threading.Barrier(self.NUM_THREADS)
            engines = [None] * self.NUM_THREADS

            def worker(slot: int) -> None:
                barrier.wait()
                engines[slot] = session.engine()

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(self.NUM_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(engine) for engine in engines}) == 1
            assert session.backends() == ["power"]


class TestMonteCarloDeterminism:
    """Satellite: same seed ⇒ identical Monte-Carlo results across runs and
    across worker counts."""

    BACKENDS = ("montecarlo", "montecarlo_sqrtc")

    def run_workload(self, backend: str, workers: int) -> list:
        service = make_service(backend=backend, seed=7)
        n = service.open_dataset(DATASET).num_nodes
        queries = mixed_queries(n, count=45)
        with ParallelExecutor(service, workers=workers) as executor:
            return [essence(result) for result in executor.run(queries)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_seed_same_results_across_runs(self, backend):
        assert self.run_workload(backend, workers=1) == self.run_workload(
            backend, workers=1
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_seed_same_results_across_worker_counts(self, backend):
        assert self.run_workload(backend, workers=1) == self.run_workload(
            backend, workers=4
        )

    def test_sling_is_deterministic_across_worker_counts_too(self):
        assert self.run_workload("sling", workers=1) == self.run_workload(
            "sling", workers=4
        )

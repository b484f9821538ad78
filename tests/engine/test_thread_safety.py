"""Thread-safety of :class:`QueryEngine`: stress tests and regression tests.

The engine's contract (see the module docstring of
:mod:`repro.engine.engine`) is that any number of threads may query one
engine concurrently: values match the sequential answers, the LRU cache
stays bounded, and the statistics lose no updates.  These tests hammer one
engine from 8 threads — 50 consecutive iterations for the headline stress
test — and check exact counter arithmetic afterwards, which is precisely
what an unlocked ``+= 1`` or a racy eviction loop would break.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import QueryEngine, create_backend
from repro.graphs import generators

NUM_THREADS = 8
STRESS_ITERATIONS = 50


@pytest.fixture(scope="module")
def graph():
    return generators.two_level_community(3, 12, seed=23)


def _run_in_threads(worker, num_threads: int = NUM_THREADS) -> None:
    """Start ``num_threads`` workers behind a barrier and join them all."""
    barrier = threading.Barrier(num_threads)

    def wrapped(slot: int) -> None:
        barrier.wait()
        worker(slot)

    threads = [
        threading.Thread(target=wrapped, args=(slot,))
        for slot in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestWarmStress:
    def test_eight_threads_fifty_iterations_match_sequential(self, graph):
        """The headline stress test: 8 threads, mixed kinds, 50 iterations.

        Every thread executes the same mixed workload against one warm
        engine; each iteration checks the values against the sequential
        answers and the exact counter arithmetic (every query performs
        exactly one cache lookup here, and the warm cache must answer all
        of them — one lost update fails the equality).
        """
        n = graph.num_nodes
        engine = QueryEngine(
            create_backend("power", graph), cache_size=n
        )
        for node in range(n):  # fully warm cache, no evictions possible
            engine.single_source(node)
        engine.reset_statistics()

        workload = []
        for node in range(n):
            workload.append(("top_k", node, 5))
            workload.append(("single_source", node, None))
            workload.append(("single_pair", node, (node + 3) % n))

        def answer(item):
            kind, node, arg = item
            if kind == "top_k":
                return engine.top_k(node, arg)
            if kind == "single_source":
                return engine.single_source(node).tolist()
            return engine.single_pair(node, arg)

        expected = [answer(item) for item in workload]
        engine.reset_statistics()

        for iteration in range(STRESS_ITERATIONS):
            observed: list[list] = [None] * NUM_THREADS

            def worker(slot: int) -> None:
                observed[slot] = [answer(item) for item in workload]

            _run_in_threads(worker)

            for slot in range(NUM_THREADS):
                assert observed[slot] == expected, f"iteration {iteration}"
            stats = engine.statistics_snapshot()
            queries = (iteration + 1) * NUM_THREADS * len(workload)
            assert stats.total_queries == queries
            assert stats.single_pair_queries == queries // 3
            assert stats.single_source_queries == queries // 3
            assert stats.top_k_queries == queries // 3
            # Warm cache + capacity n: every query is exactly one lookup,
            # every lookup hits, nothing is ever evicted.
            assert stats.cache_hits == queries
            assert stats.cache_misses == 0
            assert stats.cache_evictions == 0

    def test_eviction_churn_loses_no_counter_updates(self, graph):
        """A deliberately tiny cache forces concurrent evictions; the LRU
        must stay bounded and hits + misses must equal lookups exactly."""
        n = graph.num_nodes
        cache_size = 4
        engine = QueryEngine(create_backend("power", graph), cache_size=cache_size)
        per_thread = 200
        rng_nodes = [
            np.random.default_rng(slot).integers(0, n, size=per_thread)
            for slot in range(NUM_THREADS)
        ]

        def worker(slot: int) -> None:
            for node in rng_nodes[slot]:
                engine.top_k(int(node), 3)

        _run_in_threads(worker)

        stats = engine.statistics_snapshot()
        total = NUM_THREADS * per_thread
        assert stats.total_queries == total
        assert stats.cache_hits + stats.cache_misses == total
        assert stats.cache_misses > 0  # churn actually happened
        assert stats.cache_evictions > 0
        assert len(engine.cached_nodes()) <= cache_size

    def test_latency_histogram_counts_every_query(self, graph):
        """8 threads record into one histogram per kind × outcome; its
        bucket counts must add up to the query counters exactly."""
        engine = QueryEngine(create_backend("power", graph), cache_size=6)
        n = graph.num_nodes

        def worker(slot: int) -> None:
            for step in range(60):
                node = (slot * 7 + step) % n
                if step % 2:
                    engine.single_source(node)
                else:
                    engine.top_k(node, 3)
                engine.single_pair(node, (node + 1) % n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: lost updates show
        try:
            _run_in_threads(worker)
        finally:
            sys.setswitchinterval(interval)

        stats = engine.statistics_snapshot()
        assert stats.total_queries == NUM_THREADS * 120
        histogram = stats.as_dict()["latency_histogram"]
        by_kind = {
            kind: sum(count for pairs in by_outcome.values() for _, count in pairs)
            for kind, by_outcome in histogram.items()
        }
        assert sum(by_kind.values()) == stats.total_queries
        assert by_kind == {
            "single_pair": stats.single_pair_queries,
            "single_source": stats.single_source_queries,
            "top_k": stats.top_k_queries,
        }
        hits = sum(
            count for by_outcome in histogram.values()
            for _, count in by_outcome.get("hit", [])
        )
        assert hits == sum(stats.hits_by_kind.values())

    def test_concurrent_cold_misses_compute_correct_vectors(self, graph):
        """Threads missing on the same source concurrently must all get the
        correct vector (double computation is allowed, corruption is not)."""
        engine = QueryEngine(create_backend("power", graph), cache_size=64)
        expected = {
            node: engine.backend.single_source(node).tolist()
            for node in range(graph.num_nodes)
        }
        results: list[dict] = [dict() for _ in range(NUM_THREADS)]

        def worker(slot: int) -> None:
            for node in range(graph.num_nodes):
                results[slot][node] = engine.single_source(node).tolist()

        _run_in_threads(worker)
        for slot in range(NUM_THREADS):
            assert results[slot] == expected


class TestPerThreadAttribution:
    def test_last_query_record_is_thread_local(self, graph):
        """Each thread sees its own last record, not the globally latest."""
        engine = QueryEngine(create_backend("power", graph), cache_size=16)
        engine.single_source(0)  # warm node 0 only
        kinds = {}
        hits = {}

        def worker(slot: int) -> None:
            if slot % 2 == 0:
                engine.top_k(0, 3)  # warm: must be a hit
            else:
                engine.single_pair(1, 2)  # cold pair: must be a miss
            time.sleep(0.01)  # let every thread's query land before reading
            record = engine.last_query_record
            kinds[slot] = record.kind
            hits[slot] = record.cache_hit

        _run_in_threads(worker, num_threads=4)

        assert kinds == {0: "top_k", 1: "single_pair", 2: "top_k", 3: "single_pair"}
        assert hits == {0: True, 1: False, 2: True, 3: False}

    def test_snapshot_is_internally_consistent_during_load(self, graph):
        """Snapshots taken mid-hammer must always satisfy the counter
        invariants (kind counters sum to total; lookups only ever lag the
        finished-query count by the number of in-flight threads)."""
        engine = QueryEngine(create_backend("power", graph), cache_size=64)
        stop = threading.Event()

        def hammer() -> None:
            node = 0
            while not stop.is_set():
                engine.top_k(node % graph.num_nodes, 4)
                node += 1

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                snap = engine.statistics_snapshot()
                assert snap.total_queries == (
                    snap.single_pair_queries
                    + snap.single_source_queries
                    + snap.top_k_queries
                )
                lookups = snap.cache_hits + snap.cache_misses
                # Each top_k performs its one lookup before being counted.
                assert 0 <= lookups - snap.total_queries <= 4
        finally:
            stop.set()
            for thread in threads:
                thread.join()

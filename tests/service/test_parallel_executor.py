"""The :class:`ParallelExecutor` contract and the service-level stress tests.

Covers the three guarantees the executor makes — one future per request, so
futures kept in submission order give ordered output; per-request error
envelopes that never kill the pool; and values identical to the sequential
path for any worker count — plus the service-layer concurrency stress test
(8 threads on one session) and the Monte-Carlo determinism requirement (same
seed ⇒ identical results across runs and across worker counts).
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
from repro.service.wire import decode_envelope, response_frames

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


def submit_all(executor: ParallelExecutor, requests) -> list:
    """Submit every request, then collect the results in submission order
    (what the connection pump does with its FIFO of futures)."""
    futures = [executor.submit(request) for request in requests]
    return [future.result() for future in futures]


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
                results = submit_all(executor, queries)
            assert [essence(result) for result in results] == sequential, workers

    @pytest.mark.parametrize("workers", (1, 4))
    def test_source_sweeps_alongside_sources_match_sequential(self, workers):
        """A sweep over every source runs the engine's single-source path
        while other workers query the same sources."""
        service = make_service()
        n = service.open_dataset(DATASET).num_nodes
        sweep = [SingleSourceQuery(DATASET, node=node) for node in range(n)]
        requests = sweep + [
            SingleSourceQuery(DATASET, node=node) for node in range(0, n, 3)
        ] + sweep
        reference = make_service()
        sequential = [essence(reference.execute(query)) for query in requests]
        with ParallelExecutor(service, workers=workers) as executor:
            results = submit_all(executor, requests)
        assert [essence(result) for result in results] == sequential
        assert all(result.value.n == n for result in results)

    def test_decoded_envelopes_and_typed_queries_mix(self):
        service = make_service()
        requests = [
            TopKQuery(DATASET, node=1, k=3),
            decode_envelope(
                {"kind": "single_pair", "dataset": DATASET, "node_u": 0, "node_v": 2}
            ),
        ]
        with ParallelExecutor(service, workers=2) as executor:
            results = submit_all(executor, requests)
        assert [result.ok for result in results] == [True, True]
        assert results[0].kind == "top_k"
        assert results[1].kind == "single_pair"


class TestErrorIsolation:
    def test_failures_stay_in_their_slots(self):
        service = make_service()
        n = service.open_dataset(DATASET).num_nodes
        requests = [
            TopKQuery(DATASET, node=0, k=3),
            decode_envelope({"kind": "unknown_kind"}),
            TopKQuery(DATASET, node=10 * n, k=3),
            decode_envelope(
                {"kind": "top_k", "dataset": "no-such-dataset", "node": 0, "k": 3}
            ),
            decode_envelope("not even a dict"),
            TopKQuery(DATASET, node=1, k=3),
        ]
        with ParallelExecutor(service, workers=3) as executor:
            results = submit_all(executor, requests)
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
        # One worker must honour the same contract instead of quietly
        # executing on a closed executor.
        single = ParallelExecutor(service, workers=1)
        single.close()
        with pytest.raises(ParameterError):
            single.submit(TopKQuery(DATASET, node=0, k=3))


class TestSharedEngine:
    def test_executors_share_the_service_engine_cache(self):
        """Every executor over one service answers through the dataset's
        one engine, so a vector cached by one is a hit for the next."""
        service = make_service()
        query = SingleSourceQuery(DATASET, node=3)
        with ParallelExecutor(service, workers=1) as executor:
            first = submit_all(executor, [query])
        with ParallelExecutor(service, workers=2) as executor:
            second = submit_all(executor, [query])
        assert [result.cache_hit for result in first] == [False]
        assert [result.cache_hit for result in second] == [True]
        assert second[0].value.tolist() == first[0].value.tolist()


class TestStreaming:
    @pytest.mark.parametrize("workers", (2, 8))
    def test_submit_preserves_caller_order(self, workers):
        """Each future resolves to its own request's answer, whatever order
        the caller waits on them in."""
        service = make_service()
        n = service.open_dataset(DATASET).num_nodes
        queries = mixed_queries(n, count=40)
        sequential = [essence(service.execute(query)) for query in queries]
        with ParallelExecutor(service, workers=workers) as executor:
            futures = [executor.submit(query) for query in queries]
            results = [future.result() for future in reversed(futures)][::-1]
        assert [essence(result) for result in results] == sequential


class TestDuplicates:
    """Duplicate requests are not merged: each gets its own envelope, and the
    engine's source cache is what they share."""

    def test_duplicate_queries_each_get_their_own_answer(self):
        service = make_service()
        queries = [TopKQuery(DATASET, node=3, k=4) for _ in range(32)]
        with ParallelExecutor(service, workers=1) as executor:
            results = submit_all(executor, queries)
        assert len({id(result) for result in results}) == len(results)
        assert all(essence(result) == essence(results[0]) for result in results)
        assert [result.cache_hit for result in results] == [False] + [True] * 31

    @pytest.mark.parametrize("workers", (1, 4))
    def test_decoded_duplicates_are_served_from_the_engine_cache(self, workers):
        service = make_service()
        payload = {"kind": "top_k", "dataset": DATASET, "node": 3, "k": 4}
        with ParallelExecutor(service, workers=workers) as executor:
            results = submit_all(
                executor, [decode_envelope(dict(payload)) for _ in range(32)]
            )
        assert all(result.ok for result in results)
        assert all(essence(result) == essence(results[0]) for result in results)
        stats = service.open_dataset(DATASET).engine().statistics_snapshot()
        assert stats.cache_hits + stats.cache_misses == 32
        # Concurrent first requests may each miss, but no more than one per
        # worker: after that the vector is cached.
        assert 1 <= stats.cache_misses <= workers


class TestEnvelopePassThrough:
    def test_pre_failed_decode_is_returned_untouched(self):
        service = make_service()
        envelope = decode_envelope({"kind": "unknown_kind"})
        with ParallelExecutor(service, workers=2) as executor:
            result = executor.submit(envelope).result()
        assert result is envelope.request
        assert service.list_datasets() == [DATASET]

    def test_service_exception_becomes_internal_error(self):
        service = make_service()

        class Exploding:
            def execute(self, request, **_kwargs):
                raise RuntimeError("boom")

        with ParallelExecutor(Exploding(), workers=2) as executor:
            failed = executor.submit(TopKQuery(DATASET, node=0, k=3)).result()
        assert failed.error.code == "internal_error"
        assert "RuntimeError: boom" in failed.error.message
        with ParallelExecutor(service, workers=2) as executor:
            assert executor.submit(TopKQuery(DATASET, node=0, k=3)).result().ok

    def test_pool_survives_a_failing_request(self):
        calls = []
        service = make_service()

        class FlakyOnce:
            def execute(self, request, **kwargs):
                calls.append(request)
                if len(calls) == 1:
                    raise ParameterError("rejected")
                return service.execute(request, **kwargs)

        queries = [TopKQuery(DATASET, node=node, k=3) for node in range(4)]
        with ParallelExecutor(FlakyOnce(), workers=1) as executor:
            results = submit_all(executor, queries)
        assert results[0].error.code == "bad_request"
        assert results[0].error.message == "rejected"
        assert all(result.ok for result in results[1:])



class TestEncodedAnswers:
    """An envelope's answer arrives with its response lines, encoded on the
    pool thread, exactly as the pump would have encoded them."""

    @pytest.mark.parametrize("chunk_size", [None, 5])
    def test_envelope_answers_carry_their_frames(self, chunk_size):
        service = make_service()
        bodies = [q.to_wire() for q in mixed_queries(33, count=9)]
        bodies.append({"kind": "unknown_kind"})
        extra = {"chunk_size": chunk_size} if chunk_size else {}
        envelopes = [
            decode_envelope({**body, "id": position, **extra})
            for position, body in enumerate(bodies)
        ]
        with ParallelExecutor(service, workers=2) as executor:
            answers = [executor.submit(envelope) for envelope in envelopes]
            for envelope, answer in zip(envelopes, answers):
                result = answer.result()
                assert answer.lines == list(response_frames(
                    result, id=envelope.id, chunk_size=envelope.chunk_size
                ))
            if chunk_size:
                assert any(len(answer.lines) > 1 for answer in answers)

    def test_typed_queries_leave_encoding_to_the_caller(self):
        with ParallelExecutor(make_service(), workers=1) as executor:
            answer = executor.submit(TopKQuery(DATASET, node=0, k=3))
            assert answer.result().ok
        assert getattr(answer, "lines", None) is None

    def test_an_answer_that_fails_to_encode_still_resolves(self, monkeypatch):
        def unencodable(*_args, **_kwargs):
            raise TypeError("not serialisable")

        monkeypatch.setattr("repro.service.parallel.response_frames", unencodable)
        envelope = decode_envelope({**TopKQuery(DATASET, node=0, k=3).to_wire(), "id": 1})
        with ParallelExecutor(make_service(), workers=1) as executor:
            answer = executor.submit(envelope)
            assert answer.result().ok
        assert answer.lines is None

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
            return [essence(result) for result in submit_all(executor, queries)]

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

"""End-to-end deadlines, overload shedding, and retry policy.

The PR-10 robustness contract at the worker: ``deadline_ms`` on a v2
envelope is validated at decode (a failure envelope, never an exception),
becomes an absolute monotonic deadline that never crosses the wire, and an
expired request is shed with ``deadline_exceeded`` before any work runs.
Under pressure the executor sheds past ``max_pending`` with ``overloaded``
(health probes and shutdown exempt); served ``single_source`` always takes
the engine's exact path.  The client's :class:`RetryPolicy`
retries exactly the retryable codes with bounded exponential backoff.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.service import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ERROR_UNAVAILABLE,
    RETRYABLE_ERROR_CODES,
    ParallelExecutor,
    PingRequest,
    QueryResult,
    RetryPolicy,
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
)
from repro.service.wire import RequestEnvelope, decode_envelope

DATASET = "grid"


def make_service(**overrides) -> SimRankService:
    service = SimRankService(ServiceConfig(backend="power", **overrides))
    service.open_dataset(DATASET, graph=generators.small_world(16, 4, seed=3))
    return service


def wire_query(**extra) -> dict:
    return {
        "v": 2,
        "id": 7,
        "kind": "single_pair",
        "dataset": DATASET,
        "node_u": 0,
        "node_v": 1,
        **extra,
    }


class TestDeadlineDecode:
    def test_valid_deadline_becomes_absolute_monotonic(self):
        before = time.monotonic()
        envelope = decode_envelope(wire_query(deadline_ms=500))
        after = time.monotonic()
        assert isinstance(envelope.request, SinglePairQuery)
        assert envelope.deadline_ms == 500.0
        assert before + 0.5 <= envelope.deadline <= after + 0.5
        assert not envelope.expired()

    def test_absent_deadline_means_no_deadline(self):
        envelope = decode_envelope(wire_query())
        assert envelope.deadline_ms is None
        assert envelope.deadline is None
        assert not envelope.expired()

    @pytest.mark.parametrize(
        "bad", [True, False, "100", 0, -5, float("inf"), float("nan"), [100]]
    )
    def test_invalid_deadline_is_a_failure_envelope_not_an_exception(self, bad):
        envelope = decode_envelope(wire_query(deadline_ms=bad))
        assert isinstance(envelope.request, QueryResult)
        assert envelope.request.error.code == ERROR_BAD_REQUEST
        assert "deadline_ms" in envelope.request.error.message
        assert envelope.id == 7  # the reply still correlates

    def test_expired_is_inclusive_at_the_boundary(self):
        envelope = RequestEnvelope(
            request=SinglePairQuery(DATASET, node_u=0, node_v=1),
            deadline=100.0,
        )
        assert not envelope.expired(now=99.999)
        assert envelope.expired(now=100.0)
        assert envelope.expired(now=100.1)


class TestDeadlineShedding:
    def test_expired_request_is_shed_before_execution(self):
        service = make_service()
        envelope = RequestEnvelope(
            request=SinglePairQuery(DATASET, node_u=0, node_v=1),
            deadline=time.monotonic() - 1.0,
        )
        with ParallelExecutor(service, workers=1) as executor:
            result = executor.submit(envelope).result(timeout=10)
        assert not result.ok
        assert result.error.code == ERROR_DEADLINE_EXCEEDED
        assert result.kind == "single_pair"
        assert result.dataset == DATASET

    def test_wire_deadline_propagates_into_the_pool(self):
        service = make_service()
        envelope = decode_envelope(wire_query(deadline_ms=0.01))
        time.sleep(0.005)  # 10 microseconds: long expired by dispatch time
        with ParallelExecutor(service, workers=1) as executor:
            result = executor.submit(envelope).result(timeout=10)
        assert not result.ok
        assert result.error.code == ERROR_DEADLINE_EXCEEDED

    def test_live_deadline_still_answers(self):
        service = make_service()
        envelope = decode_envelope(wire_query(deadline_ms=60000))
        with ParallelExecutor(service, workers=1) as executor:
            result = executor.submit(envelope).result(timeout=10)
        assert result.ok, result.error


class _Gate:
    """Monkeypatch helper: the first ``execute`` blocks until released."""

    def __init__(self, service: SimRankService):
        self.started = threading.Event()
        self.release = threading.Event()
        self._orig = service.execute

    def __call__(self, query, **kwargs):
        self.started.set()
        assert self.release.wait(timeout=30)
        return self._orig(query, **kwargs)


class TestOverloadShedding:
    def test_submit_past_max_pending_sheds_with_overloaded(self, monkeypatch):
        service = make_service()
        gate = _Gate(service)
        monkeypatch.setattr(service, "execute", gate)
        query = SinglePairQuery(DATASET, node_u=0, node_v=1)
        with ParallelExecutor(service, workers=1, max_pending=1) as executor:
            first = executor.submit(query)
            assert gate.started.wait(timeout=10)
            shed = executor.submit(query).result(timeout=1)
            assert not shed.ok
            assert shed.error.code == ERROR_OVERLOADED
            assert "back off and retry" in shed.error.message
            assert shed.kind == "single_pair"
            assert shed.dataset == DATASET
            assert executor.pending == 1
            gate.release.set()
            assert first.result(timeout=10).ok
        assert executor.pending == 0

    def test_ping_and_shutdown_are_exempt_from_shedding(self, monkeypatch):
        service = make_service()
        gate = _Gate(service)
        monkeypatch.setattr(service, "execute", gate)
        with ParallelExecutor(service, workers=2, max_pending=1) as executor:
            held = executor.submit(SinglePairQuery(DATASET, node_u=0, node_v=1))
            assert gate.started.wait(timeout=10)
            pong = executor.submit(PingRequest()).result(timeout=10)
            assert pong.ok
            assert pong.value["pong"] is True
            gate.release.set()
            assert held.result(timeout=10).ok

    @pytest.mark.parametrize("field", ["max_pending"])
    def test_bounds_must_be_positive(self, field):
        service = make_service()
        with pytest.raises(ParameterError):
            ParallelExecutor(service, workers=1, **{field: 0})


class TestRetryPolicy:
    def failure(self, code: str) -> QueryResult:
        return QueryResult.failure(code, "boom")

    def test_delay_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        delays = [policy.delay(1) for _ in range(50)]
        assert all(0.1 <= d <= 0.15 for d in delays)
        again = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        assert [again.delay(1) for _ in range(50)] == delays

    def test_retries_exactly_the_retryable_codes(self):
        policy = RetryPolicy(max_attempts=3)
        assert RETRYABLE_ERROR_CODES == frozenset(
            {ERROR_UNAVAILABLE, ERROR_OVERLOADED, ERROR_TIMEOUT}
        )
        for code in RETRYABLE_ERROR_CODES:
            assert policy.should_retry(self.failure(code), attempt=1)
        assert not policy.should_retry(
            self.failure(ERROR_DEADLINE_EXCEEDED), attempt=1
        )
        assert not policy.should_retry(self.failure(ERROR_BAD_REQUEST), attempt=1)

    def test_attempt_budget_and_success_stop_retrying(self):
        policy = RetryPolicy(max_attempts=3)
        failure = self.failure(ERROR_UNAVAILABLE)
        assert policy.should_retry(failure, attempt=2)
        assert not policy.should_retry(failure, attempt=3)
        ok = QueryResult.success(
            kind="ping", dataset=None, value={"pong": True}, backend=None,
            plan=None, seconds=0.0, cache_hit=None,
        )
        assert not policy.should_retry(ok, attempt=1)

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)

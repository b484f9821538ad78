"""Client read timeouts over the socket transport, and retry integration.

A stalled server must never hang a client configured with ``timeout``:
the request resolves to a structured ``timeout`` envelope, the (now
ambiguous) lockstep channel is torn down and re-established, and the
client keeps working.  With a :class:`RetryPolicy` the timeout is
retryable, so a transient stall is ridden out invisibly; client-level
``deadline_ms`` bounds the whole retry loop.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest
import test_client

from repro.engine import BackendConfig
from repro.exceptions import ParameterError
from repro.service import (
    ERROR_TIMEOUT,
    Address,
    ParallelExecutor,
    RetryPolicy,
    ServiceConfig,
    SimRankClient,
    SinglePairQuery,
    SimRankService,
)
from repro.service.net import SocketServer

DATASET = "GrQc"


def make_service() -> SimRankService:
    return SimRankService(
        ServiceConfig(
            scale=test_client.SCALE,
            seed=test_client.SEED,
            backend_config=BackendConfig(
                epsilon=test_client.EPSILON,
                seed=test_client.SEED,
                mc_num_walks=test_client.MC_WALKS,
            ),
        )
    )


class _Stall:
    """Monkeypatch for ``service.execute``: stall the first ``count`` calls."""

    def __init__(self, service: SimRankService, seconds: float, count: int = 1):
        self._orig = service.execute
        self._seconds = seconds
        self._lock = threading.Lock()
        self._remaining = count
        self.calls = 0

    def __call__(self, query, **kwargs):
        with self._lock:
            self.calls += 1
            stall = self._remaining > 0
            if stall:
                self._remaining -= 1
        if stall:
            time.sleep(self._seconds)
        return self._orig(query, **kwargs)


@pytest.fixture
def stalled():
    service = make_service()
    service.open_dataset(DATASET)
    stall = _Stall(service, seconds=1.5)
    service.execute = stall
    server = SocketServer(
        ParallelExecutor(service, workers=2),
        address=Address(family="tcp", host="127.0.0.1", port=0),
    )
    server.start()
    yield server, stall
    service.execute = stall._orig
    server.stop()


class TestClientTimeout:
    def test_stalled_request_becomes_a_timeout_envelope(self, stalled):
        server, _ = stalled
        client = SimRankClient(address=str(server.address), timeout=0.3)
        result = client.execute(SinglePairQuery(DATASET, node_u=1, node_v=2))
        assert not result.ok
        assert result.error.code == ERROR_TIMEOUT
        assert "0.3" in result.error.message
        assert result.kind == "single_pair"
        assert result.dataset == DATASET
        # The channel was re-established: the client still works once the
        # stall has drained.
        follow_up = client.execute(SinglePairQuery(DATASET, node_u=1, node_v=2))
        assert follow_up.ok, follow_up.error
        client.close()

    def test_retry_policy_rides_out_a_transient_stall(self, stalled):
        server, stall = stalled
        client = SimRankClient(
            address=str(server.address),
            timeout=0.3,
            retry=RetryPolicy(max_attempts=4, base_delay=0.05, seed=0),
        )
        result = client.execute(SinglePairQuery(DATASET, node_u=1, node_v=2))
        assert result.ok, result.error
        assert stall.calls >= 2  # first attempt stalled, a retry answered
        client.close()

    def test_client_deadline_bounds_the_retry_loop(self):
        # A server that stalls *every* data-plane call: without the
        # client-side deadline, 50 attempts would grind for many seconds.
        service = make_service()
        service.open_dataset(DATASET)
        stall = _Stall(service, seconds=1.5, count=10_000)
        service.execute = stall
        server = SocketServer(
            ParallelExecutor(service, workers=4),
            address=Address(family="tcp", host="127.0.0.1", port=0),
        )
        server.start()
        try:
            client = SimRankClient(
                address=str(server.address),
                timeout=0.2,
                retry=RetryPolicy(max_attempts=50, base_delay=0.05, seed=0),
            )
            started = time.monotonic()
            result = client.execute(
                SinglePairQuery(DATASET, node_u=1, node_v=2),
                deadline_ms=400.0,
            )
            elapsed = time.monotonic() - started
            assert not result.ok
            assert result.error.code in ("timeout", "deadline_exceeded")
            assert elapsed < 5.0  # nowhere near 50 attempts
            client.close()
        finally:
            service.execute = stall._orig
            server.stop()

    def test_a_wedged_server_times_out_after_timeout_alone(self):
        """The read timeout bounds the request by itself: the channel is
        reopened by the *next* request, not by waiting out the connect
        budget for a frozen server's hello, and once the server thaws the
        same client works again."""
        process, address = test_client.spawn_tcp_server()
        try:
            client = SimRankClient(address=address, timeout=0.5, connect_timeout=3.0)
            client.open_dataset(DATASET)
            os.kill(process.pid, signal.SIGSTOP)
            try:
                started = time.monotonic()
                result = client.execute(SinglePairQuery(DATASET, node_u=1, node_v=2))
                elapsed = time.monotonic() - started
            finally:
                os.kill(process.pid, signal.SIGCONT)
            assert result.error.code == ERROR_TIMEOUT
            assert elapsed < 2.0  # not timeout + connect_timeout (3.5 s)
            follow_up = client.execute(SinglePairQuery(DATASET, node_u=1, node_v=2))
            assert follow_up.ok, follow_up.error
            client.close()
        finally:
            test_client.stop_server(process)

    def test_non_positive_timeout_is_rejected(self, stalled):
        server, _ = stalled
        with pytest.raises(ParameterError):
            SimRankClient(address=str(server.address), timeout=0.0)

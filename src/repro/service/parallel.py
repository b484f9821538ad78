"""Concurrent request execution: a worker pool over the service facade.

:class:`ParallelExecutor` runs service requests over a thread pool while
keeping the sequential path's contract intact:

* **one future per request** — :meth:`~ParallelExecutor.submit` resolves to
  exactly one :class:`~repro.service.results.QueryResult`; callers that keep
  their futures in arrival order get ordered output for any worker count;
* **per-request error envelopes** — a request that cannot be answered
  becomes an error envelope; it never raises out of the pool and never
  affects its neighbours;
* **identical values** — backends are read-only after build and the engine
  layer is thread-safe, so for exact / path-consistent backends the *values*
  returned are bitwise identical for any worker count (latency fields and
  cache-hit flags naturally vary).  The one caveat is an approximate backend
  (SLING) serving a *mixed* workload: a ``single_pair`` answered from its
  source's cached vector and one answered by Algorithm 3 agree only within
  the accuracy target, and which path runs depends on whether another
  worker cached that vector first — so such values may vary across runs by
  accuracy-target order (never more).

Locking hierarchy (acquired strictly top-down, so no cycles):

1. service lock — session open/close/list;
2. session lock — lazy engine/index builds;
3. engine lock — LRU cache and statistics (never held across backend work).

:meth:`~ParallelExecutor.submit` is the interface behind every serve loop —
the shared connection pump (:mod:`repro.service.net.pump`) keeps a FIFO of
futures to write responses in arrival order while up to ``workers``
requests execute behind the head of the line.  The pool thread that
answers an envelope also encodes its frames, so the pump's writer only
sends them.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from ..exceptions import ParameterError, ReproError
from .control import ControlRequest, PingRequest
from .queries import Query
from .results import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    QueryResult,
)
from .service import SimRankService
from .wire import RequestEnvelope, response_frames

__all__ = ["ParallelExecutor"]


def resolve_worker_count(workers: int | None) -> int:
    """Normalise a worker-count option: ``None`` or ``0`` means "one per CPU".

    Negative counts are rejected; the result is always >= 1 (also on
    platforms where the CPU count cannot be determined).
    """
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ParameterError(f"workers must be >= 1 (or 0 for auto), got {workers}")
    return int(workers)


class _EncodedAnswer(Future):
    """A submitted envelope's future, with the response frames its pool
    thread encoded (``None`` until then, or if encoding failed)."""

    lines: list[str] | None = None


class ParallelExecutor:
    """Execute service requests concurrently with ordered, enveloped output.

    Parameters
    ----------
    service:
        The (thread-safe) :class:`~repro.service.SimRankService` to execute
        against.  The executor never bypasses it: every request still gets
        the service's validation and error-envelope guarantees.
    workers:
        Worker-thread count; ``None`` or ``0`` means one per CPU.
    max_pending:
        Load-shedding bound (see :meth:`submit`); ``None`` never sheds.

    The executor is itself thread-safe and reusable; the pool is created
    lazily and shut down by :meth:`close` (or the context manager).
    """

    def __init__(
        self,
        service: SimRankService,
        *,
        workers: int | None = None,
        max_pending: int | None = None,
    ) -> None:
        self._service = service
        self._workers = resolve_worker_count(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        if max_pending is not None and max_pending < 1:
            raise ParameterError(
                f"max_pending must be a positive int, got {max_pending!r}"
            )
        #: Load-shedding bound on streaming submissions: once this many
        #: requests are queued or executing, :meth:`submit` answers
        #: ``overloaded`` immediately instead of growing the queue.
        self._max_pending = max_pending
        self._pending = 0
        self._pending_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Resolved worker-thread count."""
        return self._workers

    def answer_ping(self, request: PingRequest) -> QueryResult:
        """Answer a ``ping`` on the calling thread, ahead of the pool — the
        pump's liveness path while every worker is in a long query."""
        return self._service.execute_control(request)

    def hello_payload(self) -> dict:
        """The service's ``hello`` frame, for a socket connection to open
        with."""
        return self._service.hello_payload()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise ParameterError("executor is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="repro-query",
                )
            return self._pool

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight requests to finish."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Single-request execution
    # ------------------------------------------------------------------ #
    def _execute_one(
        self, request: Query | ControlRequest | RequestEnvelope
    ) -> QueryResult:
        """Answer one typed request or decoded envelope as a result envelope.

        An envelope whose request is already a :class:`QueryResult` (a
        pre-failed decode) passes through untouched; a
        :class:`~repro.service.control.ControlRequest` dispatches to the
        service's control plane.
        """
        try:
            deadline = None
            if isinstance(request, RequestEnvelope):
                deadline = request.deadline
                request = request.request
            if isinstance(request, QueryResult):
                return request
            if deadline is not None and time.monotonic() >= deadline:
                # The budget ran out while this request sat in the queue:
                # computing the answer now would only waste a worker on a
                # response nobody is waiting for.
                return QueryResult.failure(
                    ERROR_DEADLINE_EXCEEDED,
                    "deadline expired before execution started",
                    kind=getattr(request, "kind", None),
                    dataset=getattr(request, "dataset", None),
                )
            if isinstance(request, ControlRequest):
                return self._service.execute_control(request)
            return self._service.execute(request)
        except ReproError as exc:  # defensive: the service should not raise
            return QueryResult.failure(ERROR_BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - a worker must never die
            return QueryResult.failure(
                ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------------------------ #
    # Submission (every serve loop)
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Requests submitted via :meth:`submit` and not yet completed.

        Counted only when ``max_pending`` is set (it is always 0 otherwise);
        ``ping`` and ``shutdown`` are never counted.
        """
        return self._pending

    def _release_slot(self, _future: "Future[QueryResult]") -> None:
        with self._pending_lock:
            self._pending -= 1

    @staticmethod
    def _is_exempt(request: object) -> bool:
        """Control requests that must never be shed: health probes (the
        router's liveness signal) and shutdown (a wedged-full server must
        still be stoppable)."""
        inner = request.request if isinstance(request, RequestEnvelope) else request
        return isinstance(inner, ControlRequest) and inner.kind in (
            "ping", "shutdown"
        )

    def submit(
        self, request: Query | ControlRequest | RequestEnvelope
    ) -> "Future[QueryResult]":
        """Schedule one request on the pool; the future never raises.

        The connection pump behind ``repro serve``, ``repro batch`` and
        every socket connection keeps a FIFO of futures and writes each
        result as its turn comes, giving ordered responses with up to
        ``workers`` requests in flight.  ``request`` is a typed query or
        control request, or a decoded
        :class:`~repro.service.wire.RequestEnvelope` (see
        :func:`~repro.service.wire.decode_envelope`), which carries the
        request's deadline into the pool.  Wire dicts are decoded by the
        caller, not here.  An envelope's answer carries its response
        frames, encoded for the envelope's ``id`` and ``chunk_size``, in
        ``lines``.

        With ``max_pending`` set, a submission past the bound resolves
        immediately to an ``overloaded`` envelope — explicit load shedding
        instead of an unbounded queue.
        """
        pool = self._ensure_pool()
        if self._max_pending is None or self._is_exempt(request):
            return self._schedule(pool, request)
        with self._pending_lock:
            shed = self._pending >= self._max_pending
            if not shed:
                self._pending += 1
        if shed:
            inner = (
                request.request
                if isinstance(request, RequestEnvelope)
                else request
            )
            failure = QueryResult.failure(
                ERROR_OVERLOADED,
                f"server at capacity ({self._max_pending} requests pending); "
                "back off and retry",
                kind=getattr(inner, "kind", None),
                dataset=getattr(inner, "dataset", None),
            )
            future: Future[QueryResult] = Future()
            future.set_result(failure)
            return future
        future = self._schedule(pool, request)
        future.add_done_callback(self._release_slot)
        return future

    def _schedule(
        self, pool: ThreadPoolExecutor, request: Query | ControlRequest | RequestEnvelope
    ) -> "Future[QueryResult]":
        """Run ``request`` on ``pool``.  An envelope's answer also carries
        its response frames in ``lines``, encoded by the pool thread that
        computed it before that thread takes the next request: the pump's
        writer then only sends them, so a finished answer's encoding never
        queues for the interpreter lock behind the next request's work."""
        if not isinstance(request, RequestEnvelope):
            return pool.submit(self._execute_one, request)
        answer = _EncodedAnswer()

        def run() -> None:
            result = self._execute_one(request)
            try:
                answer.lines = list(
                    response_frames(
                        result, id=request.id, chunk_size=request.chunk_size
                    )
                )
            finally:
                # Unencodable, the answer still resolves; the pump's writer
                # encodes it again and reports the failure itself.
                answer.set_result(result)

        pool.submit(run)
        return answer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelExecutor(workers={self._workers}, "
            f"datasets={self._service.list_datasets()})"
        )

"""Concurrent request execution: a worker pool over the service facade.

:class:`ParallelExecutor` runs batches of service requests over a thread
pool while keeping the sequential path's contract intact:

* **deterministic ordered output** — ``run`` returns exactly one
  :class:`~repro.service.results.QueryResult` per request, in request order,
  regardless of how many workers raced to produce them;
* **per-request error envelopes** — a request that cannot be decoded or
  answered becomes an error envelope in its slot; it never raises out of the
  pool and never affects its neighbours;
* **identical values** — backends are read-only after build and the engine
  layer is thread-safe, so for exact / path-consistent backends the *values*
  returned for a batch are bitwise identical for any worker count (latency
  fields and cache-hit flags naturally vary).  The one caveat is an
  approximate backend (SLING) serving a *mixed* workload: a ``single_pair``
  answered from its source's cached vector and one answered by Algorithm 3
  agree only within the accuracy target, and which path runs depends on
  whether another worker cached that vector first — so such values may vary
  across runs by accuracy-target order (never more);
* **batch-aware scheduling** — within one worker's chunk, textually
  identical read queries (same kind, dataset, backend, and arguments) are
  answered once and the envelope is shared by every duplicate.  Skewed
  workloads (top-k dashboards hammering hot sources) are where a batch
  scheduler earns its keep even on one core; on multi-core machines the
  chunks additionally run in parallel.

Locking hierarchy (acquired strictly top-down, so no cycles):

1. service lock — session open/close/list;
2. session lock — lazy engine/index builds;
3. engine lock — LRU cache and statistics (never held across backend work).

``run`` answers a whole batch at once (the batch benchmarks measure it);
:meth:`submit` is the streaming interface behind every serve loop — the
shared connection pump (:mod:`repro.service.net.pump`) needs one future per
request to write responses in arrival order while up to ``workers``
requests execute behind the head of the line.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Sequence

from ..exceptions import ParameterError, ReproError
from ..sling.parallel import even_chunks, resolve_worker_count
from .control import ControlRequest
from .queries import (
    AllPairsQuery,
    Query,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)
from .results import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    QueryResult,
)
from .service import SimRankService
from .wire import RequestEnvelope, decode_envelope

__all__ = ["ParallelExecutor"]

#: Chunks handed to the pool per worker; more than one so an unlucky chunk
#: full of slow (cold) requests does not leave the other workers idle.
CHUNKS_PER_WORKER = 4


def _dedupe_key(query: Query, backend: str | None) -> tuple | None:
    """A hashable identity for read queries that may share one envelope.

    Only queries whose answers depend on nothing but the built backend are
    deduplicated; anything unrecognised returns ``None`` and is executed
    individually.
    """
    if type(query) is TopKQuery:
        return ("top_k", query.dataset, backend, query.node, query.k)
    if type(query) is SinglePairQuery:
        # The engine canonicalises pairs and answers both orientations
        # bitwise-identically, so (u, v) and (v, u) may share one envelope.
        low, high = sorted((query.node_u, query.node_v))
        return ("single_pair", query.dataset, backend, low, high)
    if type(query) is SingleSourceQuery:
        return ("single_source", query.dataset, backend, query.node)
    if type(query) is AllPairsQuery:
        return ("all_pairs", query.dataset, backend)
    return None


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
    backend:
        Optional backend label forwarded to every ``execute`` call (the same
        meaning as ``SimRankService.execute(..., backend=...)``).

    The executor is itself thread-safe and reusable; the pool is created
    lazily and shut down by :meth:`close` (or the context manager).
    """

    def __init__(
        self,
        service: SimRankService,
        *,
        workers: int | None = None,
        backend: str | None = None,
        max_pending: int | None = None,
        degrade_pending: int | None = None,
    ) -> None:
        self._service = service
        self._workers = resolve_worker_count(workers)
        self._backend = backend
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        if max_pending is not None and max_pending < 1:
            raise ParameterError(
                f"max_pending must be a positive int, got {max_pending!r}"
            )
        if degrade_pending is not None and degrade_pending < 1:
            raise ParameterError(
                f"degrade_pending must be a positive int, got {degrade_pending!r}"
            )
        #: Load-shedding bound on streaming submissions: once this many
        #: requests are queued or executing, :meth:`submit` answers
        #: ``overloaded`` immediately instead of growing the queue.
        self._max_pending = max_pending
        #: Pressure threshold for graceful degradation: at or above this
        #: many pending requests, exact ``single_source`` queries are
        #: answered via the cascade path and stamped ``degraded: true``.
        self._degrade_pending = degrade_pending
        self._pending = 0
        self._pending_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Resolved worker-thread count."""
        return self._workers

    @property
    def service(self) -> SimRankService:
        """The service this executor runs requests against."""
        return self._service

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
    # Single-request execution (shared by every entry point)
    # ------------------------------------------------------------------ #
    def _execute_one(
        self,
        request: Query | ControlRequest | object,
        shared: dict[tuple, QueryResult] | None = None,
    ) -> QueryResult:
        """Answer one request — typed query or wire payload — as an envelope.

        ``shared`` is a chunk-local memo of completed read queries; it is
        only ever touched by the one worker thread that owns the chunk.
        A request that is already a :class:`QueryResult` (a pre-failed
        envelope from line decoding) passes through untouched; a
        :class:`~repro.service.control.ControlRequest` dispatches to the
        service's control plane (control operations are never deduplicated
        — ``close_dataset`` twice must close twice).
        """
        try:
            deadline = None
            if isinstance(request, RequestEnvelope):
                deadline = request.deadline
                request = request.request
            if isinstance(request, QueryResult):
                return request
            if not isinstance(request, (Query, ControlRequest)):
                # Decode wire payloads up front (rather than delegating to
                # execute_wire) so deduplication and a pinned backend apply
                # to decoded wire dicts too.
                # The envelope decoder accepts v2 keys and control kinds.
                envelope = decode_envelope(request)
                if deadline is None:
                    deadline = envelope.deadline
                request = envelope.request
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
            degrade = (
                self._degrade_pending is not None
                and self._pending >= self._degrade_pending
            )
            key = None if degrade else _dedupe_key(request, self._backend)
            if shared is not None and key is not None:
                result = shared.get(key)
                if result is None:
                    result = self._service.execute(request, backend=self._backend)
                    shared[key] = result
                return result
            if degrade:
                return self._service.execute(
                    request, backend=self._backend, degrade=True
                )
            # Only pass the degrade keyword when degrading: callers are
            # allowed to wrap ``execute`` with the narrower pre-overload
            # signature (the health-probe tests do), and the kwarg would
            # break them for no behavioural difference.
            return self._service.execute(request, backend=self._backend)
        except ReproError as exc:  # defensive: the service should not raise
            return QueryResult.failure(ERROR_BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - a worker must never die
            return QueryResult.failure(
                ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    def _run_chunk(
        self, requests: Sequence[Query | ControlRequest | object], chunk: range
    ) -> list[QueryResult]:
        shared: dict[tuple, QueryResult] = {}
        return [self._execute_one(requests[index], shared) for index in chunk]

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Query | ControlRequest | object]) -> list[QueryResult]:
        """Answer a batch; result ``i`` always belongs to request ``i``.

        Requests may be typed :class:`~repro.service.queries.Query` objects
        or decoded wire payloads (dicts); malformed payloads yield
        ``bad_request`` envelopes in their slots.  The batch is split into
        contiguous chunks processed by the worker pool; chunk results are
        reassembled in order, so the output is deterministic for any worker
        count.
        """
        if self._closed:  # same contract as submit(), for any worker count
            raise ParameterError("executor is closed")
        requests = list(requests)
        if not requests:
            return []
        # One worker runs inline with a single batch-wide chunk: splitting
        # would only fragment the dedupe memo with no parallelism to gain.
        num_chunks = 1 if self._workers == 1 else self._workers * CHUNKS_PER_WORKER
        chunks = even_chunks(len(requests), num_chunks)
        if self._workers == 1 or len(chunks) == 1:
            results_per_chunk = [
                self._run_chunk(requests, chunk) for chunk in chunks
            ]
        else:
            pool = self._ensure_pool()
            results_per_chunk = list(
                pool.map(lambda chunk: self._run_chunk(requests, chunk), chunks)
            )
        return [result for chunk in results_per_chunk for result in chunk]

    # ------------------------------------------------------------------ #
    # Streaming execution (the serve loop)
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Requests submitted via :meth:`submit` and not yet completed."""
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

    def submit(self, request: Query | ControlRequest | object) -> "Future[QueryResult]":
        """Schedule one request on the pool; the future never raises.

        The streaming interface: the connection pump behind ``repro
        serve``, ``repro batch`` and every socket connection keeps a FIFO
        of futures and writes each result as its turn comes, giving ordered
        responses with up to ``workers`` requests in flight.  ``request`` may also be a
        decoded :class:`~repro.service.wire.RequestEnvelope`, which carries
        the request's deadline into the pool.

        With ``max_pending`` set, a submission past the bound resolves
        immediately to an ``overloaded`` envelope — explicit load shedding
        instead of an unbounded queue.
        """
        pool = self._ensure_pool()
        tracked = (
            self._max_pending is not None or self._degrade_pending is not None
        )
        if not tracked or self._is_exempt(request):
            return pool.submit(self._execute_one, request)
        with self._pending_lock:
            if (
                self._max_pending is not None
                and self._pending >= self._max_pending
            ):
                shed = True
            else:
                shed = False
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
        future = pool.submit(self._execute_one, request)
        future.add_done_callback(self._release_slot)
        return future

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelExecutor(workers={self._workers}, "
            f"backend={self._backend!r}, "
            f"datasets={self._service.list_datasets()})"
        )

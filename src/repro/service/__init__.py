"""Typed request/response service API over the query engine (protocol v2).

This package is the serving boundary of the repository — the layer a CLI,
batch runner, or future async/HTTP front end talks to.  The layering is
strictly::

    service   (typed requests -> result envelopes, named dataset sessions)
       |
    engine    (QueryEngine: LRU cache, statistics)
       |
    backend   (SLING index, disk-backed SLING, baselines)

* :mod:`repro.service.queries` — frozen, validated **data-plane** request
  dataclasses (:class:`SinglePairQuery`, :class:`SingleSourceQuery`,
  :class:`TopKQuery`, :class:`AllPairsQuery`);
* :mod:`repro.service.control` — frozen **control-plane** request
  dataclasses (:class:`PingRequest`, :class:`OpenDatasetRequest`,
  :class:`CloseDatasetRequest`, :class:`ListDatasetsRequest`,
  :class:`StatsRequest`, :class:`DescribeRequest`, :class:`MutateRequest`,
  :class:`ShutdownRequest`) — admin operations that ride the same wire as
  queries and come back as the same envelopes;
* :mod:`repro.service.mutations` — the mutation control-plane:
  :func:`apply_mutation` applies a ``mutate`` request's edge delta to a
  live session in place (incremental index repair, version-scoped engine
  cache invalidation, optional re-freeze);
* :mod:`repro.service.results` — the :class:`QueryResult` envelope (value +
  dataset + backend + latency + cache-hit flag, or a structured
  :class:`QueryError` — bad requests never raise across the boundary), and
  :class:`SparseScores`, the nonzeros form ``single_source`` values take
  (NumPy columns in process, base64 columns on the wire);
* :mod:`repro.service.service` — :class:`SimRankService`, which manages named
  dataset sessions (lazy open, one engine per backend actually used,
  close / list / describe / aggregate statistics) and dispatches both
  planes through :meth:`~repro.service.service.SimRankService.execute_request`
  (wire dicts are decoded first by :func:`~repro.service.wire.decode_envelope`);
* :mod:`repro.service.wire` — the JSONL wire protocol v2: versioned request
  envelopes (``v`` / client-assigned ``id`` echoed on every response /
  ``chunk_size``), the ``hello`` handshake frame, and chunked
  ``partial``/``done`` result streaming.  Bare v1 query lines decode as v2
  with ``id: null``;
* :mod:`repro.service.client` — :class:`SimRankClient`, the typed client
  library with in-process, ``repro serve``-subprocess, and socket
  transports;
* :mod:`repro.service.parallel` — :class:`ParallelExecutor`, the worker pool
  behind ``repro batch --workers N``, ``repro serve`` and every socket
  connection: one future per request, per-request error envelopes, load
  shedding and deadlines;
* :mod:`repro.service.net` — the socket layer: :class:`SocketServer`
  (``repro serve --listen/--unix``), and :class:`WorkerPool` +
  :class:`Router` (``repro router``) for multi-process sharded serving
  with health-checked failover.
"""

# ``net`` before ``client``: the router imports the client, which imports
# ``net.channel`` — entering through the client would reach the router
# while the client is still half-built.
from .net import (
    DEFAULT_MAX_LINE_BYTES,
    Address,
    HashRing,
    LineChannel,
    OversizedLineError,
    Router,
    SocketServer,
    WorkerPool,
    parse_address,
)
from .client import RetryPolicy, ServiceError, SimRankClient
from .control import (
    CONTROL_KINDS,
    CloseDatasetRequest,
    ControlRequest,
    DescribeRequest,
    ListDatasetsRequest,
    MutateRequest,
    OpenDatasetRequest,
    PingRequest,
    ShutdownRequest,
    StatsRequest,
    control_from_wire,
    request_from_wire,
)
from .mutations import apply_mutation, mutate_session, recover_session
from .parallel import ParallelExecutor
from .queries import (
    QUERY_KINDS,
    AllPairsQuery,
    Query,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
    query_from_wire,
)
from .results import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_NODE_OUT_OF_RANGE,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ERROR_UNAVAILABLE,
    ERROR_UNKNOWN_DATASET,
    RETRYABLE_ERROR_CODES,
    QueryError,
    QueryResult,
    SparseScores,
    result_from_wire,
)
from .service import DatasetSession, ServiceConfig, SimRankService
from .wal import FAIL_AFTER_ENV, MutationWAL
from .wire import (
    PROTOCOL_VERSION,
    RequestEnvelope,
    decode_envelope,
    decode_envelope_line,
    decode_request,
    decode_result,
    encode_frame,
    encode_request,
    encode_response,
    encode_result,
    response_frames,
    result_from_frames,
)

__all__ = [
    "Query",
    "SinglePairQuery",
    "SingleSourceQuery",
    "TopKQuery",
    "AllPairsQuery",
    "QUERY_KINDS",
    "query_from_wire",
    "ControlRequest",
    "PingRequest",
    "OpenDatasetRequest",
    "CloseDatasetRequest",
    "ListDatasetsRequest",
    "StatsRequest",
    "DescribeRequest",
    "MutateRequest",
    "ShutdownRequest",
    "CONTROL_KINDS",
    "control_from_wire",
    "request_from_wire",
    "apply_mutation",
    "mutate_session",
    "recover_session",
    "MutationWAL",
    "FAIL_AFTER_ENV",
    "QueryError",
    "QueryResult",
    "SparseScores",
    "result_from_wire",
    "ERROR_BAD_REQUEST",
    "ERROR_UNKNOWN_DATASET",
    "ERROR_NODE_OUT_OF_RANGE",
    "ERROR_INTERNAL",
    "ERROR_UNAVAILABLE",
    "ERROR_OVERLOADED",
    "ERROR_DEADLINE_EXCEEDED",
    "ERROR_TIMEOUT",
    "RETRYABLE_ERROR_CODES",
    "Address",
    "parse_address",
    "LineChannel",
    "OversizedLineError",
    "DEFAULT_MAX_LINE_BYTES",
    "SocketServer",
    "HashRing",
    "WorkerPool",
    "Router",
    "ServiceConfig",
    "DatasetSession",
    "SimRankService",
    "ParallelExecutor",
    "SimRankClient",
    "ServiceError",
    "RetryPolicy",
    "PROTOCOL_VERSION",
    "RequestEnvelope",
    "encode_request",
    "decode_request",
    "encode_result",
    "decode_result",
    "encode_frame",
    "encode_response",
    "decode_envelope",
    "decode_envelope_line",
    "response_frames",
    "result_from_frames",
]

"""The response envelope every service call returns.

A :class:`QueryResult` is the *only* thing that crosses the service boundary:
successful queries carry their value plus provenance (dataset, backend,
latency, whether the engine's cache answered);
failed ones carry a structured :class:`QueryError` instead of an exception.
``value`` is plain JSON-able Python (floats, lists, dicts), except for
``single_source``, whose :class:`SparseScores` has a JSON-able
:meth:`~SparseScores.to_wire` form; :meth:`QueryResult.to_wire` applies it,
so the envelope still serialises to one JSONL line.

Value shapes by kind (in-process type, then wire form):

=============== ==========================================================
``single_pair``   ``float``
``single_source`` :class:`SparseScores`; on the wire its nonzeros,
                  ``{"n": int, "index": [int, ...], "value": [float, ...]}``
                  with strictly increasing node ids.  ``np.asarray`` of it
                  is the dense length-``n`` vector (index = node id).
``top_k``         ``list[{"rank": int, "node": int, "score": float}]``
``all_pairs``     ``list[list[float]]`` (row = source node)
=============== ==========================================================

A SimRank single-source vector is mostly zeros on sparse graphs: on the
6,000-node Google stand-in (epsilon 0.025) the median answer has ~14
nonzeros, and its response line is ~650 B instead of ~24.5 KB dense.  The
worst case, a vector with no zero at all, adds one id per full-precision
score: at most 1.5x the dense list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import lt

import numpy as np

from ..exceptions import WireFormatError

__all__ = [
    "ERROR_BAD_REQUEST",
    "ERROR_UNKNOWN_DATASET",
    "ERROR_NODE_OUT_OF_RANGE",
    "ERROR_INTERNAL",
    "ERROR_UNAVAILABLE",
    "ERROR_OVERLOADED",
    "ERROR_DEADLINE_EXCEEDED",
    "ERROR_TIMEOUT",
    "RETRYABLE_ERROR_CODES",
    "QueryError",
    "QueryResult",
    "SparseScores",
    "result_from_wire",
]

#: The request could not be decoded or failed field validation.
ERROR_BAD_REQUEST = "bad_request"
#: The request names a dataset that is neither open nor in the registry.
ERROR_UNKNOWN_DATASET = "unknown_dataset"
#: A node id falls outside the dataset's ``[0, n)`` range.
ERROR_NODE_OUT_OF_RANGE = "node_out_of_range"
#: The backend raised unexpectedly; the message carries the original error.
ERROR_INTERNAL = "internal_error"
#: The transport or a worker process died before answering; the request may
#: be retried once the server (or the router's replacement worker) is back.
ERROR_UNAVAILABLE = "unavailable"
#: The server shed the request because its bounded queue (or the router's
#: per-worker in-flight cap) was full.  Retry after backing off.
ERROR_OVERLOADED = "overloaded"
#: The request's ``deadline_ms`` budget expired before a worker could
#: (finish) computing it; the answer would have been dead on arrival.
ERROR_DEADLINE_EXCEEDED = "deadline_exceeded"
#: The client-side read timeout elapsed with no response frame; emitted by
#: the client itself (the connection is re-established before reuse).
ERROR_TIMEOUT = "timeout"

#: Codes a client may safely retry: queries are idempotent, and ``mutate``
#: retries are deduplicated by ``mutation_id`` in the worker's WAL.
RETRYABLE_ERROR_CODES = frozenset(
    {ERROR_UNAVAILABLE, ERROR_OVERLOADED, ERROR_TIMEOUT}
)


@dataclass(frozen=True)
class SparseScores:
    """A ``single_source`` answer kept as its nonzeros.

    ``index`` holds the node ids with a nonzero score, strictly increasing,
    and ``value`` their scores; every other of the ``n`` nodes scores 0.
    ``np.asarray(scores)`` (or :meth:`to_dense`) rebuilds the length-``n``
    vector bit for bit — a ``-0.0`` counts as nonzero and is kept.

    Deliberately not a sequence (no ``len``, iteration or indexing): code
    that zipped the old dense list against another vector would silently
    pair up nonzeros; densify first.
    """

    n: int
    index: list[int]
    value: list[float]

    @classmethod
    def from_dense(cls, vector: np.ndarray) -> "SparseScores":
        """The nonzeros of a dense float vector (index = node id)."""
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        # Nonzero by bit pattern, so ``-0.0`` survives the round trip.
        index = np.flatnonzero(vector.view(np.int64))
        return cls(vector.shape[0], index.tolist(), vector[index].tolist())

    def to_wire(self) -> dict:
        """The JSON-able ``{"n", "index", "value"}`` form."""
        return {"n": self.n, "index": self.index, "value": self.value}

    def to_dense(self) -> np.ndarray:
        """The dense length-``n`` float64 vector."""
        dense = np.zeros(self.n, dtype=np.float64)
        dense[self.index] = self.value
        return dense

    def tolist(self) -> list[float]:
        """The dense vector as a plain list (the pre-sparse value shape)."""
        return self.to_dense().tolist()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = self.to_dense()
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _sparse_from_wire(payload: object) -> SparseScores:
    """Decode and validate the wire form of a :class:`SparseScores`.

    Raises :class:`~repro.exceptions.WireFormatError` unless ``n`` is a
    non-negative int, ``index``/``value`` are equal-length lists, every id
    is an int in ``[0, n)`` and the ids strictly increase, and every score
    is a number.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            "single_source value must be an object with n/index/value, "
            f"got {type(payload).__name__}"
        )
    n, index, value = payload.get("n"), payload.get("index"), payload.get("value")
    if type(n) is not int or n < 0:
        raise WireFormatError(f"single_source n must be a non-negative int, got {n!r}")
    if type(index) is not list or type(value) is not list:
        raise WireFormatError("single_source index and value must be lists")
    if len(index) != len(value):
        raise WireFormatError(
            f"single_source has {len(index)} indexes but {len(value)} values"
        )
    if index:
        # Whole-list checks in C (type sets, pairwise ``<``) instead of a
        # Python loop: this runs once per decoded answer.
        if not set(map(type, index)) <= {int}:
            raise WireFormatError("single_source indexes must be ints")
        if not set(map(type, value)) <= {float, int}:
            raise WireFormatError("single_source values must be numbers")
        if index[0] < 0 or index[-1] >= n:
            raise WireFormatError(
                f"single_source index out of range [0, {n}): "
                f"{index[0] if index[0] < 0 else index[-1]}"
            )
        if not all(map(lt, index, index[1:])):
            raise WireFormatError(
                "single_source indexes must be strictly increasing"
            )
    return SparseScores(n, index, value)


def _check_type(name: str, value: object, expected: type) -> None:
    """Raise unless ``value`` is ``None`` (absent) or an ``expected``."""
    if value is not None and type(value) is not expected:
        raise WireFormatError(
            f"result {name} must be a {expected.__name__}, got {value!r}"
        )


def _is_finite_number(value: object) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _check_top_k(value: object) -> None:
    """Raise unless ``value`` is a list of ``{"rank": int, "node": int,
    "score": finite number}`` entries."""
    if type(value) is not list or not all(
        type(entry) is dict
        and type(entry.get("rank")) is int
        and type(entry.get("node")) is int
        and _is_finite_number(entry.get("score"))
        for entry in value
    ):
        raise WireFormatError(
            "top_k value must be a list of rank/node/score entries "
            f"(int, int, finite number), got {value!r}"
        )


@dataclass(frozen=True)
class QueryError:
    """Structured failure description carried by an error envelope."""

    code: str
    message: str
    #: Optional machine-readable context (e.g. ``{"line": 17}`` for a
    #: malformed line in a ``repro batch`` input file); omitted from the
    #: wire form when empty.
    detail: dict | None = None

    def to_wire(self) -> dict:
        """Plain-dict form for JSON output."""
        payload = {"code": self.code, "message": self.message}
        if self.detail is not None:
            payload["detail"] = self.detail
        return payload


@dataclass(frozen=True)
class QueryResult:
    """Uniform envelope for every service response (success or failure)."""

    ok: bool
    kind: str | None
    dataset: str | None
    value: object = None
    backend: str | None = None
    seconds: float = 0.0
    cache_hit: bool | None = None
    #: Monotonic mutation version of the index that answered (``None`` for
    #: sessions whose graph has never been mutated — the static wire form is
    #: unchanged).  Lets a client assert an answer reflects at least the
    #: version a mutation ack reported.
    index_version: int | None = None
    error: QueryError | None = None

    @classmethod
    def success(
        cls,
        *,
        kind: str,
        dataset: str,
        value: object,
        backend: str,
        seconds: float,
        cache_hit: bool | None,
        index_version: int | None = None,
        plan: object = None,
    ) -> "QueryResult":
        """A successful envelope; ``value`` must already be JSON-able (or a
        :class:`SparseScores`).

        ``plan`` is accepted and ignored so callers written against the
        envelope's former ``plan`` field keep working.

        Built by populating ``__dict__`` directly instead of the generated
        ``__init__``: the frozen dataclass assigns fields one
        ``object.__setattr__`` at a time, which is the single largest cost on
        the service's warm-cache hot path (``service.*_self_ms`` in
        perfbench's traced ladder).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "__dict__", {
            "ok": True,
            "kind": kind,
            "dataset": dataset,
            "value": value,
            "backend": backend,
            "seconds": seconds,
            "cache_hit": cache_hit,
            "index_version": index_version,
            "error": None,
        })
        return self

    @classmethod
    def failure(
        cls,
        code: str,
        message: str,
        *,
        kind: str | None = None,
        dataset: str | None = None,
        seconds: float = 0.0,
        detail: dict | None = None,
    ) -> "QueryResult":
        """An error envelope; ``kind``/``dataset`` are best-effort context."""
        return cls(
            ok=False,
            kind=kind,
            dataset=dataset,
            seconds=seconds,
            error=QueryError(code=code, message=message, detail=detail),
        )

    def with_error_detail(self, **detail: object) -> "QueryResult":
        """This envelope with ``detail`` merged into its error object.

        A no-op on successful envelopes — the batch runner calls it
        unconditionally to stamp input line numbers onto decode failures.
        """
        if self.ok or self.error is None or not detail:
            return self
        merged = {**(self.error.detail or {}), **detail}
        return QueryResult(
            ok=False,
            kind=self.kind,
            dataset=self.dataset,
            seconds=self.seconds,
            error=QueryError(
                code=self.error.code, message=self.error.message, detail=merged
            ),
        )

    def to_wire(self) -> dict:
        """One JSON-able dict — exactly one JSONL line of the wire protocol."""
        payload = {
            "ok": self.ok,
            "kind": self.kind,
            "dataset": self.dataset,
            "seconds": self.seconds,
        }
        if self.ok:
            value = self.value
            payload["value"] = (
                value.to_wire() if type(value) is SparseScores else value
            )
            payload["backend"] = self.backend
            payload["cache_hit"] = self.cache_hit
            if self.index_version is not None:
                payload["index_version"] = self.index_version
        else:
            assert self.error is not None
            payload["error"] = self.error.to_wire()
        return payload


def result_from_wire(payload: object) -> QueryResult:
    """Decode one wire dict back into a :class:`QueryResult`.

    Used by wire-protocol clients, the router (every worker reply crosses
    it) and the round-trip tests; raises
    :class:`~repro.exceptions.WireFormatError` on malformed payloads:
    ``seconds`` must be a finite number; ``kind``, ``dataset`` and
    ``backend`` strings, ``cache_hit`` a bool and ``index_version`` an int
    when present; a query value must have its kind's shape (see the table
    above); and an error's ``code`` and ``message`` must be strings.  Keys
    it does not know (such as the retired ``plan``) are ignored.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"result must be a JSON object, got {type(payload).__name__}"
        )
    if "ok" not in payload or not isinstance(payload["ok"], bool):
        raise WireFormatError("result payload must carry a boolean 'ok' field")
    seconds = payload.get("seconds", 0.0)
    if type(seconds) not in (int, float) or not math.isfinite(seconds):
        raise WireFormatError(f"result seconds must be a finite number, got {seconds!r}")
    kind, dataset = payload.get("kind"), payload.get("dataset")
    _check_type("kind", kind, str)
    _check_type("dataset", dataset, str)
    common = {"kind": kind, "dataset": dataset, "seconds": float(seconds)}
    if payload["ok"]:
        version = payload.get("index_version")
        if version is not None and type(version) is not int:
            raise WireFormatError(f"result index_version must be an int, got {version!r}")
        backend, cache_hit = payload.get("backend"), payload.get("cache_hit")
        _check_type("backend", backend, str)
        _check_type("cache_hit", cache_hit, bool)
        value = payload.get("value")
        if kind == "single_source":
            value = _sparse_from_wire(value)
        elif kind == "single_pair" and not _is_finite_number(value):
            raise WireFormatError(
                f"single_pair value must be a finite number, got {value!r}"
            )
        elif kind == "top_k":
            _check_top_k(value)
        return QueryResult.success(
            value=value,
            backend=backend,
            cache_hit=cache_hit,
            index_version=version,
            **common,
        )
    error = payload.get("error")
    if not isinstance(error, dict) or "code" not in error:
        raise WireFormatError("error envelope must carry an 'error' object with a code")
    code, message = error["code"], error.get("message", "")
    if type(code) is not str or type(message) is not str:
        raise WireFormatError("error envelope code and message must be strings")
    detail = error.get("detail")
    return QueryResult(
        ok=False,
        error=QueryError(
            code=code,
            message=message,
            detail=detail if isinstance(detail, dict) else None,
        ),
        **common,
    )

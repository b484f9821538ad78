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
``single_source`` :class:`SparseScores`; on the wire its nonzeros as two
                  binary columns, ``{"n": int, "index": "<base64>",
                  "value": "<base64>"}``: little-endian int32 node ids,
                  strictly increasing, and little-endian float64 scores.
                  ``np.asarray`` of it is the dense length-``n`` vector
                  (index = node id).
``top_k``         ``list[{"rank": int, "node": int, "score": float}]``
``all_pairs``     ``list[list[float]]`` (row = source node)
=============== ==========================================================

A SimRank single-source vector is mostly zeros on sparse graphs: on the
6,000-node Google stand-in (epsilon 0.025) the median answer has ~14
nonzeros.  Each nonzero costs 12 bytes, 16 characters once base64-encoded,
about what one full-precision decimal score costs in a dense list; and the
columns are bit-exact by construction, encoded and decoded without a
decimal conversion.
"""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass

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


#: The wire dtypes of the two columns: little-endian int32 ids and float64
#: scores, whatever the host's byte order.
_INDEX_DTYPE = np.dtype("<i4")
_VALUE_DTYPE = np.dtype("<f8")

#: Node ids travel as int32, so a vector may have at most this many nodes.
_MAX_NODES = 2**31


def _frozen(data: object, dtype: type) -> np.ndarray:
    """A read-only 1-D ``dtype`` array over ``data`` (a view, never the
    caller's array itself, so its flags are left alone)."""
    array = np.asarray(data, dtype=dtype).view()
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D column, got shape {array.shape}")
    array.flags.writeable = False
    return array


def _b64(column: np.ndarray, dtype: np.dtype) -> str:
    """Base64 of a column's little-endian bytes (no copy on a
    little-endian host)."""
    data = np.ascontiguousarray(column, dtype=dtype)
    return binascii.b2a_base64(data, newline=False).decode("ascii")


@dataclass(frozen=True, eq=False)
class SparseScores:
    """A ``single_source`` answer kept as its nonzeros.

    ``index`` holds the node ids with a nonzero score, strictly increasing,
    and ``value`` their scores; every other of the ``n`` nodes scores 0.
    Both are read-only NumPy columns (``int32`` and ``float64``); lists
    passed to the constructor are converted.  ``np.asarray(scores)`` (or
    :meth:`to_dense`) rebuilds the length-``n`` vector bit for bit — a
    ``-0.0`` counts as nonzero and is kept.  Two answers are ``==`` when
    ``n`` matches and both columns are bitwise equal.

    Deliberately not a sequence (no ``len``, iteration or indexing): code
    that zipped the old dense list against another vector would silently
    pair up nonzeros; densify first.
    """

    n: int
    index: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        if type(self.n) is not int or not 0 <= self.n < _MAX_NODES:
            raise ValueError(
                f"n must be an int in [0, 2**31), got {self.n!r}"
            )
        index = _frozen(self.index, np.int32)
        value = _frozen(self.value, np.float64)
        if index.size != value.size:
            raise ValueError(
                f"{index.size} indexes but {value.size} values"
            )
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "value", value)

    @classmethod
    def _adopt(cls, n: int, index: np.ndarray, value: np.ndarray) -> "SparseScores":
        """Wrap ``int32``/``float64`` arrays no caller holds (made here, or
        views of immutable bytes) without the constructor's conversions,
        which on a small answer cost as much as all the wire checks."""
        index.flags.writeable = False
        value.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "__dict__", {"n": n, "index": index, "value": value})
        return self

    @classmethod
    def from_dense(cls, vector: np.ndarray) -> "SparseScores":
        """The nonzeros of a dense float vector (index = node id)."""
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        n = vector.shape[0]
        if n >= _MAX_NODES:
            raise ValueError(f"{n} nodes do not fit int32 node ids")
        # Nonzero by bit pattern, so ``-0.0`` survives the round trip.
        index = np.flatnonzero(vector.view(np.int64))
        return cls._adopt(n, index.astype(np.int32), vector[index])

    @classmethod
    def from_columns(cls, n: object, index: bytes, value: bytes) -> "SparseScores":
        """Validate the column bytes of a wire answer, as
        :func:`decode_columns` returns them (joined, for a chunked one).

        The arrays are views of the bytes (no copy on a little-endian
        host).  Raises :class:`~repro.exceptions.WireFormatError` unless
        ``n`` is an int in ``[0, 2**31)``, the ids strictly increase within
        ``[0, n)``, and every score is finite.
        """
        if type(n) is not int or not 0 <= n < _MAX_NODES:
            raise WireFormatError(
                f"single_source n must be an int in [0, 2**31), got {n!r}"
            )
        ids = np.frombuffer(index, dtype=_INDEX_DTYPE)
        scores = np.frombuffer(value, dtype=_VALUE_DTYPE)
        if ids.size:
            if not (ids[1:] > ids[:-1]).all():
                raise WireFormatError(
                    "single_source indexes must be strictly increasing"
                )
            if ids[0] < 0 or ids[-1] >= n:
                raise WireFormatError(
                    f"single_source index out of range [0, {n}): "
                    f"{ids[0] if ids[0] < 0 else ids[-1]}"
                )
            if not np.isfinite(scores).all():
                raise WireFormatError("single_source scores must be finite")
        return cls._adopt(
            n, ids.astype(np.int32, copy=False), scores.astype(np.float64, copy=False)
        )

    def columns(self, start: int = 0, stop: int | None = None) -> dict:
        """The wire columns of pairs ``[start, stop)``: base64 of the
        little-endian int32 ids and float64 scores."""
        return {
            "index": _b64(self.index[start:stop], _INDEX_DTYPE),
            "value": _b64(self.value[start:stop], _VALUE_DTYPE),
        }

    def to_wire(self) -> dict:
        """The JSON-able ``{"n", "index", "value"}`` form."""
        return {"n": self.n, **self.columns()}

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

    def __eq__(self, other: object) -> bool:
        if type(other) is not SparseScores:
            return NotImplemented
        return (
            self.n == other.n
            and self.index.tobytes() == other.index.tobytes()
            and self.value.tobytes() == other.value.tobytes()
        )

    __hash__ = None  # type: ignore[assignment]


def _decode_column(text: object, name: str) -> bytes:
    """The bytes of one base64 wire column (strict: no stray characters,
    exact padding)."""
    if type(text) is not str:
        raise WireFormatError(
            f"single_source {name} must be a base64 string, got "
            f"{type(text).__name__}"
        )
    try:
        return binascii.a2b_base64(text, strict_mode=True)
    except (binascii.Error, ValueError) as exc:
        raise WireFormatError(f"single_source {name} is not base64: {exc}") from exc


def decode_columns(payload: object) -> tuple[bytes, bytes, int]:
    """The id bytes, score bytes and pair count of a wire
    ``{"index", "value"}`` object: a whole ``single_source`` value or one
    ``partial`` frame's chunk of it.

    Raises :class:`~repro.exceptions.WireFormatError` unless both columns
    are strict base64 of whole int32 ids and float64 scores, equally many;
    :meth:`SparseScores.from_columns` checks the ids and scores themselves.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            "single_source value must be an object with index and value "
            f"columns, got {type(payload).__name__}"
        )
    index = _decode_column(payload.get("index"), "index")
    value = _decode_column(payload.get("value"), "value")
    pairs, stray = divmod(len(index), _INDEX_DTYPE.itemsize)
    if stray or len(value) != pairs * _VALUE_DTYPE.itemsize:
        raise WireFormatError(
            f"single_source columns of {len(index)} and {len(value)} bytes "
            "are not equally many int32 ids and float64 scores"
        )
    return index, value, pairs


def _sparse_from_wire(payload: object) -> SparseScores:
    """Decode and validate the wire form of a :class:`SparseScores`."""
    index, value, _ = decode_columns(payload)
    return SparseScores.from_columns(payload.get("n"), index, value)


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
        if kind == "single_source" and type(value) is not SparseScores:
            # A chunked response arrives here already reassembled and
            # checked by :func:`~repro.service.wire.result_from_frames`.
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

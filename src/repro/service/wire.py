"""JSON / JSONL encoding of service requests and responses (protocol v2).

The wire protocol is line-oriented: one JSON object per line, requests in,
frames out.  A v2 request is a query or control body, optionally wrapped
with envelope keys::

    {"v": 2, "id": 7, "kind": "top_k", "dataset": "GrQc", "node": 3, "k": 5}

and comes back as a response envelope that echoes the id::

    {"v": 2, "id": 7, "ok": true, "kind": "top_k", "dataset": "GrQc",
     "seconds": ..., "value": [...], "backend": "sling", "cache_hit": false}

The envelope keys are:

* ``id`` — an optional client-assigned correlation token (string or int),
  echoed verbatim on every frame of the response.  Ids are opaque to the
  server: it neither requires nor deduplicates them.
* ``v`` — the protocol version the client speaks (``1`` or ``2``).  Bare
  v1 lines (no envelope keys at all) keep working: they decode as v2 with
  ``id: null`` and are answered unchunked.
* ``chunk_size`` — ask for a large result (``single_source``,
  ``all_pairs``) to be streamed as bounded ``partial`` frames followed by a
  terminal ``done`` frame instead of one giant line.  ``all_pairs`` is
  chunked by rows::

      {"v":2,"frame":"partial","id":7,"kind":"all_pairs", ...,
       "seq":0,"offset":0,"value":[...at most chunk_size rows...]}
      {"v":2,"frame":"done","id":7,"ok":true, ..., "chunks":4,"total":2048}

  ``single_source`` values travel as their nonzeros, two base64 columns
  of little-endian int32 ids and float64 scores
  (``{"n":..,"index":"<base64>","value":"<base64>"}``, see
  :class:`~repro.service.results.SparseScores`), so they are chunked by
  nonzeros: each partial carries the columns of at most ``chunk_size``
  ``(index, value)`` pairs, ``offset`` counts the pairs already sent, and
  the ``done`` frame adds ``n`` while ``total`` counts the pairs::

      {"v":2,"frame":"partial","id":7,"kind":"single_source", ...,
       "seq":0,"offset":0,"value":{"index":"AQAAAA...","value":"AAAA..."}}
      {"v":2,"frame":"done","id":7,"ok":true, ..., "n":6000,
       "chunks":2,"total":300}

  The ``done`` frame carries everything a monolithic response does except
  ``value``; concatenating the partials in ``seq`` order reconstructs the
  value exactly (:func:`result_from_frames`).  A result with at most
  ``chunk_size`` rows or nonzeros goes out as one monolithic line.

A serve loop additionally opens with a ``hello`` frame (``{"v":2,
"frame":"hello","protocol":2,...}``) advertising the protocol version,
available backends, and open datasets — see
:meth:`~repro.service.service.SimRankService.hello_payload`.

Malformed lines never raise across the boundary — they decode into error
envelopes (``ok: false`` with a structured ``error`` object), which is what
``repro batch`` emits for them.  This module owns the string-level layer
and the envelope codec; the dict-level body codecs live with the
dataclasses (:func:`~repro.service.queries.query_from_wire`,
:func:`~repro.service.control.request_from_wire`,
:func:`~repro.service.results.result_from_wire`).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..exceptions import ParameterError, WireFormatError
from .control import ControlRequest, request_from_wire
from .queries import Query, query_from_wire
from .results import (
    ERROR_BAD_REQUEST,
    QueryResult,
    SparseScores,
    decode_columns,
    result_from_wire,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ENVELOPE_KEYS",
    "RequestEnvelope",
    "encode_request",
    "decode_request",
    "decode_envelope",
    "decode_envelope_line",
    "encode_result",
    "decode_result",
    "encode_frame",
    "encode_response",
    "response_frames",
    "result_from_frames",
]

#: The protocol version this codebase speaks (and advertises in ``hello``).
PROTOCOL_VERSION = 2

#: Compact separators — wire lines carry no padding whitespace.
_SEPARATORS = (",", ":")

#: Request-envelope keys, stripped before the body is decoded.
ENVELOPE_KEYS = frozenset({"v", "id", "chunk_size", "deadline_ms"})

#: Result kinds whose list values may be chunked into ``partial`` frames.
CHUNKABLE_KINDS = frozenset({"single_source", "all_pairs"})


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=_SEPARATORS)


# --------------------------------------------------------------------- #
# v1 string-level codec (kept verbatim for embedders and the tests)
# --------------------------------------------------------------------- #
def encode_request(query: Query | ControlRequest) -> str:
    """One JSONL line for ``query`` (bare body, no envelope keys)."""
    return _dumps(query.to_wire())


def decode_request(line: str) -> Query:
    """Parse one JSONL request line into a typed query.

    Raises :class:`~repro.exceptions.WireFormatError` when the line is not
    valid JSON or not a well-formed request (callers that must not raise —
    the batch runner — catch it and emit an error envelope instead).
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireFormatError(f"invalid JSON: {exc}") from exc
    return query_from_wire(payload)


def _decode_failure(payload: object, exc: Exception) -> QueryResult:
    """The one place decode-failure envelopes are shaped (best-effort
    ``kind``/``dataset`` context included), so they can never diverge
    between the service and the serve loop."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    dataset = payload.get("dataset") if isinstance(payload, dict) else None
    return QueryResult.failure(
        ERROR_BAD_REQUEST,
        str(exc),
        kind=kind if isinstance(kind, str) else None,
        dataset=dataset if isinstance(dataset, str) else None,
    )


# --------------------------------------------------------------------- #
# v2 request envelope
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RequestEnvelope:
    """One decoded request line: the typed body plus its envelope keys.

    ``request`` is a :class:`~repro.service.queries.Query`, a
    :class:`~repro.service.control.ControlRequest`, or — when the body (or
    the envelope itself) could not be decoded — a pre-failed
    :class:`~repro.service.results.QueryResult` that passes through
    execution untouched.  Either way the line's fate is decided here, and
    the caller keeps ``id``/``chunk_size`` to shape the response frames.
    """

    request: Query | ControlRequest | QueryResult
    id: int | str | None = None
    chunk_size: int | None = None
    v: int = PROTOCOL_VERSION
    #: Remaining end-to-end budget in milliseconds, as written on the wire.
    #: ``None`` means "no deadline" — the pre-PR-10 behaviour.  Each hop
    #: (router, worker) re-measures elapsed time against :attr:`deadline`
    #: and either decrements the budget before forwarding or sheds the
    #: request with a ``deadline_exceeded`` envelope.
    deadline_ms: float | None = None
    #: Process-local absolute deadline on the ``time.monotonic()`` clock,
    #: computed at decode time.  Never crosses the wire (monotonic clocks
    #: are per-process); ``None`` when no deadline was requested.
    deadline: float | None = None

    def expired(self, now: float | None = None) -> bool:
        """Whether the deadline has already passed (``False`` when unset)."""
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline


def decode_envelope(payload: object) -> RequestEnvelope:
    """Decode one wire payload (body + optional envelope keys) — total.

    Never raises: an undecodable envelope or body yields a
    :class:`RequestEnvelope` whose ``request`` is a ``bad_request``
    envelope.  A valid ``id`` is preserved even when the rest of the line
    is garbage, so clients can correlate their failures.
    """
    if not isinstance(payload, dict):
        return RequestEnvelope(
            request=_decode_failure(
                payload,
                WireFormatError(
                    f"request must be a JSON object, got {type(payload).__name__}"
                ),
            )
        )
    request_id = payload.get("id")
    id_ok = request_id is None or (
        isinstance(request_id, (str, int)) and not isinstance(request_id, bool)
    )
    if not id_ok:
        return RequestEnvelope(
            request=_decode_failure(
                payload,
                WireFormatError(
                    f"id must be a string, an int, or null, got {request_id!r}"
                ),
            )
        )

    def fail(message: str) -> RequestEnvelope:
        return RequestEnvelope(
            request=_decode_failure(payload, WireFormatError(message)),
            id=request_id,
        )

    version = payload.get("v", PROTOCOL_VERSION)
    if isinstance(version, bool) or not isinstance(version, int) or not (
        1 <= version <= PROTOCOL_VERSION
    ):
        return fail(
            f"unsupported protocol version {version!r}; "
            f"this server speaks v1..v{PROTOCOL_VERSION}"
        )
    chunk_size = payload.get("chunk_size")
    if chunk_size is not None and (
        isinstance(chunk_size, bool)
        or not isinstance(chunk_size, int)
        or chunk_size < 1
    ):
        return fail(f"chunk_size must be a positive int, got {chunk_size!r}")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        or not math.isfinite(deadline_ms)
        or deadline_ms <= 0
    ):
        return fail(f"deadline_ms must be a positive number, got {deadline_ms!r}")

    body = {key: value for key, value in payload.items() if key not in ENVELOPE_KEYS}
    try:
        request: Query | ControlRequest | QueryResult = request_from_wire(body)
    except (WireFormatError, ParameterError) as exc:
        request = _decode_failure(body, exc)
    return RequestEnvelope(
        request=request,
        id=request_id,
        chunk_size=chunk_size,
        v=version,
        deadline_ms=float(deadline_ms) if deadline_ms is not None else None,
        deadline=(
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        ),
    )


def decode_envelope_line(line: str) -> RequestEnvelope:
    """Decode one raw JSONL line — total, like :func:`decode_envelope`."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        return RequestEnvelope(
            request=QueryResult.failure(ERROR_BAD_REQUEST, f"invalid JSON: {exc}")
        )
    return decode_envelope(payload)


# --------------------------------------------------------------------- #
# Response encoding
# --------------------------------------------------------------------- #
def encode_result(result: QueryResult) -> str:
    """One bare v1 JSONL line for ``result`` (no envelope keys)."""
    return _dumps(result.to_wire())


def decode_result(line: str) -> QueryResult:
    """Parse one JSONL result line back into a :class:`QueryResult`.

    Envelope keys (``v``/``id``/``frame`` metadata) are ignored, so v1 and
    v2 monolithic response lines both decode; chunked responses go through
    :func:`result_from_frames` instead.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireFormatError(f"invalid JSON: {exc}") from exc
    if isinstance(payload, dict):
        payload = {
            key: value
            for key, value in payload.items()
            if key not in ("v", "id")
        }
    return result_from_wire(payload)


def encode_frame(payload: dict) -> str:
    """One compact JSONL line for an already-shaped frame dict."""
    return _dumps(payload)


def encode_response(result: QueryResult, *, id: int | str | None = None) -> str:
    """One monolithic v2 response line: ``v`` + echoed ``id`` + envelope."""
    return _dumps({"v": PROTOCOL_VERSION, "id": id, **result.to_wire()})


def response_frames(
    result: QueryResult,
    *,
    id: int | str | None = None,
    chunk_size: int | None = None,
) -> Iterator[str]:
    """The encoded frame lines answering one request.

    Without ``chunk_size`` (or for error envelopes and non-chunkable
    kinds) this is exactly one monolithic line from :func:`encode_response`.
    With it, an ``all_pairs`` result with more than ``chunk_size`` rows, or
    a ``single_source`` result with more than ``chunk_size`` nonzeros,
    streams as ``partial`` frames of at most ``chunk_size`` rows (or
    ``(index, value)`` pairs) each, then a terminal ``done`` frame — so the
    peak line size is bounded by the chunk, not the graph.
    """
    value = result.value
    sparse = type(value) is SparseScores
    if sparse:
        total = value.index.size
    else:
        total = len(value) if isinstance(value, list) else 0
    if (
        not chunk_size
        or not result.ok
        or result.kind not in CHUNKABLE_KINDS
        or total <= chunk_size
    ):
        yield encode_response(result, id=id)
        return
    chunks = (total + chunk_size - 1) // chunk_size
    for seq in range(chunks):
        offset = seq * chunk_size
        stop = offset + chunk_size
        yield _dumps(
            {
                "v": PROTOCOL_VERSION,
                "frame": "partial",
                "id": id,
                "kind": result.kind,
                "dataset": result.dataset,
                "seq": seq,
                "offset": offset,
                "value": (
                    value.columns(offset, stop) if sparse else value[offset:stop]
                ),
            }
        )
    done = {"v": PROTOCOL_VERSION, "frame": "done", "id": id, **result.to_wire()}
    del done["value"]
    if sparse:
        done["n"] = value.n
    done["chunks"] = chunks
    done["total"] = total
    yield _dumps(done)


def result_from_frames(frames: Sequence[dict]) -> QueryResult:
    """Reassemble one response from its decoded frame payloads.

    Accepts either a single monolithic response payload or a full
    ``partial``... ``done`` sequence; the concatenated value is exactly the
    unchunked answer.  Raises :class:`~repro.exceptions.WireFormatError`
    on gaps, misordered partials, or a length mismatch with ``done``.
    """
    if not frames:
        raise WireFormatError("no frames to reassemble")
    if len(frames) == 1 and frames[0].get("frame") is None:
        payload = {
            key: value
            for key, value in frames[0].items()
            if key not in ("v", "id")
        }
        return result_from_wire(payload)
    *partials, done = frames
    if done.get("frame") != "done":
        raise WireFormatError(
            f"chunked response must end with a done frame, got {done.get('frame')!r}"
        )
    sparse = done.get("kind") == "single_source"
    items: list = []
    indexes: list[bytes] = []
    scores: list[bytes] = []
    received = 0
    for seq, frame in enumerate(partials):
        if frame.get("frame") != "partial":
            raise WireFormatError(
                f"expected a partial frame at seq {seq}, got {frame.get('frame')!r}"
            )
        if frame.get("seq") != seq:
            raise WireFormatError(
                f"partial frames out of order: expected seq {seq}, "
                f"got {frame.get('seq')!r}"
            )
        if frame.get("offset") != received:
            raise WireFormatError(
                f"partial frame offset {frame.get('offset')!r} does not match "
                f"{received} items received"
            )
        chunk = frame.get("value")
        if sparse:
            # Ids, their order (across partials too) and the scores are
            # checked once, on the joined columns below.
            index, value, pairs = decode_columns(chunk)
            indexes.append(index)
            scores.append(value)
            received += pairs
        else:
            if not isinstance(chunk, list):
                raise WireFormatError("partial frame value must be a list")
            items.extend(chunk)
            received += len(chunk)
    expected = done.get("total")
    if expected is not None and expected != received:
        raise WireFormatError(
            f"done frame claims {expected} items, received {received}"
        )
    payload = {
        key: val
        for key, val in done.items()
        if key not in ("v", "id", "frame", "chunks", "total", "n")
    }
    payload["value"] = (
        SparseScores.from_columns(
            done.get("n"), b"".join(indexes), b"".join(scores)
        )
        if sparse
        else items
    )
    return result_from_wire(payload)

"""Typed control-plane requests: managing the service over the wire.

Protocol v2 splits the wire API into a **data plane** (the query kinds in
:mod:`repro.service.queries`) and a **control plane** — the administrative
operations a remote caller needs to manage a long-lived server:

* :class:`PingRequest` — liveness probe; answers ``{"pong": true}``;
* :class:`OpenDatasetRequest` — open a registry dataset session eagerly
  (queries open sessions lazily; an explicit open lets a client pay the
  graph-load/index-build cost up front);
* :class:`CloseDatasetRequest` — drop a session (graph, engines, caches);
* :class:`ListDatasetsRequest` — names of the open sessions;
* :class:`StatsRequest` — the aggregate statistics snapshot (the same dict
  ``repro serve --stats`` dumps at shutdown, available on demand);
* :class:`DescribeRequest` — self-description: the service (protocol
  version, backends, open sessions, config) or one open session (graph
  size, per-engine backend info, cache state, statistics);
* :class:`MutateRequest` — apply an edge delta (add/remove) to one open
  dataset's live index, optionally forcing a re-freeze; the ack reports the
  new ``index_version`` and the certified staleness bound;
* :class:`ShutdownRequest` — ask a serve loop to stop accepting requests,
  drain what is in flight, and exit cleanly.

Control requests ride the same envelope as queries — one JSON object per
line with a ``kind`` discriminator, optionally wrapped with ``id``/``v`` —
and come back as the same :class:`~repro.service.results.QueryResult`
envelope (``kind`` echoes the control kind, ``value`` carries the control
payload, failures are structured error envelopes).  Because a line decoded
by :func:`~repro.service.wire.decode_envelope` is dispatched by
:meth:`~repro.service.service.SimRankService.execute_request`, every
consumer of the service — ``repro batch``, ``repro serve``, the
:class:`~repro.service.parallel.ParallelExecutor`, the
:class:`~repro.service.client.SimRankClient` — speaks the control plane
with no transport-specific code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from ..exceptions import ParameterError, WireFormatError
from .queries import QUERY_KINDS, Query, fields_from_wire, query_from_wire

__all__ = [
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
]


def _check_dataset(value: object) -> None:
    if not isinstance(value, str) or not value.strip():
        raise ParameterError(f"dataset must be a non-empty string, got {value!r}")


@dataclass(frozen=True)
class ControlRequest:
    """Base class for control-plane requests (no fields of its own)."""

    #: Wire-protocol discriminator; overridden by each concrete kind.
    kind: ClassVar[str] = ""

    def to_wire(self) -> dict:
        """Flat JSON-able dict form: ``kind`` plus every dataclass field."""
        payload = {"kind": self.kind}
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        return payload


@dataclass(frozen=True)
class PingRequest(ControlRequest):
    """Liveness probe; the cheapest possible round-trip."""

    kind: ClassVar[str] = "ping"


@dataclass(frozen=True)
class OpenDatasetRequest(ControlRequest):
    """Open (or touch) the session for a registry dataset eagerly."""

    kind: ClassVar[str] = "open_dataset"

    dataset: str

    def __post_init__(self) -> None:
        _check_dataset(self.dataset)


@dataclass(frozen=True)
class CloseDatasetRequest(ControlRequest):
    """Drop one dataset session (its graph, engines, and caches)."""

    kind: ClassVar[str] = "close_dataset"

    dataset: str

    def __post_init__(self) -> None:
        _check_dataset(self.dataset)


@dataclass(frozen=True)
class ListDatasetsRequest(ControlRequest):
    """Names of the open dataset sessions, in opening order."""

    kind: ClassVar[str] = "list_datasets"


@dataclass(frozen=True)
class StatsRequest(ControlRequest):
    """The aggregate statistics snapshot, on demand."""

    kind: ClassVar[str] = "stats"


@dataclass(frozen=True)
class DescribeRequest(ControlRequest):
    """Describe the service (no ``dataset``) or one open session."""

    kind: ClassVar[str] = "describe"

    dataset: str | None = None

    def __post_init__(self) -> None:
        if self.dataset is not None:
            _check_dataset(self.dataset)


def _check_edges(edges: object, field_name: str) -> tuple[tuple[int, int], ...]:
    if isinstance(edges, (str, bytes)) or not isinstance(edges, (list, tuple)):
        raise ParameterError(
            f"{field_name} must be a list of (u, v) edges, got {edges!r}"
        )
    normalized = []
    for edge in edges:
        if (
            isinstance(edge, (str, bytes))
            or not isinstance(edge, (list, tuple))
            or len(edge) != 2
        ):
            raise ParameterError(
                f"{field_name} entries must be (u, v) pairs, got {edge!r}"
            )
        u, v = edge
        if isinstance(u, bool) or isinstance(v, bool) or not (
            isinstance(u, int) and isinstance(v, int)
        ):
            raise ParameterError(
                f"{field_name} entries must hold integers, got {edge!r}"
            )
        if u < 0 or v < 0:
            raise ParameterError(
                f"{field_name} entries must be non-negative, got {edge!r}"
            )
        normalized.append((u, v))
    return tuple(normalized)


@dataclass(frozen=True)
class MutateRequest(ControlRequest):
    """Apply an edge delta to one open dataset's live index.

    ``add``/``remove`` are lists of ``[u, v]`` node-id pairs; ``refreeze``
    additionally compacts all accumulated deltas into a fresh frozen store
    (restoring rebuild-parity answers) before acknowledging.  The ack
    carries the new monotonic ``index_version``, the certified staleness
    bound ``epsilon_stale``, and the affected-set sizes.
    """

    kind: ClassVar[str] = "mutate"

    dataset: str
    add: tuple = ()
    remove: tuple = ()
    refreeze: bool = False
    #: Optional client-supplied idempotency token.  When the worker keeps a
    #: WAL, a replayed ``mutation_id`` answers with the originally recorded
    #: ack instead of applying the delta twice — which is what makes
    #: retrying a timed-out ``mutate`` safe.
    mutation_id: str | None = None

    def __post_init__(self) -> None:
        _check_dataset(self.dataset)
        object.__setattr__(self, "add", _check_edges(self.add, "add"))
        object.__setattr__(self, "remove", _check_edges(self.remove, "remove"))
        if not isinstance(self.refreeze, bool):
            raise ParameterError(
                f"refreeze must be a boolean, got {self.refreeze!r}"
            )
        if self.mutation_id is not None and (
            not isinstance(self.mutation_id, str) or not self.mutation_id.strip()
        ):
            raise ParameterError(
                f"mutation_id must be a non-empty string, got {self.mutation_id!r}"
            )

    def to_wire(self) -> dict:
        payload = super().to_wire()
        # Tuples become JSON arrays anyway; emit lists so to_wire output
        # round-trips through json.loads to an equal dict.
        payload["add"] = [list(edge) for edge in self.add]
        payload["remove"] = [list(edge) for edge in self.remove]
        # Omitted when unset so pre-PR-10 wire forms are byte-identical.
        if self.mutation_id is None:
            del payload["mutation_id"]
        return payload


@dataclass(frozen=True)
class ShutdownRequest(ControlRequest):
    """Ask a serve loop to drain in-flight requests and exit cleanly."""

    kind: ClassVar[str] = "shutdown"


#: Wire discriminator -> control class, for :func:`control_from_wire`.
CONTROL_KINDS: dict[str, type[ControlRequest]] = {
    cls.kind: cls
    for cls in (
        PingRequest,
        OpenDatasetRequest,
        CloseDatasetRequest,
        ListDatasetsRequest,
        StatsRequest,
        DescribeRequest,
        MutateRequest,
        ShutdownRequest,
    )
}


def control_from_wire(payload: object) -> ControlRequest:
    """Decode one wire dict into a typed control request.

    Exactly as strict as :func:`~repro.service.queries.query_from_wire`:
    unknown kinds, missing required fields, and unexpected extra keys raise
    :class:`~repro.exceptions.WireFormatError`.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind not in CONTROL_KINDS:
        raise WireFormatError(
            f"unknown control kind {kind!r}; expected one of "
            f"{', '.join(sorted(CONTROL_KINDS))}"
        )
    cls = CONTROL_KINDS[kind]
    return cls(**fields_from_wire(cls, kind, payload))


def request_from_wire(payload: object) -> Query | ControlRequest:
    """Decode one wire dict into a query **or** a control request.

    The union decoder behind protocol v2: the ``kind`` discriminator routes
    to whichever plane owns it, and an unrecognised kind's error message
    lists every kind the server understands.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind in QUERY_KINDS:
        return query_from_wire(payload)
    if kind in CONTROL_KINDS:
        return control_from_wire(payload)
    raise WireFormatError(
        f"unknown request kind {kind!r}; expected one of "
        f"{', '.join(sorted({**QUERY_KINDS, **CONTROL_KINDS}))}"
    )

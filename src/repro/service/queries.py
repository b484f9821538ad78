"""Typed, validated request objects for the service layer.

Each query kind the system can answer is one frozen dataclass carrying the
name of the dataset session it targets plus its kind-specific arguments:

* :class:`SinglePairQuery` — SimRank of one ``(node_u, node_v)`` pair;
* :class:`SingleSourceQuery` — SimRank from ``node`` to every node;
* :class:`TopKQuery` — the ``k`` nodes most similar to ``node``.

The full all-pairs matrix is not served (it is O(n²)); compute it in
process with :meth:`repro.sling.SlingIndex.all_pairs`.

Construction validates everything that can be checked without a graph (types,
signs, a non-empty dataset name) and raises
:class:`~repro.exceptions.ParameterError` on violation; graph-dependent checks
(does the dataset exist, is the node in range) happen inside
:class:`~repro.service.service.SimRankService`, which reports failures as
error envelopes instead of exceptions.

``to_wire`` emits the flat JSON-able dict form used by the JSONL wire
protocol; :func:`query_from_wire` is the strict inverse.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import ClassVar

from ..exceptions import ParameterError, WireFormatError

__all__ = [
    "Query",
    "SinglePairQuery",
    "SingleSourceQuery",
    "TopKQuery",
    "QUERY_KINDS",
    "query_from_wire",
    "fields_from_wire",
]


def _check_node(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class Query:
    """Base request: every query targets one named dataset session."""

    #: Wire-protocol discriminator; overridden by each concrete kind.
    kind: ClassVar[str] = ""

    dataset: str

    def __post_init__(self) -> None:
        if not isinstance(self.dataset, str) or not self.dataset.strip():
            raise ParameterError(
                f"dataset must be a non-empty string, got {self.dataset!r}"
            )

    def to_wire(self) -> dict:
        """Flat JSON-able dict form: ``kind`` plus every dataclass field."""
        payload = {"kind": self.kind}
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        return payload


@dataclass(frozen=True)
class SinglePairQuery(Query):
    """SimRank score of the pair ``(node_u, node_v)``."""

    kind: ClassVar[str] = "single_pair"

    node_u: int
    node_v: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node("node_u", self.node_u)
        _check_node("node_v", self.node_v)


@dataclass(frozen=True)
class SingleSourceQuery(Query):
    """SimRank from ``node`` to every node of the dataset."""

    kind: ClassVar[str] = "single_source"

    node: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node("node", self.node)


@dataclass(frozen=True)
class TopKQuery(Query):
    """The ``k`` nodes most similar to ``node``, ranked."""

    kind: ClassVar[str] = "top_k"

    node: int
    k: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node("node", self.node)
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k <= 0:
            raise ParameterError(f"k must be a positive int, got {self.k!r}")


#: Wire discriminator -> query class, for :func:`query_from_wire`.
QUERY_KINDS: dict[str, type[Query]] = {
    cls.kind: cls for cls in (SinglePairQuery, SingleSourceQuery, TopKQuery)
}


def fields_from_wire(cls: type, kind: str, payload: dict) -> dict:
    """Strictly extract ``cls``'s constructor arguments from a wire payload.

    Fields without defaults are required; fields with defaults are optional.
    Missing required fields and unexpected extra keys raise
    :class:`~repro.exceptions.WireFormatError`.  Shared by the query decoder
    below and the control-plane decoder
    (:func:`repro.service.control.control_from_wire`) so the two planes
    reject malformed requests identically.
    """
    specs = fields(cls)
    allowed = {spec.name for spec in specs}
    required = {
        spec.name
        for spec in specs
        if spec.default is MISSING and spec.default_factory is MISSING
    }
    given = set(payload) - {"kind"}
    missing = required - given
    if missing:
        raise WireFormatError(
            f"{kind} request is missing field(s): {', '.join(sorted(missing))}"
        )
    extra = given - allowed
    if extra:
        raise WireFormatError(
            f"{kind} request has unexpected field(s): {', '.join(sorted(extra))}"
        )
    return {name: payload[name] for name in given}


def query_from_wire(payload: object) -> Query:
    """Decode one wire dict into a typed query.

    The protocol is strict: the payload must be a JSON object whose ``kind``
    names a known query, carrying exactly that kind's fields — unknown kinds,
    missing fields, and unexpected extra keys all raise
    :class:`~repro.exceptions.WireFormatError` (field-level *value* violations
    raise :class:`~repro.exceptions.ParameterError` from the dataclass).
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind not in QUERY_KINDS:
        raise WireFormatError(
            f"unknown query kind {kind!r}; expected one of "
            f"{', '.join(sorted(QUERY_KINDS))}"
        )
    cls = QUERY_KINDS[kind]
    return cls(**fields_from_wire(cls, kind, payload))

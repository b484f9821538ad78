"""Realistic traffic modelling: seeded, drifting, bursty request streams.

The SkyServer Traffic Report (see PAPERS.md) documents what query traffic on
a long-running public scientific service actually looks like: a heavily
Zipf-skewed popularity distribution over targets, hot spots that *drift* as
new data releases shift attention, arrival bursts from crawlers and
classrooms, and a persistent uniform tail of one-off queries.  A uniformly
random workload (``random_pairs`` / ``random_sources``) has none of those
properties — and caching looks useless against it, because no source is ever
queried twice.

This module generates workloads with all four properties, deterministically
from a seed, as **wire-ready request streams**: every event wraps a typed
:class:`~repro.service.queries.Query` and knows its protocol-v2 envelope
form, so the *same* stream can drive a :class:`~repro.engine.QueryEngine`
directly, a :class:`~repro.service.SimRankService`, ``repro batch`` (via
:func:`events_to_jsonl`), or the socket router — which is what lets the
cache benchmarks claim engine-level and end-to-end numbers came from
identical traffic.

The model, per query:

1. pick a dataset uniformly from the configured sessions;
2. pick a kind from the configured ``top_k`` / ``single_source`` /
   ``single_pair`` mix;
3. pick the target source through a Zipf(``zipf_exponent``) draw over a
   permuted *source region* of the graph, where

   * the rank→node permutation shifts every ``drift_every`` queries
     (temporal drift: today's hot set is not last month's),
   * during a burst phase (``burst_every`` / ``burst_length``) draws
     concentrate on the ``hot_set_size`` currently-hottest ranks with
     probability ``burst_hot_bias``,
   * with probability ``tail_fraction`` the draw is uniform over the whole
     region instead (the long tail of one-off queries);

4. single-pair queries either target hot sources (``pair_mode="hot"``,
   building cross-kind admission pressure) or walk a cursor through nodes
   *outside* the source region (``pair_mode="cold"``, keeping pair answers
   cache-independent — what the benchmark's ``identical_values`` guard
   needs, because sling pair and vector reads agree only within the
   accuracy target, not bitwise).

Everything is driven by one ``random.Random(seed)``, so a
:class:`TrafficPattern` plus a node-count mapping fully determines the
stream.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Mapping

from ..exceptions import ParameterError
from ..service.control import ControlRequest, MutateRequest
from ..service.queries import (
    Query,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)
from ..service.wire import PROTOCOL_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service import QueryResult, SimRankService

__all__ = [
    "TrafficPattern",
    "TrafficEvent",
    "CHAOS_TRAFFIC_PROFILES",
    "chaos_pattern_overrides",
    "generate_traffic",
    "events_to_jsonl",
    "summarize_events",
    "traffic_sources",
    "replay_events",
]

#: Smallest graph a pattern can target: two nodes inside the source region
#: for vector queries plus (in ``cold`` pair mode) two outside it for pairs.
_MIN_NODES = 4


@dataclass(frozen=True)
class TrafficPattern:
    """Every knob of the workload model, validated at construction.

    The defaults describe a moderately skewed, slowly drifting, lightly
    bursty read-mostly service; benchmarks override them explicitly so the
    recorded JSON names the exact pattern measured.
    """

    #: Total events in the stream (across all datasets).
    num_queries: int = 1000
    #: Seed of the single ``random.Random`` driving every choice.
    seed: int = 0
    #: Zipf exponent of the source-popularity distribution (> 0; higher is
    #: more skewed; ~1.0–1.4 matches observed service traffic).
    zipf_exponent: float = 1.2
    #: How many of the hottest ranks a burst concentrates on.
    hot_set_size: int = 32
    #: Queries between hot-set drifts; 0 disables drift.
    drift_every: int = 200
    #: How many positions the rank→node permutation rotates per drift.
    drift_step: int = 1
    #: Period of the burst cycle in queries; 0 disables bursts.
    burst_every: int = 160
    #: Leading slice of each cycle that is the burst phase.
    burst_length: int = 32
    #: Probability a burst-phase draw is pinned to the hot set.
    burst_hot_bias: float = 0.85
    #: Probability any draw ignores popularity and lands uniformly in the
    #: source region — the long tail of one-off queries.
    tail_fraction: float = 0.10
    #: Fraction of events that are ``top_k`` queries.
    top_k_fraction: float = 0.65
    #: Fraction of events that are ``single_source`` queries; the remainder
    #: after ``top_k_fraction`` + ``single_source_fraction`` is
    #: ``single_pair`` traffic.
    single_source_fraction: float = 0.15
    #: ``k`` used by every generated top-k query.
    k: int = 10
    #: Fraction of each graph's nodes that form the source region popularity
    #: is distributed over (bounded below by 2 nodes).
    source_region: float = 0.5
    #: Hard cap on the source-region size in nodes; ``None`` means no cap.
    #: Benchmarks set this so "large cache" can mean "covers every source".
    source_span: int | None = None
    #: ``"hot"``: pairs target popular sources (builds cross-kind admission
    #: pressure); ``"cold"``: pairs walk nodes outside the source region so
    #: their answers never touch the cache.
    pair_mode: str = "hot"
    #: Probability an event is a ``mutate`` control request instead of a
    #: query (0.0 — the default — generates pure read streams, and consumes
    #: no extra randomness, so pre-mutation streams are reproduced exactly).
    #: Mutation events alternate between adding fresh random edges and
    #: removing edges the stream itself added, so the graph stays near its
    #: original shape over a long storm.
    mutation_fraction: float = 0.0
    #: Edges per mutation event.
    mutation_batch: int = 1
    #: Every Nth mutation event also requests a re-freeze (back to a clean,
    #: rebuild-parity generation); 0 never re-freezes mid-stream.
    mutation_refreeze_every: int = 0
    #: End-to-end deadline stamped on every emitted envelope, in
    #: milliseconds; ``None`` (the default) emits byte-identical streams to
    #: pre-deadline versions at the same seed.
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ParameterError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )
        if self.num_queries < 0:
            raise ParameterError(
                f"num_queries must be >= 0, got {self.num_queries}"
            )
        if self.zipf_exponent <= 0:
            raise ParameterError(
                f"zipf_exponent must be > 0, got {self.zipf_exponent}"
            )
        if self.hot_set_size < 1:
            raise ParameterError(
                f"hot_set_size must be >= 1, got {self.hot_set_size}"
            )
        for name in ("drift_every", "drift_step", "burst_every", "burst_length"):
            if getattr(self, name) < 0:
                raise ParameterError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        for name in ("burst_hot_bias", "tail_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {value}")
        if self.top_k_fraction < 0 or self.single_source_fraction < 0:
            raise ParameterError("query-kind fractions must be >= 0")
        if self.top_k_fraction + self.single_source_fraction > 1.0 + 1e-12:
            raise ParameterError(
                "top_k_fraction + single_source_fraction must be <= 1, got "
                f"{self.top_k_fraction + self.single_source_fraction}"
            )
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.source_region <= 1.0:
            raise ParameterError(
                f"source_region must be in (0, 1], got {self.source_region}"
            )
        if self.source_span is not None and self.source_span < 2:
            raise ParameterError(
                f"source_span must be >= 2, got {self.source_span}"
            )
        if self.pair_mode not in ("hot", "cold"):
            raise ParameterError(
                f"pair_mode must be 'hot' or 'cold', got {self.pair_mode!r}"
            )
        if not 0.0 <= self.mutation_fraction <= 1.0:
            raise ParameterError(
                f"mutation_fraction must be in [0, 1], got "
                f"{self.mutation_fraction}"
            )
        if self.mutation_batch < 1:
            raise ParameterError(
                f"mutation_batch must be >= 1, got {self.mutation_batch}"
            )
        if self.mutation_refreeze_every < 0:
            raise ParameterError(
                "mutation_refreeze_every must be >= 0, got "
                f"{self.mutation_refreeze_every}"
            )

    @property
    def single_pair_fraction(self) -> float:
        """The remainder of the kind mix: pair traffic."""
        return max(
            0.0, 1.0 - self.top_k_fraction - self.single_source_fraction
        )

    def as_dict(self) -> dict:
        """Plain-dict form for JSON output (benchmark records embed it)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


@dataclass(frozen=True)
class TrafficEvent:
    """One generated request: its stream position, phase, and typed query.

    With ``mutation_fraction > 0`` some events wrap a
    :class:`~repro.service.control.MutateRequest` instead of a query; both
    planes share the envelope form, so the stream stays one JSONL pipe.
    """

    #: Position in the stream; doubles as the wire envelope's ``id``.
    index: int
    #: ``"burst"`` or ``"steady"`` — which arrival phase produced it.
    phase: str
    query: Query | ControlRequest
    #: End-to-end deadline budget stamped on the envelope; ``None`` omits
    #: the key entirely, keeping deadline-free streams byte-identical.
    deadline_ms: float | None = None

    @property
    def kind(self) -> str:
        """The wrapped query's kind."""
        return self.query.kind

    @property
    def dataset(self) -> str:
        """The wrapped query's dataset."""
        return self.query.dataset

    def to_wire(self) -> dict:
        """Protocol-v2 envelope: ready for ``repro batch`` / serve / router."""
        payload = {"v": PROTOCOL_VERSION, "id": self.index, **self.query.to_wire()}
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload


class _DatasetState:
    """Per-dataset derived state: source region, permutation, Zipf CDF."""

    def __init__(
        self, name: str, num_nodes: int, pattern: TrafficPattern,
        rng: random.Random,
    ) -> None:
        if num_nodes < _MIN_NODES:
            raise ParameterError(
                f"dataset {name!r} has {num_nodes} nodes; traffic generation "
                f"needs at least {_MIN_NODES}"
            )
        self.name = name
        self.num_nodes = num_nodes
        span = max(2, int(num_nodes * pattern.source_region))
        if pattern.source_span is not None:
            span = min(span, pattern.source_span)
        span = min(span, num_nodes)
        if pattern.pair_mode == "cold" and num_nodes - span < 2:
            raise ParameterError(
                f"dataset {name!r}: pair_mode='cold' needs >= 2 nodes outside "
                f"the source region, but span {span} of {num_nodes} nodes "
                "leaves fewer — shrink source_region or set source_span"
            )
        self.span = span
        #: Rank -> node mapping; popularity rank r targets ``perm[(r + drift)
        #: % span]``, so drift rotates *which nodes* are hot while the
        #: popularity shape stays fixed.
        self.perm = list(range(span))
        rng.shuffle(self.perm)
        #: Cumulative Zipf weights over ranks, for bisect-based sampling.
        total = 0.0
        cdf: list[float] = []
        for rank in range(span):
            total += 1.0 / float(rank + 1) ** pattern.zipf_exponent
            cdf.append(total)
        self.zipf_cdf = cdf
        self.zipf_total = total
        #: Cursor for ``cold`` pair traffic, walking the off-region nodes.
        self.pair_cursor = 0
        #: Edges added by this stream's own mutation events and not yet
        #: removed by one — the pool removals draw from, so a long storm
        #: oscillates around the original graph instead of densifying it.
        self.workload_edges: list[tuple[int, int]] = []
        #: Mutation events generated so far (drives periodic re-freeze).
        self.mutation_count = 0


def generate_traffic(
    node_counts: Mapping[str, int], pattern: TrafficPattern | None = None
) -> list[TrafficEvent]:
    """The full request stream for ``pattern`` over the given datasets.

    ``node_counts`` maps dataset name -> node count (the generator needs no
    graphs, only sizes, so streams can be produced without loading anything).
    The result is fully determined by the arguments.
    """
    pattern = pattern or TrafficPattern()
    if not node_counts:
        raise ParameterError("node_counts must name at least one dataset")
    rng = random.Random(pattern.seed)
    states = [
        _DatasetState(name, count, pattern, rng)
        for name, count in node_counts.items()
    ]
    events: list[TrafficEvent] = []
    for index in range(pattern.num_queries):
        state = states[rng.randrange(len(states))]
        in_burst = (
            pattern.burst_every > 0
            and pattern.burst_length > 0
            and index % pattern.burst_every < pattern.burst_length
        )
        drift = (
            (index // pattern.drift_every) * pattern.drift_step
            if pattern.drift_every > 0
            else 0
        )
        if (
            pattern.mutation_fraction > 0.0
            and rng.random() < pattern.mutation_fraction
        ):
            events.append(
                TrafficEvent(
                    index=index,
                    phase="burst" if in_burst else "steady",
                    query=_draw_mutation(state, pattern, rng),
                    deadline_ms=pattern.deadline_ms,
                )
            )
            continue
        roll = rng.random()
        if roll < pattern.top_k_fraction:
            query: Query = TopKQuery(
                dataset=state.name,
                node=_draw_source(state, pattern, rng, in_burst, drift),
                k=pattern.k,
            )
        elif roll < pattern.top_k_fraction + pattern.single_source_fraction:
            query = SingleSourceQuery(
                dataset=state.name,
                node=_draw_source(state, pattern, rng, in_burst, drift),
            )
        else:
            node_u, node_v = _draw_pair(state, pattern, rng, in_burst, drift)
            query = SinglePairQuery(
                dataset=state.name, node_u=node_u, node_v=node_v
            )
        events.append(
            TrafficEvent(
                index=index,
                phase="burst" if in_burst else "steady",
                query=query,
                deadline_ms=pattern.deadline_ms,
            )
        )
    return events


#: Named traffic shapes for fault drills: each maps to the
#: :class:`TrafficPattern` overrides that produce the stress in question.
#: ``repro workload --chaos-profile NAME`` and the fault-injection harness
#: resolve these through :func:`chaos_pattern_overrides`, so a profile name
#: in a bug report pins the exact stream that provoked it.
CHAOS_TRAFFIC_PROFILES: dict[str, dict] = {
    # Write-heavy: every third event mutates, periodically re-freezing — the
    # stream that exercises WAL append, snapshots, and replay hardest.
    "mutation-storm": {
        "mutation_fraction": 0.34,
        "mutation_batch": 2,
        "mutation_refreeze_every": 8,
    },
    # Read bursts with tight deadlines: saturates queues so overload
    # shedding and deadline propagation are what keep latency bounded.
    "deadline-storm": {
        "burst_every": 40,
        "burst_length": 24,
        "top_k_fraction": 0.3,
        "single_source_fraction": 0.6,
        "deadline_ms": 250.0,
    },
    # The mixed drill: moderate writes plus deadlines, the closest shape to
    # the chaos harness's default end-to-end run.
    "mixed-faults": {
        "mutation_fraction": 0.15,
        "mutation_refreeze_every": 10,
        "deadline_ms": 1000.0,
    },
}


def chaos_pattern_overrides(profile: str) -> dict:
    """The :class:`TrafficPattern` overrides named by ``profile``.

    Raises :class:`~repro.exceptions.ParameterError` for unknown names,
    listing the valid ones (the CLI surfaces this message directly).
    """
    try:
        return dict(CHAOS_TRAFFIC_PROFILES[profile])
    except KeyError:
        known = ", ".join(sorted(CHAOS_TRAFFIC_PROFILES))
        raise ParameterError(
            f"unknown chaos profile {profile!r}; expected one of: {known}"
        ) from None


def _draw_source(
    state: _DatasetState,
    pattern: TrafficPattern,
    rng: random.Random,
    in_burst: bool,
    drift: int,
) -> int:
    """One source node: tail, burst-hot, or Zipf rank, mapped through the
    drifted permutation."""
    if rng.random() < pattern.tail_fraction:
        rank = rng.randrange(state.span)
    elif in_burst and rng.random() < pattern.burst_hot_bias:
        rank = rng.randrange(min(pattern.hot_set_size, state.span))
    else:
        point = rng.random() * state.zipf_total
        rank = bisect.bisect_left(state.zipf_cdf, point)
        rank = min(rank, state.span - 1)
    return state.perm[(rank + drift) % state.span]


def _draw_mutation(
    state: _DatasetState, pattern: TrafficPattern, rng: random.Random
) -> MutateRequest:
    """One mutation event: add fresh random edges, or remove edges this
    stream previously added (alternating by coin flip; additions are forced
    while the stream-owned pool is empty)."""
    state.mutation_count += 1
    refreeze = (
        pattern.mutation_refreeze_every > 0
        and state.mutation_count % pattern.mutation_refreeze_every == 0
    )
    removing = bool(state.workload_edges) and rng.random() < 0.5
    if removing:
        removed = []
        for _ in range(min(pattern.mutation_batch, len(state.workload_edges))):
            removed.append(
                state.workload_edges.pop(
                    rng.randrange(len(state.workload_edges))
                )
            )
        return MutateRequest(
            dataset=state.name, remove=tuple(removed), refreeze=refreeze
        )
    added = []
    for _ in range(pattern.mutation_batch):
        node_u = rng.randrange(state.num_nodes)
        node_v = rng.randrange(state.num_nodes)
        if node_v == node_u:
            node_v = (node_v + 1) % state.num_nodes
        edge = (node_u, node_v)
        added.append(edge)
        state.workload_edges.append(edge)
    return MutateRequest(
        dataset=state.name, add=tuple(added), refreeze=refreeze
    )


def _draw_pair(
    state: _DatasetState,
    pattern: TrafficPattern,
    rng: random.Random,
    in_burst: bool,
    drift: int,
) -> tuple[int, int]:
    """One node pair, per the pattern's pair mode.

    ``cold`` pairs stride the off-region nodes two at a time so consecutive
    pairs share nothing; ``hot`` pairs put a popular source on one side, so
    standalone-pair pressure accumulates on exactly the nodes the vector
    queries keep hot.
    """
    if pattern.pair_mode == "cold":
        cold = state.num_nodes - state.span
        offset = (2 * state.pair_cursor) % max(1, cold - 1)
        state.pair_cursor += 1
        node_u = state.span + offset
        return node_u, node_u + 1
    node_u = _draw_source(state, pattern, rng, in_burst, drift)
    node_v = rng.randrange(state.num_nodes)
    if node_v == node_u:
        node_v = (node_v + 1) % state.num_nodes
    return node_u, node_v


def events_to_jsonl(events: Iterable[TrafficEvent]) -> str:
    """The stream as protocol-v2 JSONL — pipe it into ``repro batch`` or a
    serve socket verbatim."""
    return "\n".join(
        json.dumps(event.to_wire(), separators=(",", ":")) for event in events
    )


def summarize_events(events: Iterable[TrafficEvent]) -> dict:
    """Shape of a stream: counts by kind, dataset, and phase, plus the
    distinct-source count (an upper bound on useful cache size)."""
    by_kind: dict[str, int] = {}
    by_dataset: dict[str, int] = {}
    by_phase: dict[str, int] = {}
    sources: set[tuple[str, int]] = set()
    total = 0
    for event in events:
        total += 1
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        by_dataset[event.dataset] = by_dataset.get(event.dataset, 0) + 1
        by_phase[event.phase] = by_phase.get(event.phase, 0) + 1
        node = getattr(event.query, "node", None)
        if node is not None:
            sources.add((event.dataset, node))
    return {
        "num_queries": total,
        "by_kind": dict(sorted(by_kind.items())),
        "by_dataset": dict(sorted(by_dataset.items())),
        "by_phase": dict(sorted(by_phase.items())),
        "distinct_sources": len(sources),
    }


def traffic_sources(events: Iterable[TrafficEvent]) -> dict[str, list[int]]:
    """Distinct vector-query sources per dataset, sorted — the node set a
    warm sweep must touch to pre-load every cacheable vector."""
    per_dataset: dict[str, set[int]] = {}
    for event in events:
        node = getattr(event.query, "node", None)
        if node is not None:
            per_dataset.setdefault(event.dataset, set()).add(node)
    return {name: sorted(nodes) for name, nodes in sorted(per_dataset.items())}


def replay_events(
    service: "SimRankService",
    events: Iterable[TrafficEvent],
    *,
    backend: str | None = None,
) -> list["QueryResult"]:
    """Drive every event through ``service`` in order; one envelope per
    event, in stream order.  Failures come back as error envelopes (the
    service boundary contract), so callers can assert ``all(r.ok ...)``.
    Mutation events dispatch through the control plane (``backend`` applies
    only to queries)."""
    return [
        service.execute_request(event.query, backend=backend)
        for event in events
    ]

"""The SLING query core: every query written once, over one serving state.

A SLING index answers queries from a :class:`ServingState` — the graph, the
resolved parameters, the correction factors ``d̃_k`` and the packed store,
plus the per-query overlays that turn a stored hitting set into the one a
query actually reads:

* the Section-5.2 reconstruction (exact step-0/1/2 values of Algorithm 5) for
  space-reduced nodes,
* the Section-5.3 accuracy enhancement ``H*(v)``.

Three kinds of index serve through it: an in-memory build, an index loaded
with ``load_index(..., mmap_mode="r")`` (the same state over memory-mapped
columns) and each generation of a :class:`~repro.sling.dynamic.DynamicSlingIndex`,
whose mutations re-pack a complete store per generation.
:class:`SlingQueries` holds the query methods themselves: method dispatch,
node and ``k`` validation and the store-derived pruning bounds of bounded
top-k all live here, and a query reads the state once, so a pair query never
mixes two generations.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import IndexNotBuiltError, ParameterError
from ..graphs import DiGraph
from ..ranking import rank_top_k
from .hitting import exact_near_hops
from .optimizations import AccuracyEnhancer
from .packed import PackedHittingStore, QueryView, intersect_views
from .parameters import SlingParameters
from .single_source import (
    BoundedTopK,
    bounded_top_k,
    single_source_cascade,
    single_source_local_push,
)

__all__ = ["ServingState", "SlingQueries"]

_KERNELS = {
    "local_push": single_source_local_push,
    "cascade": single_source_cascade,
}


class ServingState:
    """One immutable serving state: a packed store plus its query overlays.

    Never mutated after construction (bar the idempotent ``d̃`` maximum
    cache), so queries share it across threads without locking.  ``version``
    and ``dirty`` describe a dynamic index's generation; a frozen index
    serves version 0, never dirty.
    """

    __slots__ = (
        "graph",
        "parameters",
        "corrections",
        "store",
        "reduced",
        "enhancer",
        "version",
        "dirty",
        "_correction_max",
    )

    def __init__(
        self,
        graph: DiGraph,
        parameters: SlingParameters,
        corrections: np.ndarray,
        store: PackedHittingStore,
        *,
        reduced: np.ndarray | None = None,
        enhancer: AccuracyEnhancer | None = None,
        version: int = 0,
        dirty: bool = False,
    ) -> None:
        self.graph = graph
        self.parameters = parameters
        self.corrections = corrections
        self.store = store
        #: Which nodes had their step-1/2 entries dropped (Section 5.2).
        self.reduced = reduced
        self.enhancer = enhancer
        self.version = version
        #: Whether a mutation landed since the last (re-)freeze: the store
        #: equals a rebuild's on ``graph``, but only the changed heads'
        #: ``d̃`` were re-estimated.
        self.dirty = dirty
        self._correction_max: float | None = None

    def query_view(self, node: int) -> QueryView:
        """The packed view a query from ``node`` reads.

        Starts from a zero-copy slice of the store and composes, in order,
        the space-reduction reconstruction and the accuracy enhancement as
        copy-on-write overlays.  Validates ``node``.
        """
        node = int(node)
        self.graph.in_degree(node)  # validates the node id
        view = self.store.node_view(node)
        if self.reduced is not None and self.reduced[node]:
            exact = exact_near_hops(self.graph, node, self.parameters.sqrt_c)
            view = view.override(
                (level, target, value)
                for level, entries in exact.items()
                for target, value in entries.items()
            )
        if self.enhancer is not None:
            generated = self.enhancer.generated_entries(node, view.contains)
            if generated:
                view = view.override(
                    (level, target, value)
                    for (level, target), value in generated.items()
                )
        return view

    def level_bounds(self, node: int) -> dict[int, float]:
        """Per-level residual-mass bounds from the store's metadata.

        ``B_ℓ = (√c)^ℓ · max_k h̃^(ℓ)(node, k) · max_j d̃_j`` — an upper bound
        on the per-query corrected frontier maximum that needs no column
        reads at query time.  Only consulted for levels above the overlay
        floor of :func:`bounded_top_k`, where the raw store values are
        authoritative for every optimization flag.
        """
        if self._correction_max is None:
            self._correction_max = float(np.asarray(self.corrections).max(initial=0.0))
        sqrt_c = self.parameters.sqrt_c
        stat_levels, _totals, stat_maxima = self.store.node_level_stats(node)
        return {
            int(level): (sqrt_c ** int(level)) * float(maximum) * self._correction_max
            for level, maximum in zip(stat_levels, stat_maxima)
        }


def _check_k(k: int) -> None:
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")


def _single_source(state: ServingState, node: int, method: str) -> np.ndarray:
    """One single-source query against ``state`` (fresh output array)."""
    if method == "pairwise":
        view = state.query_view(node)
        scores = np.zeros(state.graph.num_nodes, dtype=np.float64)
        for other in state.graph.nodes():
            scores[other] = intersect_views(
                view, state.query_view(other), state.corrections
            )
        return scores
    kernel = _KERNELS.get(method)
    if kernel is None:
        raise ParameterError(
            f"unknown single-source method {method!r}; "
            "expected 'local_push', 'cascade' or 'pairwise'"
        )
    params = state.parameters
    return kernel(
        state.graph,
        state.query_view(node),
        state.corrections,
        params.sqrt_c,
        params.theta,
    )


class SlingQueries:
    """The SLING query surface, shared by every index over a :class:`ServingState`.

    Subclasses keep their serving state in ``_state`` (``None`` until
    built) and may swap it atomically; each query reads it exactly once.
    """

    _state: ServingState | None = None
    #: How an unbuilt index names itself in :class:`IndexNotBuiltError`.
    _kind = "SLING index"

    def _serving(self) -> ServingState:
        state = self._state
        if state is None:
            raise IndexNotBuiltError(self._kind)
        return state

    @property
    def is_built(self) -> bool:
        """Whether a serving state exists."""
        return self._state is not None

    @property
    def version(self) -> int:
        """Version of the serving generation: 0 for a frozen index (and
        before a build); a dynamic index bumps it per mutation batch and
        per re-freeze."""
        state = self._state
        return state.version if state is not None else 0

    @property
    def correction_factors(self) -> np.ndarray:
        """The correction factors ``d̃_k`` as an ``(n,)`` array."""
        return self._serving().corrections

    @property
    def packed_store(self) -> PackedHittingStore:
        """The columnar store queries read (Section-5.2/5.3 overlays not applied)."""
        return self._serving().store

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def single_pair(self, node_u: int, node_v: int) -> float:
        """Approximate SimRank ``s̃(u, v)`` with at most ``ε`` additive error.

        Algorithm 3 on the packed views: one sorted-key intersection of the
        two combined-key columns, then a single dot product with
        ``corrections[targets]``.
        """
        state = self._serving()
        return intersect_views(
            state.query_view(node_u), state.query_view(node_v), state.corrections
        )

    def single_source(self, node: int, *, method: str = "local_push") -> np.ndarray:
        """Approximate SimRank from ``node`` to every node, as a fresh ``(n,)`` array.

        ``method``: ``"local_push"`` runs Algorithm 6 (the default;
        bitwise-stable reference kernel); ``"cascade"`` runs the
        level-cascade kernel — ``max ℓ`` push steps instead of ``Σℓ``,
        several times faster and within the same ``ε`` guarantee of the
        reference (but not bitwise identical to it); ``"pairwise"`` applies
        Algorithm 3 once per node — asymptotically ``O(n/ε)`` but slower in
        practice, exactly as Figure 2 shows.
        """
        return _single_source(self._serving(), node, method)

    def top_k(
        self, node: int, k: int, *, method: str = "local_push",
        budget: float | None = None,
    ) -> list[tuple[int, float]]:
        """The ``k`` nodes most similar to ``node`` (excluding ``node`` itself).

        ``method`` accepts every :meth:`single_source` method plus
        ``"bounded"``, the pruned path of :meth:`top_k_bounded` (``budget``
        is only meaningful there).
        """
        if method == "bounded":
            return self.top_k_bounded(node, k, budget=budget).ranked
        _check_k(k)
        return rank_top_k(self.single_source(node, method=method), int(node), k)

    def top_k_bounded(
        self, node: int, k: int, *, budget: float | None = None
    ) -> BoundedTopK:
        """Top-k via the truncated cascade with residual-mass pruning bounds.

        The cascade stops at the shallowest stored level whose undelivered
        tail (bounded per level by the packed store's precomputed
        residual-mass metadata) fits ``budget``, and the truncated ranking
        is kept only when the k-th candidate's lower bound dominates that
        tail; otherwise the full cascade runs.  Returned scores are within
        ``tail_bound ≤ budget ≤ ε`` of the full cascade's values, so the
        Theorem-1 additive guarantee degrades by at most the budget.
        ``budget`` defaults to ``ε/4``.
        """
        _check_k(k)
        state = self._serving()
        params = state.parameters
        source = int(node)
        return bounded_top_k(
            state.graph,
            state.query_view(source),
            state.corrections,
            params.sqrt_c,
            params.theta,
            source,
            k,
            budget=params.epsilon / 4.0 if budget is None else budget,
            level_bounds=state.level_bounds(source),
        )

    def all_pairs(self, *, method: str = "local_push") -> np.ndarray:
        """All-pairs SimRank matrix, one single-source query per node.

        Intended for the accuracy experiments on small graphs (Figures 5-7);
        memory is Θ(n²).
        """
        state = self._serving()
        return np.stack(
            [_single_source(state, node, method) for node in state.graph.nodes()]
        )

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    def index_size_bytes(self) -> int:
        """Serialized index size: correction factors plus all stored entries.

        Matches the packed on-disk layout of :mod:`repro.sling.storage`
        (8 bytes per correction factor, 12 bytes per hitting-probability
        entry), which is the quantity Figure 4 of the paper reports.  O(1).
        """
        state = self._serving()
        return 8 * state.graph.num_nodes + state.store.size_bytes()

    def resident_bytes(self) -> int:
        """Actual in-memory footprint of the serving arrays.

        Correction factors plus every packed column (including the combined
        keys column); for an index loaded with ``mmap_mode`` this counts the
        mapped extent, not resident pages.
        """
        state = self._serving()
        return int(np.asarray(state.corrections).nbytes + state.store.nbytes)

    def average_set_size(self) -> float:
        """Average stored hitting probabilities per node (Table-1 accounting)."""
        store = self._serving().store
        if store.num_nodes == 0:
            return 0.0
        return store.num_entries / store.num_nodes

"""Single-source SimRank query processing (Algorithm 6, Section 6).

Algorithm 6 avoids reading every other node's hitting set by rebuilding, on
the fly, exactly the inverted lists the query needs: for every step ``ℓ`` and
every node ``v_k`` with a stored hitting probability ``h̃^(ℓ)(v_i, v_k)``, the
temporary score ``ρ^(0)(v_k) = h̃^(ℓ)(v_i, v_k) · d_k`` is pushed forward
``ℓ`` steps along out-edges; the mass arriving at ``v_j`` equals
``Σ_k h^(ℓ)(v_j, v_k) · d_k · h̃^(ℓ)(v_i, v_k)``, i.e. the step-ℓ contribution
to ``s(v_i, v_j)``.  Scores smaller than ``(√c)^ℓ · θ`` are pruned during the
push, which is what yields the ``O(m log² 1/ε)`` bound of Lemma 12.

This module provides three kernels over that idea:

* :func:`single_source_local_push` — the *exact reference* path: per-level
  pushes in canonical entry order, kept bit-for-bit compatible with the
  original implementation (the scatters are ``np.bincount`` folds that
  accumulate in the same order ``np.add.at`` did).
* :func:`single_source_cascade` — the level-cascade kernel: the push operator
  is linear, so instead of pushing each level's frontier ``ℓ`` steps
  independently (``Σℓ`` push steps), levels are processed in *descending*
  order and merged into one running frontier that advances a single step per
  iteration (``max ℓ`` push steps), with each level pruned once at its own
  ``(√c)^ℓ·θ`` threshold at injection time.  The inner step uses the graph's
  precomputed ``√c / |I(·)|`` edge-weight column: two gathers, one multiply,
  one ``bincount``.  Injection-time pruning drops strictly less mass than the
  reference's per-step pruning, so the cascade stays within the same
  Theorem-1 error budget (guarded by tests and the recorded benchmark).
* :func:`bounded_top_k` — the pruned top-k path: per-level residual-mass
  upper bounds (``(√c)^ℓ`` times the level's largest initial score — each
  unit of frontier mass spreads over at most ``(√c)^ℓ`` of total hitting
  probability) let the cascade stop early at the shallowest level whose
  undelivered tail fits an error budget, and the returned ranking is kept
  only when the k-th candidate's lower bound dominates that tail.

The query set is a packed :class:`~repro.sling.packed.QueryView`, whose
per-level frontiers are zero-copy column slices of the store (in memory or
memory-mapped).  The kernels are called from exactly one place, the query
core of :mod:`repro.sling.query`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph
from ..ranking import rank_top_k
from .hitting import concatenated_ranges, push_frontier
from .packed import QueryView

__all__ = [
    "single_source_local_push",
    "single_source_cascade",
    "bounded_top_k",
    "BoundedTopK",
]


def single_source_local_push(
    graph: DiGraph,
    view: QueryView,
    corrections: np.ndarray,
    sqrt_c: float,
    theta: float,
) -> np.ndarray:
    """Algorithm 6: SimRank from the query node to every node.

    This is the exact reference kernel: each level's initial frontier is
    pushed ``level`` steps independently and the surviving per-level
    frontiers are accumulated with one deferred ``np.bincount`` scatter.
    Because every score starts from zero and receives its per-level
    contributions in ascending level order — exactly the order the former
    per-level ``np.add.at`` calls applied them — the result is bitwise
    identical to the original implementation (guarded by
    ``benchmarks/bench_single_source.py``).

    Parameters
    ----------
    graph:
        The indexed graph.
    view:
        The (possibly reconstructed / enhanced) hitting set of the query
        node as a packed :class:`QueryView`.
    corrections:
        The ``(n,)`` array of correction factors ``d̃_k``.
    sqrt_c, theta:
        The index parameters ``√c`` and ``θ``.

    Returns
    -------
    numpy.ndarray
        An ``(n,)`` array of approximate SimRank scores, clamped to ``[0, 1]``.
    """
    delivered_nodes: list[np.ndarray] = []
    delivered_values: list[np.ndarray] = []
    for level, targets, values in view.iter_levels():
        frontier_nodes = targets.astype(np.int64)
        # ρ^(0)(v_k) = h̃^(ℓ)(v_i, v_k) · d_k  (fresh array; the view's
        # columns — possibly memory-mapped store slices — are never written)
        frontier_values = np.asarray(values) * corrections[frontier_nodes]
        prune_threshold = (sqrt_c**level) * theta
        for _ in range(level):
            keep = frontier_values > prune_threshold
            frontier_nodes = frontier_nodes[keep]
            frontier_values = frontier_values[keep]
            if frontier_nodes.size == 0:
                break
            frontier_nodes, frontier_values = push_frontier(
                graph, frontier_nodes, frontier_values, sqrt_c
            )
        if frontier_nodes.size:
            delivered_nodes.append(frontier_nodes)
            delivered_values.append(frontier_values)
    if not delivered_nodes:
        return np.zeros(graph.num_nodes, dtype=np.float64)
    scores = np.bincount(
        np.concatenate(delivered_nodes),
        weights=np.concatenate(delivered_values),
        minlength=graph.num_nodes,
    )
    return np.minimum(scores, 1.0)


# --------------------------------------------------------------------------- #
# Level-cascade kernel
# --------------------------------------------------------------------------- #
def _push_running(
    running: np.ndarray,
    out_indptr: np.ndarray,
    out_indices: np.ndarray,
    edge_weights: np.ndarray,
    num_nodes: int,
) -> np.ndarray:
    """One dense push step of the cascade's running frontier.

    Two gathers (edge offsets, successors), one multiply against the
    precomputed ``√c / |I(·)|`` edge-weight column, one ``bincount`` scatter.
    """
    active = np.flatnonzero(running)
    if active.size == 0:
        return running
    starts = out_indptr[active]
    counts = out_indptr[active + 1] - starts
    total_edges = int(counts.sum())
    if total_edges == 0:
        return np.zeros(num_nodes, dtype=np.float64)
    edge_offsets = concatenated_ranges(starts, counts, total_edges)
    contributions = np.repeat(running[active], counts) * edge_weights[edge_offsets]
    return np.bincount(
        out_indices[edge_offsets], weights=contributions, minlength=num_nodes
    )


def _cascade_scores(
    graph: DiGraph,
    view: QueryView,
    corrections: np.ndarray,
    sqrt_c: float,
    theta: float,
    *,
    max_level: int | None = None,
) -> np.ndarray:
    """Run the descending level-cascade, optionally truncated at ``max_level``.

    Returns the raw (unclamped) delivered-mass vector.  Levels above
    ``max_level`` are never materialised — their column slices stay untouched,
    which is what the bounded top-k path buys its early exit with.
    """
    run_levels, seg_starts, seg_stops = view.level_segments()
    num_nodes = graph.num_nodes
    running = np.zeros(num_nodes, dtype=np.float64)
    if run_levels.shape[0] == 0:
        return running
    out_indptr, out_indices = graph.out_csr()
    edge_weights = graph.push_edge_weights(sqrt_c)
    depth: int | None = None
    for idx in range(run_levels.shape[0] - 1, -1, -1):
        level = int(run_levels[idx])
        if max_level is not None and level > max_level:
            continue
        if depth is not None:
            # Bring the running frontier down to this level's depth: one
            # push per intervening level (absent levels contribute nothing
            # but their steps still apply to already-injected mass).
            for _ in range(depth - level):
                running = _push_running(
                    running, out_indptr, out_indices, edge_weights, num_nodes
                )
        depth = level
        targets = view.targets[seg_starts[idx] : seg_stops[idx]]
        nodes = np.asarray(targets).astype(np.int64)
        values = np.asarray(view.values[seg_starts[idx] : seg_stops[idx]])
        injected = values * corrections[nodes]
        keep = injected > (sqrt_c**level) * theta
        if keep.any():
            # Targets within a level are unique (strictly increasing keys),
            # so plain fancy-index accumulation is safe.
            running[nodes[keep]] += injected[keep]
    if depth is not None:
        for _ in range(depth):
            running = _push_running(
                running, out_indptr, out_indices, edge_weights, num_nodes
            )
    return running


def single_source_cascade(
    graph: DiGraph,
    view: QueryView,
    corrections: np.ndarray,
    sqrt_c: float,
    theta: float,
) -> np.ndarray:
    """Level-cascade variant of Algorithm 6: ``max ℓ`` pushes instead of ``Σℓ``.

    The push operator ``P`` is linear, so the per-level answer
    ``Σ_ℓ P^ℓ F_ℓ`` factors Horner-style as
    ``P(...P(P(F_L) + F_{L-1}) + ...) + F_0``: levels are injected in
    descending order into one running frontier that advances a single step
    per iteration.  Each level's frontier is pruned once, at injection, at
    its own ``(√c)^ℓ·θ`` threshold — strictly less mass is dropped than by
    the reference's per-step pruning, so the cascade differs from
    :func:`single_source_local_push` only within the Theorem-1 pruning
    budget (``≤ ε``; the recorded benchmark and the property suite assert
    this).  Scores are *not* bitwise identical to the reference: the exact
    path is the default and this kernel is the opt-in fast path.
    """
    scores = _cascade_scores(graph, view, corrections, sqrt_c, theta)
    return np.minimum(scores, 1.0)


# --------------------------------------------------------------------------- #
# Bounded top-k
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BoundedTopK:
    """Result of :func:`bounded_top_k`.

    Attributes
    ----------
    ranked:
        The top-k list in the shared :func:`repro.ranking.rank_top_k`
        contract (descending score, ties on the smaller node id, the source
        excluded).  Scores are lower bounds within ``tail_bound`` of the full
        cascade's values.
    tail_bound:
        Upper bound on the mass the truncated cascade left undelivered to
        any single node (``0.0`` when the cascade ran to full depth).
    stop_level:
        Deepest level that was injected (``-1`` for an empty hitting set).
    truncated:
        Whether the early exit was taken; ``False`` means the full cascade
        ran (either the bounds never allowed a cut, or the k-th candidate
        failed to dominate the tail and the query fell back).
    """

    ranked: list[tuple[int, float]]
    tail_bound: float
    stop_level: int
    truncated: bool


def bounded_top_k(
    graph: DiGraph,
    view: QueryView,
    corrections: np.ndarray,
    sqrt_c: float,
    theta: float,
    source: int,
    k: int,
    *,
    budget: float,
    level_bounds: dict[int, float] | None = None,
    min_stop_level: int = 2,
) -> BoundedTopK:
    """Top-k via a truncated cascade with residual-mass pruning bounds.

    The step-ℓ contribution a query can still deliver to any one node is at
    most ``B_ℓ = (√c)^ℓ · max_k ρ^(0)_ℓ(v_k)`` (the level's largest initial
    score times the Lemma-7 cap on total step-ℓ hitting probability).  The
    cascade is truncated at the shallowest stored level whose undelivered
    tail ``R = Σ_{ℓ' > ℓ} B_{ℓ'}`` fits ``budget``; levels above the cut are
    never materialised.  The truncated ranking is kept when the k-th
    candidate's lower bound dominates ``R`` (so no unseen mass can promote
    an outsider past it without also being visible in the bound); otherwise
    the query falls back to the full cascade.

    ``level_bounds`` lets the caller supply per-level bounds from the packed
    store's precomputed :meth:`~repro.sling.packed.PackedHittingStore.level_stats`
    metadata (scaled by a correction-factor upper bound), so skipped levels
    cost no column reads at all; missing levels are bounded from the view's
    own corrected frontier.  ``min_stop_level`` floors the cut (default 2)
    so the Section-5.2/5.3 per-query overlays — which only rewrite levels
    0-2 — are always injected and never interact with store-derived bounds.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if budget < 0.0:
        raise ParameterError(f"budget must be non-negative, got {budget}")
    num_nodes = graph.num_nodes
    run_levels, seg_starts, seg_stops = view.level_segments()
    if run_levels.shape[0] == 0:
        ranked = rank_top_k(np.zeros(num_nodes, dtype=np.float64), int(source), k)
        return BoundedTopK(ranked, 0.0, -1, False)
    max_level = int(run_levels[-1])

    bounds = np.zeros(run_levels.shape[0], dtype=np.float64)
    for idx in range(run_levels.shape[0]):
        level = int(run_levels[idx])
        if level <= min_stop_level:
            continue  # never cut below the floor; bound never consulted
        supplied = None if level_bounds is None else level_bounds.get(level)
        if supplied is not None:
            bounds[idx] = supplied
        else:
            targets = np.asarray(
                view.targets[seg_starts[idx] : seg_stops[idx]]
            ).astype(np.int64)
            values = np.asarray(view.values[seg_starts[idx] : seg_stops[idx]])
            corrected = values * corrections[targets]
            bounds[idx] = (sqrt_c**level) * float(corrected.max(initial=0.0))

    # tails[idx] = Σ bounds of levels strictly deeper than run_levels[idx]
    tails = np.zeros(run_levels.shape[0], dtype=np.float64)
    if run_levels.shape[0] > 1:
        tails[:-1] = np.cumsum(bounds[::-1])[::-1][1:]
    stop_idx = int(run_levels.shape[0] - 1)
    for idx in range(run_levels.shape[0]):
        if int(run_levels[idx]) >= min_stop_level and tails[idx] <= budget:
            stop_idx = idx
            break
    stop_level = int(run_levels[stop_idx])
    tail = float(tails[stop_idx])

    scores = _cascade_scores(
        graph, view, corrections, sqrt_c, theta, max_level=stop_level
    )
    ranked = rank_top_k(np.minimum(scores, 1.0), int(source), k)
    if tail <= 0.0:
        return BoundedTopK(ranked, 0.0, stop_level, False)
    dominated = (
        len(ranked) == min(k, num_nodes - 1)
        and len(ranked) > 0
        and ranked[-1][1] >= tail
    )
    if dominated:
        return BoundedTopK(ranked, tail, stop_level, True)
    scores = _cascade_scores(graph, view, corrections, sqrt_c, theta)
    ranked = rank_top_k(np.minimum(scores, 1.0), int(source), k)
    return BoundedTopK(ranked, 0.0, max_level, False)

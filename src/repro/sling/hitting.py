"""Hitting probabilities and their local-push construction (Section 4.4).

The hitting probability ``h^(ℓ)(v_i, v_k)`` is the probability that a √c-walk
from ``v_i`` occupies ``v_k`` at step ``ℓ``.  SLING stores, for every node
``v_i``, the set ``H(v_i)`` of hitting probabilities larger than a threshold
``θ``; Observation 1 bounds ``|H(v_i)|`` by ``O(1/θ)``.

This module provides

* :func:`reverse_push` — the per-target local-update traversal that is the
  body of Algorithm 2 (and is reused, slightly modified, by the single-source
  Algorithm 6),
* :func:`build_hitting_sets` — Algorithm 2 proper: run the reverse push from
  every node and emit every kept entry as a flat
  ``(source, level, target, value)`` record (:class:`HittingRecords`); the
  in-memory, parallel and out-of-core builders all push through it, and
  :meth:`~repro.sling.packed.PackedHittingStore.from_hitting_sets` groups the
  records into the per-source sets ``H(v_i)``,
* :func:`exact_near_hops` — Algorithm 5: exact step-1 / step-2 hitting
  probabilities computed on the fly (used by the Section 5.2 space reduction).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph

__all__ = [
    "HittingRecords",
    "concatenated_ranges",
    "push_frontier",
    "reverse_push",
    "build_hitting_sets",
    "exact_near_hops",
    "neighborhood_weight",
]

_LevelMap = dict[int, dict[int, float]]


class HittingRecords(NamedTuple):
    """Hitting probabilities as flat, aligned record columns.

    Record ``i`` states ``h̃^(levels[i])(sources[i], targets[i]) = values[i]``.
    This is what the reverse pushes emit and what
    :meth:`~repro.sling.packed.PackedHittingStore.from_hitting_sets` packs;
    records are in push order (by target), and the packing sorts them into
    per-source segments.
    """

    num_nodes: int
    sources: np.ndarray
    levels: np.ndarray
    targets: np.ndarray
    values: np.ndarray

    @property
    def num_records(self) -> int:
        """Number of records."""
        return int(self.values.shape[0])

    def take(self, selection) -> "HittingRecords":
        """The records picked by ``selection`` (a boolean mask or a slice)."""
        return HittingRecords(
            self.num_nodes,
            self.sources[selection],
            self.levels[selection],
            self.targets[selection],
            self.values[selection],
        )

    @classmethod
    def concatenate(cls, parts: Sequence["HittingRecords"]) -> "HittingRecords":
        """The records of ``parts`` (at least one), one after the other."""
        return cls(
            parts[0].num_nodes,
            np.concatenate([part.sources for part in parts]),
            np.concatenate([part.levels for part in parts]),
            np.concatenate([part.targets for part in parts]),
            np.concatenate([part.values for part in parts]),
        )


# --------------------------------------------------------------------------- #
# Shared forward-expansion primitives
# --------------------------------------------------------------------------- #
def concatenated_ranges(
    starts: "np.ndarray", counts: "np.ndarray", total: int | None = None
) -> "np.ndarray":
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` for all ``i``.

    This is the CSR edge-offset gather shared by :func:`push_frontier` and the
    cascade kernel of :mod:`repro.sling.single_source`: given the frontier
    rows' segment ``starts`` and ``counts``, it yields the flat indices of
    every out-edge of the frontier.  Folding the start into the shift first
    means one ``np.repeat`` instead of two:

        repeat(starts, counts) + (arange(total) - repeat(excl_cumsum, counts))
          == repeat(starts - excl_cumsum, counts) + arange(total)

    (integer arithmetic, so the two forms are exactly equal).  Micro-benchmark
    on random CSR shapes: ~1.4x over the two-repeat form at 200 frontier rows
    / 3k edges, ~1.2x at 5k rows / 120k edges.
    """
    if total is None:
        total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifted = starts - (np.cumsum(counts) - counts)
    return np.repeat(shifted, counts) + np.arange(total, dtype=np.int64)


def push_frontier(
    graph: DiGraph,
    frontier_nodes: "np.ndarray",
    frontier_values: "np.ndarray",
    sqrt_c: float,
) -> tuple["np.ndarray", "np.ndarray"]:
    """Push a weighted frontier one step along out-edges.

    For every frontier node ``v_x`` with mass ``w`` and every out-neighbour
    ``v_y`` of ``v_x``, the result accumulates ``√c · w / |I(v_y)|`` at
    ``v_y``.  This single scatter step is the inner loop shared by
    Algorithm 2 (reverse push), Algorithm 6 (single-source local push) and the
    accuracy-enhancement expansion; it is fully vectorised over the frontier's
    out-edges.

    The scatter is ``np.bincount(successors, weights=..., minlength=n)``,
    which accumulates weights in input order exactly like the
    ``np.add.at`` it replaced — results are bitwise identical — but without
    ufunc-dispatch overhead per element.

    Returns the new frontier as ``(nodes, values)`` arrays (possibly empty).
    """
    out_indptr, out_indices = graph.out_csr()
    in_degrees = graph.in_degrees()
    starts = out_indptr[frontier_nodes]
    counts = out_indptr[frontier_nodes + 1] - starts
    total_edges = int(counts.sum())
    if total_edges == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64)
    edge_offsets = concatenated_ranges(starts, counts, total_edges)
    successors = out_indices[edge_offsets]
    contributions = (
        sqrt_c * np.repeat(frontier_values, counts) / in_degrees[successors]
    )
    buffer = np.bincount(successors, weights=contributions, minlength=graph.num_nodes)
    next_nodes = np.flatnonzero(buffer)
    return next_nodes, buffer[next_nodes]


# --------------------------------------------------------------------------- #
# Algorithm 2: reverse local push
# --------------------------------------------------------------------------- #
def _pushed_levels(
    graph: DiGraph,
    target: int,
    sqrt_c: float,
    theta: float,
    max_levels: int | None = None,
) -> Iterator[tuple[int, "np.ndarray", "np.ndarray"]]:
    """Yield ``(ℓ, sources, values)`` per level of the push from ``target``.

    ``sources`` are ascending and every value exceeds ``theta``; this is the
    one traversal behind :func:`reverse_push` and :func:`build_hitting_sets`.
    """
    if theta <= 0.0:
        raise ParameterError(f"theta must be positive, got {theta}")
    if not 0.0 < sqrt_c < 1.0:
        raise ParameterError(f"sqrt_c must be in (0, 1), got {sqrt_c}")
    graph.in_degree(target)  # validates the node id

    # The frontier is kept as (node ids, values); propagation scatters the
    # contributions into a dense buffer, which keeps the per-level work fully
    # vectorised (the bulk of Algorithm 2's O(m/θ) cost).
    frontier_nodes = np.array([int(target)], dtype=np.int64)
    frontier_values = np.array([1.0], dtype=np.float64)
    level = 0
    while frontier_nodes.size:
        if max_levels is not None and level >= max_levels:
            break
        keep = frontier_values > theta
        kept_nodes = frontier_nodes[keep]
        kept_values = frontier_values[keep]
        if kept_nodes.size == 0:
            break
        yield level, kept_nodes, kept_values
        frontier_nodes, frontier_values = push_frontier(
            graph, kept_nodes, kept_values, sqrt_c
        )
        level += 1


def reverse_push(
    graph: DiGraph,
    target: int,
    sqrt_c: float,
    theta: float,
    *,
    max_levels: int | None = None,
) -> _LevelMap:
    """Reverse local-push traversal from ``target`` (the body of Algorithm 2).

    Returns ``{ℓ: {v_x: h̃^(ℓ)(v_x, target)}}`` containing every approximate
    hitting probability *to* ``target`` that exceeds ``theta``.  Entries at or
    below ``theta`` are pruned and not propagated, which yields the one-sided
    error bound of Lemma 7:

        0 ≥ h̃^(ℓ) - h^(ℓ) ≥ -θ (1 - (√c)^ℓ) / (1 - √c).

    Parameters
    ----------
    graph, target:
        The graph and the node all returned probabilities point to.
    sqrt_c:
        ``√c`` — the continuation probability of a √c-walk.
    theta:
        Pruning threshold ``θ``; must be positive so the traversal terminates.
    max_levels:
        Optional hard cap on the number of levels (used by tests; the natural
        geometric decay of the residuals terminates the loop on its own).
    """
    return {
        level: dict(zip(nodes.tolist(), values.tolist()))
        for level, nodes, values in _pushed_levels(
            graph, target, sqrt_c, theta, max_levels
        )
    }


def build_hitting_sets(
    graph: DiGraph,
    sqrt_c: float,
    theta: float,
    *,
    targets: Iterable[int] | None = None,
) -> HittingRecords:
    """Algorithm 2: the hitting probabilities of every node, as records.

    Runs the reverse push from every target node ``v_k`` and emits each kept
    ``h̃^(ℓ)(v_x, v_k)`` as the record ``(v_x, ℓ, v_k, value)``; the sets
    ``H(v_x)`` are the records grouped by source, which is what
    :meth:`~repro.sling.packed.PackedHittingStore.from_hitting_sets` does.

    ``targets`` restricts the push sources (the parallel and out-of-core
    builders split the work this way); sources still range over the whole
    graph.
    """
    num_nodes = graph.num_nodes
    target_iter = graph.nodes() if targets is None else targets
    sources: list[np.ndarray] = []
    values: list[np.ndarray] = []
    run_levels: list[int] = []
    run_targets: list[int] = []
    for target in target_iter:
        for level, nodes, level_values in _pushed_levels(
            graph, int(target), sqrt_c, theta
        ):
            sources.append(nodes)
            values.append(level_values)
            run_levels.append(level)
            run_targets.append(int(target))
    if not sources:
        return HittingRecords(
            num_nodes,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
        )
    run_lengths = np.fromiter(
        (nodes.shape[0] for nodes in sources), dtype=np.int64, count=len(sources)
    )
    return HittingRecords(
        num_nodes,
        np.concatenate(sources),
        np.repeat(np.asarray(run_levels, dtype=np.int32), run_lengths),
        np.repeat(np.asarray(run_targets, dtype=np.int32), run_lengths),
        np.concatenate(values),
    )


# --------------------------------------------------------------------------- #
# Algorithm 5: exact step-1 / step-2 hitting probabilities
# --------------------------------------------------------------------------- #
def exact_near_hops(graph: DiGraph, node: int, sqrt_c: float) -> _LevelMap:
    """Algorithm 5: exact hitting probabilities from ``node`` at steps 0-2.

    A √c-walk from ``v_i`` hits in-neighbour ``v_x`` at step 1 with
    probability ``√c / |I(v_i)|`` and, through ``v_x``, hits ``v_y ∈ I(v_x)``
    at step 2 with probability ``√c · h^(1)(v_i, v_x) / |I(v_x)|``.  These are
    exact values, so substituting them for the pruned approximations can only
    improve accuracy (Section 5.2).

    Returns ``{0: {node: 1.0}, 1: {...}, 2: {...}}`` (levels with no entries
    are omitted).
    """
    if not 0.0 < sqrt_c < 1.0:
        raise ParameterError(f"sqrt_c must be in (0, 1), got {sqrt_c}")
    result: _LevelMap = {0: {int(node): 1.0}}
    in_neighbors = graph.in_neighbors(node)
    if in_neighbors.shape[0] == 0:
        return result
    step_one_value = sqrt_c / in_neighbors.shape[0]
    step_one: dict[int, float] = {}
    step_two: dict[int, float] = {}
    for first_hop in in_neighbors:
        first_hop = int(first_hop)
        step_one[first_hop] = step_one.get(first_hop, 0.0) + step_one_value
        second_neighbors = graph.in_neighbors(first_hop)
        if second_neighbors.shape[0] == 0:
            continue
        step_two_value = sqrt_c * step_one_value / second_neighbors.shape[0]
        for second_hop in second_neighbors:
            second_hop = int(second_hop)
            step_two[second_hop] = step_two.get(second_hop, 0.0) + step_two_value
    if step_one:
        result[1] = step_one
    if step_two:
        result[2] = step_two
    return result


def neighborhood_weight(graph: DiGraph, node: int) -> int:
    """``η(v_i) = |I(v_i)| + Σ_{v_x ∈ I(v_i)} |I(v_x)|`` (Section 5.2).

    The cost of running Algorithm 5 from ``node`` is linear in this quantity;
    the space reduction only drops step-1/2 entries when ``η(v_i)`` is small
    enough that the on-the-fly recomputation stays within the query budget.
    """
    in_neighbors = graph.in_neighbors(node)
    in_degrees = graph.in_degrees()
    return int(in_neighbors.shape[0] + in_degrees[in_neighbors].sum())


def theoretical_error_bound(sqrt_c: float, theta: float, level: int) -> float:
    """The Lemma-7 bound ``θ (1 - (√c)^ℓ) / (1 - √c)`` on the HP error."""
    return theta * (1.0 - sqrt_c**level) / (1.0 - sqrt_c)


def expected_set_size_bound(sqrt_c: float, theta: float) -> float:
    """Observation-1 bound on ``Σ_ℓ`` of retainable entries, ``1 / ((1-√c)θ)``."""
    if theta <= 0:
        raise ParameterError(f"theta must be positive, got {theta}")
    return 1.0 / ((1.0 - sqrt_c) * theta)


__all__.extend(["theoretical_error_bound", "expected_set_size_bound"])

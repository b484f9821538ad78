"""Hitting probabilities and their local-push construction (Section 4.4).

The hitting probability ``h^(ℓ)(v_i, v_k)`` is the probability that a √c-walk
from ``v_i`` occupies ``v_k`` at step ``ℓ``.  SLING stores, for every node
``v_i``, the set ``H(v_i)`` of hitting probabilities larger than a threshold
``θ``; Observation 1 bounds ``|H(v_i)|`` by ``O(1/θ)``.

Algorithm 2 pushes from every target ``v_k`` backwards along in-edges, keeps
each level's entries above ``θ`` and propagates only those.  Here the pushes
of many targets run together as one pruned sparse product per level: the
targets' level-ℓ frontiers are the columns of ``H_ℓ`` (rows are sources,
``H_0`` the target columns of the identity), and

    H_{ℓ+1} = prune_θ(M · H_ℓ),    M = √c · Pᵀ,  M[y, x] = √c / |I(v_y)|
                                                  for every edge x → y,

with ``P`` the transition matrix of :meth:`~repro.graphs.DiGraph.transition_matrix`.
The records at level ``ℓ`` are the nonzeros of ``H_ℓ``.  This is Algorithm 2's
arithmetic summed in another order, so Lemma 7's one-sided bound holds as
before:

    0 ≥ h̃^(ℓ) - h^(ℓ) ≥ -θ (1 - (√c)^ℓ) / (1 - √c).

**Column independence.**  SciPy's CSR product follows SMMP (Bank & Douglas,
1993): entry ``(y, t)`` of ``M · H`` sums ``M[y, x] · H[x, t]`` over row ``y``
of ``M`` in its stored column order, whatever other columns ``H`` holds.
``M`` is built with sorted indices, so a target's column is bitwise the same
whether it is pushed alone (:func:`reverse_push`), in a block of
:data:`BLOCK_WIDTH` columns, or in a dynamic repair's set of affected
targets; a repaired store therefore equals a rebuild's bitwise.

This module provides

* :func:`push_operator` — the push operator ``M`` (CSR, sorted indices),
* :func:`reverse_push` — Algorithm 2 for one target, as a one-column product,
* :func:`hitting_record_blocks` / :func:`build_hitting_sets` — Algorithm 2
  proper: push the targets :data:`BLOCK_WIDTH` columns at a time and emit
  every kept entry as a flat ``(source, level, target, value)`` record
  (:class:`HittingRecords`);
  :meth:`~repro.sling.packed.PackedHittingStore.from_hitting_sets` groups the
  records into the per-source sets ``H(v_i)``,
* :func:`push_frontier` — one scatter step of a single weighted frontier, the
  inner loop of the single-source query kernel (Algorithm 6),
* :func:`exact_near_hops` — Algorithm 5: exact step-1 / step-2 hitting
  probabilities computed on the fly (used by the Section 5.2 space reduction).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from ..exceptions import NodeNotFoundError, ParameterError
from ..graphs import DiGraph

__all__ = [
    "BLOCK_WIDTH",
    "HittingRecords",
    "concatenated_ranges",
    "push_frontier",
    "push_operator",
    "reverse_push",
    "hitting_record_blocks",
    "build_hitting_sets",
    "exact_near_hops",
    "neighborhood_weight",
]

_LevelMap = dict[int, dict[int, float]]

#: Targets pushed per sparse product.  One product holds a block's frontiers
#: and records, so the width bounds the push's working memory; wider blocks
#: run fewer, larger products (on the 6,000-node Google stand-in one
#: full-width product pushed 3-4x faster than 512-column blocks, holding every
#: target's frontier at once).  It must stay below 2**15: a record's column
#: within its block is an int16 sort key.
BLOCK_WIDTH = 512


class HittingRecords(NamedTuple):
    """Hitting probabilities as flat, aligned record columns.

    Record ``i`` states ``h̃^(levels[i])(sources[i], targets[i]) = values[i]``.
    This is what the reverse pushes emit and what
    :meth:`~repro.sling.packed.PackedHittingStore.from_hitting_sets` packs;
    records are in push order — by target, then level, then source — and the
    packing sorts them into per-source segments.
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
    def empty(cls, num_nodes: int) -> "HittingRecords":
        """No records over ``num_nodes`` nodes."""
        return cls(
            num_nodes,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
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
    ``v_y``.  This single scatter step is the inner loop of the single-source
    local push (Algorithm 6); it is fully vectorised over the frontier's
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
# Algorithm 2: reverse local push as one pruned sparse product per level
# --------------------------------------------------------------------------- #
def _check_push_parameters(sqrt_c: float, theta: float) -> None:
    if theta <= 0.0:
        raise ParameterError(f"theta must be positive, got {theta}")
    if not 0.0 < sqrt_c < 1.0:
        raise ParameterError(f"sqrt_c must be in (0, 1), got {sqrt_c}")


def push_operator(graph: DiGraph, sqrt_c: float) -> sparse.csr_matrix:
    """The push operator ``M = √c · Pᵀ`` as CSR with sorted indices.

    Row ``y`` holds ``√c / |I(v_y)|`` at every in-neighbour ``x`` of ``v_y``:
    ``(M · H)[y, t]`` is one reverse-push step of the frontier in column
    ``t``.  The sorted rows fix every entry's summation order (the module
    docstring's column-independence argument).
    """
    operator = (sqrt_c * graph.transition_matrix().T).tocsr()
    operator.sort_indices()
    return operator


def _level_products(
    operator: sparse.csr_matrix,
    targets: "np.ndarray",
    theta: float,
    max_levels: int | None = None,
) -> Iterator[tuple[int, sparse.csr_matrix]]:
    """Yield ``(ℓ, H_ℓ)``: the pruned frontiers of ``targets``, one per column.

    ``H_ℓ`` is ``n × len(targets)`` CSR; every stored value exceeds ``theta``
    and only those are pushed on, which is Algorithm 2's pruning.
    """
    width = targets.shape[0]
    frontier = sparse.csr_matrix(
        (np.ones(width), (targets, np.arange(width))),
        shape=(operator.shape[0], width),
    )
    level = 0
    while max_levels is None or level < max_levels:
        frontier.data[frontier.data <= theta] = 0.0
        frontier.eliminate_zeros()
        if frontier.nnz == 0:
            break
        yield level, frontier
        frontier = operator @ frontier
        level += 1


def reverse_push(
    graph: DiGraph,
    target: int,
    sqrt_c: float,
    theta: float,
    *,
    max_levels: int | None = None,
) -> _LevelMap:
    """Reverse local push from ``target`` (Algorithm 2 for one target).

    Returns ``{ℓ: {v_x: h̃^(ℓ)(v_x, target)}}`` containing every approximate
    hitting probability *to* ``target`` that exceeds ``theta``; entries at or
    below ``theta`` are pruned and not propagated (Lemma 7).  This is the
    one-column case of :func:`build_hitting_sets`'s product, so its values
    are bitwise that build's records for ``target``.

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
    _check_push_parameters(sqrt_c, theta)
    graph.in_degree(target)  # validates the node id
    levels = _level_products(
        push_operator(graph, sqrt_c),
        np.array([int(target)], dtype=np.int64),
        theta,
        max_levels,
    )
    # One column: row v holds at most one value, so data is in source order.
    return {
        level: dict(
            zip(
                np.flatnonzero(np.diff(frontier.indptr)).tolist(),
                frontier.data.tolist(),
            )
        )
        for level, frontier in levels
    }


def _block_records(
    operator: sparse.csr_matrix, targets: "np.ndarray", theta: float
) -> HittingRecords:
    """The records of one block of targets, in push order."""
    num_nodes = operator.shape[0]
    rows = np.arange(num_nodes, dtype=np.int64)
    sources, levels, columns, values = [], [], [], []
    for level, frontier in _level_products(operator, targets, theta):
        sources.append(np.repeat(rows, np.diff(frontier.indptr)))
        levels.append(np.full(frontier.nnz, level, dtype=np.int32))
        columns.append(frontier.indices.astype(np.int16))
        values.append(frontier.data)
    if not values:
        return HittingRecords.empty(num_nodes)
    # The records are level-major with ascending sources; a stable (radix)
    # sort on the block column puts them in push order.
    column = np.concatenate(columns)
    order = np.argsort(column, kind="stable")
    return HittingRecords(
        num_nodes,
        np.concatenate(sources)[order],
        np.concatenate(levels)[order],
        targets.astype(np.int32)[column[order]],
        np.concatenate(values)[order],
    )


def hitting_record_blocks(
    graph: DiGraph,
    sqrt_c: float,
    theta: float,
    *,
    targets: Iterable[int] | None = None,
) -> Iterator[HittingRecords]:
    """Algorithm 2 block by block: the records of :data:`BLOCK_WIDTH` targets
    per item, in push order.

    ``M`` is built once; the out-of-core build spills each block as it comes,
    :func:`build_hitting_sets` concatenates them.
    """
    _check_push_parameters(sqrt_c, theta)
    num_nodes = graph.num_nodes
    if targets is None:
        targets = np.arange(num_nodes, dtype=np.int64)
    else:
        targets = np.fromiter(targets, dtype=np.int64)
        outside = (targets < 0) | (targets >= num_nodes)
        if outside.any():
            raise NodeNotFoundError(int(targets[outside][0]))
    operator = push_operator(graph, sqrt_c)
    for start in range(0, targets.shape[0], BLOCK_WIDTH):
        yield _block_records(operator, targets[start : start + BLOCK_WIDTH], theta)


def build_hitting_sets(
    graph: DiGraph,
    sqrt_c: float,
    theta: float,
    *,
    targets: Iterable[int] | None = None,
) -> HittingRecords:
    """Algorithm 2: the hitting probabilities of every node, as records.

    Pushes every target node ``v_k`` and emits each kept ``h̃^(ℓ)(v_x, v_k)``
    as the record ``(v_x, ℓ, v_k, value)``; the sets ``H(v_x)`` are the
    records grouped by source, which is what
    :meth:`~repro.sling.packed.PackedHittingStore.from_hitting_sets` does.

    ``targets`` restricts the pushed targets (a dynamic repair re-pushes its
    affected targets this way); sources still range over the whole graph.
    By column independence a target's records do not depend on which other
    targets are pushed with it.
    """
    blocks = list(hitting_record_blocks(graph, sqrt_c, theta, targets=targets))
    if not blocks:
        return HittingRecords.empty(graph.num_nodes)
    return HittingRecords.concatenate(blocks)


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

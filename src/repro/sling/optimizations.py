"""Practical optimizations of the SLING index (Sections 5.2 and 5.3).

Two of the paper's optimizations change *what the index stores* and *what a
query reads*, and therefore live next to the index rather than inside the
construction algorithms:

* **Space reduction** (Section 5.2): step-1 and step-2 hitting probabilities
  can be recomputed exactly at query time with a two-hop traversal
  (Algorithm 5).  For nodes whose two-hop in-neighbourhood is small —
  ``η(v_i) ≤ γ / θ`` with ``γ = 10`` — the stored entries at those steps are
  dropped, which empirically removes a large fraction of the index without
  affecting the ``O(1/ε)`` query bound or the accuracy guarantee (the
  recomputed values are exact).

* **Accuracy enhancement** (Section 5.3): for each node a handful of stored
  hitting probabilities are *marked*; at query time each marked entry is
  expanded one extra step, generating hitting probabilities that the θ-pruning
  had discarded.  The generated values never exceed the true ones, so accuracy
  can only improve, and the expansion budget of ``1/√ε`` marks keeps the query
  time at ``O(1/ε)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph
from .hitting import HittingRecords, neighborhood_weight

__all__ = ["SpaceReduction", "AccuracyEnhancer", "DEFAULT_GAMMA"]

#: The constant γ of Section 5.2: step-1/2 entries are dropped whenever the
#: two-hop neighbourhood weight η(v) does not exceed γ / θ.
DEFAULT_GAMMA: float = 10.0

_REDUCIBLE_LEVELS: tuple[int, ...] = (1, 2)


@dataclass(frozen=True)
class SpaceReduction:
    """Space-reduction policy (Section 5.2).

    Attributes
    ----------
    theta:
        The hitting-probability threshold of the index being reduced.
    gamma:
        The budget constant; the on-the-fly recomputation of a reduced node
        costs ``O(η(v)) ≤ O(γ/θ) = O(1/ε)`` time.
    """

    theta: float
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ParameterError(f"theta must be positive, got {self.theta}")
        if self.gamma <= 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")

    @property
    def weight_budget(self) -> float:
        """Maximum two-hop neighbourhood weight ``γ / θ`` eligible for reduction."""
        return self.gamma / self.theta

    def is_reducible(self, graph: DiGraph, node: int) -> bool:
        """Whether ``node``'s step-1/2 entries may be dropped."""
        return neighborhood_weight(graph, node) <= self.weight_budget

    def apply(
        self, graph: DiGraph, records: HittingRecords
    ) -> tuple[np.ndarray, HittingRecords]:
        """Mask out the step-1/2 records of every reducible source node.

        Returns ``(reduced, kept)``: a boolean array marking which nodes were
        reduced — the index keeps it so queries know when to overlay
        :func:`~repro.sling.hitting.exact_near_hops` — and the records that
        remain to be packed.
        """
        reduced = np.fromiter(
            (self.is_reducible(graph, node) for node in graph.nodes()),
            dtype=bool,
            count=graph.num_nodes,
        )
        near = np.isin(records.levels, _REDUCIBLE_LEVELS)
        return reduced, records.take(~(near & reduced[records.sources]))


class AccuracyEnhancer:
    """Query-time accuracy enhancement (Section 5.3).

    Parameters
    ----------
    graph:
        The indexed graph (needed to expand marked entries along in-edges).
    epsilon:
        The index error target; the mark budget and the in-degree cutoff are
        both ``1/√ε``.
    sqrt_c:
        The √c continuation probability.
    """

    def __init__(self, graph: DiGraph, epsilon: float, sqrt_c: float) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0.0 < sqrt_c < 1.0:
            raise ParameterError(f"sqrt_c must be in (0, 1), got {sqrt_c}")
        self._graph = graph
        self._sqrt_c = sqrt_c
        self._budget = max(1, int(math.ceil(1.0 / math.sqrt(epsilon))))
        self._marks: dict[int, list[tuple[int, int, float]]] = {}

    @property
    def mark_budget(self) -> int:
        """Number of hitting probabilities marked per node, ``⌈1/√ε⌉``."""
        return self._budget

    def marks_for(self, node: int) -> list[tuple[int, int, float]]:
        """The marked ``(level, target, value)`` entries of ``node``."""
        return self._marks.get(int(node), [])

    # ------------------------------------------------------------------ #
    def mark_all_packed(self, store) -> None:
        """Select the marked entries of every node (once, at build or load).

        Only entries whose target has in-degree at most ``1/√ε`` are eligible
        (expanding a high-in-degree target would blow the query budget); among
        those the ``1/√ε`` largest are marked.  Candidate entries are visited
        in canonical (key-sorted) order of the frozen
        :class:`~repro.sling.packed.PackedHittingStore`, so an index built in
        memory and one loaded from disk mark identical entries — including
        value ties — and answer queries bitwise-identically.
        """
        in_degrees = self._graph.in_degrees()
        for node in range(store.num_nodes):
            levels, targets, values = store.node_entries(node)
            if targets.shape[0] == 0:
                continue
            eligible = in_degrees[targets] <= self._budget
            if not bool(eligible.any()):
                continue
            el_levels = levels[eligible]
            el_targets = targets[eligible]
            el_values = values[eligible]
            # Stable sort by value descending keeps the canonical key order
            # among ties, matching the dict path's stable list sort.
            order = np.argsort(-el_values, kind="stable")[: self._budget]
            self._marks[node] = [
                (int(el_levels[i]), int(el_targets[i]), float(el_values[i]))
                for i in order
            ]

    def generated_entries(
        self, node: int, contains
    ) -> dict[tuple[int, int], float]:
        """The positions the enhancement ``H*(v)`` generates for one query.

        Every marked entry ``h̃^(ℓ)(v, v_j)`` is pushed one step backwards
        along the in-edges of ``v_j``.  ``contains(level, target)`` reports
        whether the query's current set already stores a positive probability
        at that position (those are left untouched — the stored approximation
        is at least as good).  The returned mapping accumulates
        ``√c · h̃^(ℓ)(v, v_j) / |I(v_j)|`` per generated position, in mark
        order; the query core overlays it on the node's view.
        """
        marks = self._marks.get(int(node))
        if not marks:
            return {}
        generated: dict[tuple[int, int], float] = {}
        for level, target, value in marks:
            in_neighbors = self._graph.in_neighbors(target)
            if in_neighbors.shape[0] == 0:
                continue
            contribution = self._sqrt_c * value / in_neighbors.shape[0]
            for predecessor in in_neighbors:
                predecessor = int(predecessor)
                key = (level + 1, predecessor)
                if contains(level + 1, predecessor):
                    continue
                if key in generated:
                    generated[key] += contribution
                else:
                    generated[key] = contribution
        return generated

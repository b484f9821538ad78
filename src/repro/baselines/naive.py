"""Naive SimRank iteration on plain Python dictionaries.

This is the textbook Jeh & Widom fixed-point iteration written with no numpy
and no cleverness whatsoever.  It is far too slow for anything but toy graphs,
which is exactly the point: it serves as an independent oracle for testing the
power method, the SLING index, and the other baselines against each other.
:class:`NaiveSimRank` serves its scores like the power method's matrix.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph
from .power import PowerMethod, iterations_for_error

__all__ = ["NaiveSimRank", "naive_simrank", "naive_simrank_pair"]


def naive_simrank(
    graph: DiGraph,
    *,
    c: float = 0.6,
    num_iterations: int | None = None,
    epsilon: float | None = None,
) -> dict[tuple[int, int], float]:
    """All-pairs SimRank by direct fixed-point iteration of Equation (1).

    Either ``num_iterations`` or ``epsilon`` must be given; with ``epsilon``
    the iteration count comes from :func:`iterations_for_error`.

    Returns a dictionary mapping ``(u, v)`` to the score, for every pair.
    """
    if not 0.0 < c < 1.0:
        raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
    if num_iterations is None:
        if epsilon is None:
            raise ParameterError("either num_iterations or epsilon must be given")
        num_iterations = iterations_for_error(c, epsilon)
    if num_iterations < 0:
        raise ParameterError(f"num_iterations must be >= 0, got {num_iterations}")

    nodes = list(graph.nodes())
    scores = {(u, v): 1.0 if u == v else 0.0 for u in nodes for v in nodes}
    for _ in range(num_iterations):
        updated: dict[tuple[int, int], float] = {}
        for u in nodes:
            in_u = graph.in_neighbors(u)
            for v in nodes:
                if u == v:
                    updated[(u, v)] = 1.0
                    continue
                in_v = graph.in_neighbors(v)
                if in_u.shape[0] == 0 or in_v.shape[0] == 0:
                    updated[(u, v)] = 0.0
                    continue
                total = 0.0
                for a in in_u:
                    for b in in_v:
                        total += scores[(int(a), int(b))]
                updated[(u, v)] = c * total / (in_u.shape[0] * in_v.shape[0])
        scores = updated
    return scores


def naive_simrank_pair(
    graph: DiGraph,
    node_u: int,
    node_v: int,
    *,
    c: float = 0.6,
    epsilon: float = 0.01,
) -> float:
    """SimRank of one pair via the all-pairs naive iteration (tiny graphs only)."""
    scores = naive_simrank(graph, c=c, epsilon=epsilon)
    return scores[(int(node_u), int(node_v))]


class NaiveSimRank(PowerMethod):
    """:func:`naive_simrank` as a :class:`SimRankMethod`.

    Only the build differs from :class:`PowerMethod`: the score matrix is
    filled from the dictionary iteration (same Lemma-1 iteration count), and
    queries read it with the power method's node checks.
    """

    name = "Naive"

    def build(self) -> "NaiveSimRank":
        """Run the dictionary iteration and cache its scores as a matrix."""
        scores = naive_simrank(self._graph, c=self._c, num_iterations=self._num_iterations)
        n = self._graph.num_nodes
        matrix = np.zeros((n, n), dtype=np.float64)
        for (node_u, node_v), value in scores.items():
            matrix[node_u, node_v] = value
        self._matrix = matrix
        self._built = True
        return self

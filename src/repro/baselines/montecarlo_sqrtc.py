"""Monte Carlo SimRank with √c-walks (the variant sketched in Section 4.1).

The paper observes that substituting √c-walks for truncated reverse random
walks inside the Fogaras–Rácz index removes the truncation parameter entirely
(√c-walks terminate on their own after ``1/(1-√c)`` expected steps) and
improves the query time of the Monte Carlo method by a ``log(1/ε)`` factor.
SLING goes further, but this intermediate method is a useful comparison point
and an unbiased estimator in its own right: the fraction of paired √c-walks
that meet is exactly ``s(u, v)`` in expectation (Lemma 3).

The index stores, for every node, ``num_walks`` sampled √c-walks in a padded
integer matrix (``-1`` marks steps after termination).
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph
from .base import SimRankMethod

__all__ = ["SqrtCMonteCarloIndex", "required_sqrtc_walks"]

_STOPPED = -1


def required_sqrtc_walks(num_nodes: int, epsilon: float, delta: float) -> int:
    """Walk budget ``O(log(n/δ)/ε²)`` giving ε error for all pairs (Chernoff).

    This is the bound quoted at the end of Section 4.1 for the √c-walk Monte
    Carlo method; it drops the ``log(1/ε)`` factor of the truncated variant.
    """
    if num_nodes <= 0:
        raise ParameterError(f"num_nodes must be positive, got {num_nodes}")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    return math.ceil(
        14.0
        / (3.0 * epsilon * epsilon)
        * (math.log(2.0 / delta) + 2.0 * math.log(num_nodes))
    )


class SqrtCMonteCarloIndex(SimRankMethod):
    """Fingerprint index over √c-walks (the "MC + √c-walk" variant).

    Parameters
    ----------
    graph, c:
        Input graph and decay factor.
    epsilon, delta:
        Accuracy target used to derive ``num_walks`` when it is not given.
    num_walks:
        Explicit per-node walk budget override (used by the benchmarks).
    max_length:
        Safety cap on walk length; √c-walks end on their own far earlier.
    seed:
        Seed for walk generation.
    """

    name = "MC-sqrtc"

    def __init__(
        self,
        graph: DiGraph,
        *,
        c: float = 0.6,
        epsilon: float = 0.025,
        delta: float | None = None,
        num_walks: int | None = None,
        max_length: int | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(graph, c=c)
        if not 0.0 < c < 1.0:
            raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
        if delta is None:
            delta = 1.0 / max(2, graph.num_nodes)
        if num_walks is None:
            num_walks = required_sqrtc_walks(graph.num_nodes, epsilon, delta)
        if num_walks <= 0:
            raise ParameterError(f"num_walks must be positive, got {num_walks}")
        self._sqrt_c = math.sqrt(c)
        if max_length is None:
            max_length = max(16, int(16.0 / (1.0 - self._sqrt_c)))
        if max_length < 1:
            raise ParameterError(f"max_length must be >= 1, got {max_length}")
        self._num_walks = int(num_walks)
        self._max_length = int(max_length)
        self._rng = np.random.default_rng(seed)
        self._fingerprints: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    @property
    def num_walks(self) -> int:
        """Number of stored √c-walks per node."""
        return self._num_walks

    # ------------------------------------------------------------------ #
    def build(self) -> "SqrtCMonteCarloIndex":
        """Sample ``num_walks`` √c-walks per node and store their steps.

        All walks of all nodes advance together, one step per iteration: at
        each step every still-alive walk survives with probability ``√c`` and
        then moves to a uniform in-neighbour.  Iteration stops when every walk
        has terminated, so the stored matrix is only as long as the longest
        sampled walk.
        """
        graph = self._graph
        n = graph.num_nodes
        rng = self._rng
        positions = np.repeat(np.arange(n, dtype=np.int64), self._num_walks)
        columns: list[np.ndarray] = []
        for _ in range(self._max_length):
            alive = positions >= 0
            if not alive.any():
                break
            # Continuation coin flip, applied only to alive walks.
            survive = rng.random(positions.shape[0]) < self._sqrt_c
            positions = np.where(alive & survive, positions, -1)
            positions = graph.sample_in_neighbors(positions, rng)
            if not (positions >= 0).any():
                break
            columns.append(positions.copy())
        if columns:
            stacked = np.stack(columns, axis=1).astype(np.int32)
            self._fingerprints = stacked.reshape(n, self._num_walks, len(columns))
        else:
            self._fingerprints = np.full((n, self._num_walks, 1), _STOPPED, np.int32)
        self._built = True
        return self

    # ------------------------------------------------------------------ #
    def single_pair(self, node_u: int, node_v: int) -> float:
        """Fraction of paired √c-walks that meet (unbiased by Lemma 3)."""
        self._require_built()
        assert self._fingerprints is not None
        node_u, node_v = int(node_u), int(node_v)
        self._graph.in_degree(node_u)
        self._graph.in_degree(node_v)
        if node_u == node_v:
            return 1.0
        walks_u = self._fingerprints[node_u]
        walks_v = self._fingerprints[node_v]
        meets = ((walks_u == walks_v) & (walks_u != _STOPPED)).any(axis=1)
        return float(meets.mean())

    def single_source(self, node: int) -> np.ndarray:
        """Pair the query node's walks against every other node's walks."""
        self._require_built()
        assert self._fingerprints is not None
        node = int(node)
        self._graph.in_degree(node)
        walks_u = self._fingerprints[node]
        scores = np.empty(self._graph.num_nodes, dtype=np.float64)
        for other in range(self._graph.num_nodes):
            if other == node:
                scores[other] = 1.0
                continue
            meets = (
                (walks_u == self._fingerprints[other]) & (walks_u != _STOPPED)
            ).any(axis=1)
            scores[other] = float(meets.mean())
        return scores

    def index_size_bytes(self) -> int:
        """Size of the stored walk matrix (4 bytes per stored step)."""
        self._require_built()
        assert self._fingerprints is not None
        return int(self._fingerprints.nbytes)

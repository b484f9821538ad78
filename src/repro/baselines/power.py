"""The power method for all-pairs SimRank (Section 3.1).

The power method iterates the matrix form of SimRank,

    S ← (c · Pᵀ S P) ∨ I,

until the Lemma-1 iteration count guarantees the requested worst-case error.
It needs Θ(n²) memory and is therefore only usable on small graphs — exactly
how the paper uses it: with 50 iterations it provides the ground truth for the
accuracy experiments of Figures 5-7 (worst-case error below 1e-11).
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph
from .base import SimRankMethod

__all__ = [
    "PowerMethod",
    "simrank_matrix",
    "iterations_for_error",
    "GROUND_TRUTH_ITERATIONS",
]

#: Iteration count the paper uses when computing ground truth (Section 7.2).
GROUND_TRUTH_ITERATIONS = 50


def iterations_for_error(c: float, epsilon: float) -> int:
    """Number of iterations guaranteeing ``epsilon`` worst-case error (Lemma 1).

    Lemma 1 (Lizorkin et al.): ``t ≥ log_c(ε (1 - c)) - 1`` suffices.
    """
    if not 0.0 < c < 1.0:
        raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    return max(1, math.ceil(math.log(epsilon * (1.0 - c)) / math.log(c) - 1.0))


def simrank_matrix(
    graph: DiGraph,
    *,
    c: float = 0.6,
    num_iterations: int | None = None,
    epsilon: float | None = None,
) -> np.ndarray:
    """All-pairs SimRank matrix via the power method.

    Either ``num_iterations`` or ``epsilon`` must be supplied; with
    ``epsilon`` the iteration count is the Lemma-1 bound.
    """
    if not 0.0 < c < 1.0:
        raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
    if num_iterations is None:
        if epsilon is None:
            raise ParameterError("either num_iterations or epsilon must be given")
        num_iterations = iterations_for_error(c, epsilon)
    if num_iterations < 0:
        raise ParameterError(f"num_iterations must be >= 0, got {num_iterations}")

    n = graph.num_nodes
    transition = graph.transition_matrix().tocsc()
    scores = np.eye(n, dtype=np.float64)
    for _ in range(num_iterations):
        # S ← c · Pᵀ S P, then force the diagonal back to 1 (the ∨ I step:
        # off-diagonal entries of c·PᵀSP never exceed the true SimRank ≤ 1,
        # so the element-wise maximum only affects the diagonal).
        propagated = transition.T @ scores @ transition
        scores = c * np.asarray(propagated)
        np.fill_diagonal(scores, 1.0)
    return scores


class PowerMethod(SimRankMethod):
    """All-pairs SimRank via the power method, as a :class:`SimRankMethod`.

    Parameters
    ----------
    graph, c:
        Input graph and decay factor.
    epsilon:
        Target worst-case error; determines the iteration count via Lemma 1
        unless ``num_iterations`` is given explicitly.
    num_iterations:
        Explicit iteration count (the paper's ground truth uses 50).
    """

    name = "Power"

    def __init__(
        self,
        graph: DiGraph,
        *,
        c: float = 0.6,
        epsilon: float = 0.025,
        num_iterations: int | None = None,
    ) -> None:
        super().__init__(graph, c=c)
        if num_iterations is None:
            num_iterations = iterations_for_error(c, epsilon)
        self._num_iterations = int(num_iterations)
        self._epsilon = float(epsilon)
        self._matrix: np.ndarray | None = None

    @property
    def num_iterations(self) -> int:
        """Number of fixed-point iterations performed by :meth:`build`."""
        return self._num_iterations

    def build(self) -> "PowerMethod":
        """Run the fixed-point iteration and cache the full score matrix."""
        self._matrix = simrank_matrix(
            self._graph, c=self._c, num_iterations=self._num_iterations
        )
        self._built = True
        return self

    def single_pair(self, node_u: int, node_v: int) -> float:
        """Read one score out of the cached matrix."""
        self._require_built()
        assert self._matrix is not None
        self._graph.in_degree(node_u)
        self._graph.in_degree(node_v)
        return float(self._matrix[int(node_u), int(node_v)])

    def single_source(self, node: int) -> np.ndarray:
        """Read one row out of the cached matrix."""
        self._require_built()
        assert self._matrix is not None
        self._graph.in_degree(node)
        return self._matrix[int(node)].copy()

    def all_pairs(self) -> np.ndarray:
        """Return (a copy of) the cached all-pairs matrix."""
        self._require_built()
        assert self._matrix is not None
        return self._matrix.copy()

    def index_size_bytes(self) -> int:
        """The Θ(n²) score matrix dominates the footprint."""
        self._require_built()
        assert self._matrix is not None
        return int(self._matrix.nbytes)

"""The linearization method of Maehara et al. (Section 3.3 and Appendix A).

The method is built on Lemma 2: with the diagonal correction matrix ``D``,

    S = Σ_ℓ  c^ℓ (P^ℓ)ᵀ D P^ℓ,

so a single-pair query reduces to ``T+1`` sparse matrix-vector products and a
diagonal-weighted inner product, and a single-source query to ``O(T)`` more of
the same (Equations 9-10).

Preprocessing estimates ``D``:

1. sample ``R`` reverse random walks of length ``T`` from every node and use
   their empirical step distributions ``p̃^(ℓ)_{k,i}`` to assemble the
   truncated linear system  Σ_ℓ Σ_i c^ℓ (p̃^(ℓ)_{k,i})² D(i,i) = 1  (Eq. 19),
2. run ``L`` Gauss–Seidel sweeps on that system, visiting the nodes in
   topological order of the graph (see :meth:`LinearizeIndex._sweep_order`).

As the paper stresses (Appendix A), this yields *no* worst-case accuracy
guarantee — the sampling error, the truncation, and the possible
non-convergence of Gauss–Seidel are all unquantified — which is precisely the
behaviour Figures 5-6 exhibit (error above the nominal bound on several
datasets).  The implementation keeps those characteristics faithfully; an
``exact_diagonal`` switch lets tests substitute the true ``D`` and verify
Equation (11).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..exceptions import ParameterError
from ..graphs import DiGraph
from .base import SimRankMethod

__all__ = ["LinearizeIndex", "DEFAULT_T", "DEFAULT_R", "DEFAULT_L"]

#: Parameter defaults recommended by Maehara et al. and used in Section 7.1.
DEFAULT_T = 11
DEFAULT_R = 100
DEFAULT_L = 3


class LinearizeIndex(SimRankMethod):
    """SimRank via linearization (Maehara et al. [24]).

    Parameters
    ----------
    graph, c:
        Input graph and decay factor.
    num_steps:
        Truncation length ``T`` of the series (paper default 11).
    num_walks:
        Reverse walks per node ``R`` used to estimate the diagonal system
        (paper default 100).
    num_sweeps:
        Gauss–Seidel sweeps ``L`` (paper default 3).
    seed:
        Seed for the walk sampling.
    diagonal:
        Optional pre-computed diagonal of ``D``.  Supplying the exact values
        (e.g. from :func:`repro.sling.exact_correction_factors`) turns the
        method into the idealised variant for which Equation (11) holds.
    """

    name = "Linearize"

    def __init__(
        self,
        graph: DiGraph,
        *,
        c: float = 0.6,
        num_steps: int = DEFAULT_T,
        num_walks: int = DEFAULT_R,
        num_sweeps: int = DEFAULT_L,
        seed: int | None = None,
        diagonal: np.ndarray | None = None,
    ) -> None:
        super().__init__(graph, c=c)
        if num_steps < 1:
            raise ParameterError(f"num_steps must be >= 1, got {num_steps}")
        if num_walks < 1:
            raise ParameterError(f"num_walks must be >= 1, got {num_walks}")
        if num_sweeps < 1:
            raise ParameterError(f"num_sweeps must be >= 1, got {num_sweeps}")
        self._num_steps = int(num_steps)
        self._num_walks = int(num_walks)
        self._num_sweeps = int(num_sweeps)
        self._rng = np.random.default_rng(seed)
        if diagonal is not None:
            diagonal = np.asarray(diagonal, dtype=np.float64)
            if diagonal.shape != (graph.num_nodes,):
                raise ParameterError(
                    f"diagonal must have shape ({graph.num_nodes},), "
                    f"got {diagonal.shape}"
                )
        self._provided_diagonal = diagonal
        self._diagonal: np.ndarray | None = None
        self._transition: sparse.csr_matrix | None = None
        self._transition_t: sparse.csr_matrix | None = None

    # ------------------------------------------------------------------ #
    @property
    def num_steps(self) -> int:
        """Series truncation length ``T``."""
        return self._num_steps

    @property
    def diagonal(self) -> np.ndarray:
        """The (estimated or supplied) diagonal of the correction matrix."""
        self._require_built()
        assert self._diagonal is not None
        return self._diagonal

    # ------------------------------------------------------------------ #
    # Preprocessing
    # ------------------------------------------------------------------ #
    def build(self) -> "LinearizeIndex":
        """Assemble ``P`` and estimate the diagonal correction matrix ``D``."""
        self._transition = self._graph.transition_matrix().tocsr()
        self._transition_t = self._transition.T.tocsr()
        if self._provided_diagonal is not None:
            self._diagonal = self._provided_diagonal.copy()
        else:
            coefficients = self._estimate_coefficients()
            self._diagonal = self._gauss_seidel(coefficients)
        self._built = True
        return self

    def _estimate_coefficients(self) -> sparse.csr_matrix:
        """Monte-Carlo estimate of ``M(k, i) = Σ_ℓ c^ℓ (p^(ℓ)_{k,i})²``."""
        graph = self._graph
        n = graph.num_nodes
        rng = self._rng
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for source in graph.nodes():
            # walk_positions holds the current node of every walk from `source`
            # (-1 once a walk has stopped at a node without in-neighbours).
            walk_positions = np.full(self._num_walks, source, dtype=np.int64)
            accumulator: dict[int, float] = {source: 1.0}  # ℓ = 0 term: p = 1
            decay = 1.0
            for _ in range(1, self._num_steps + 1):
                decay *= self._c
                walk_positions = graph.sample_in_neighbors(walk_positions, rng)
                alive = walk_positions >= 0
                if not alive.any():
                    break
                occupied, counts = np.unique(
                    walk_positions[alive], return_counts=True
                )
                frequencies = counts / self._num_walks
                for node, frequency in zip(occupied, frequencies):
                    accumulator[int(node)] = (
                        accumulator.get(int(node), 0.0) + decay * frequency * frequency
                    )
            for node, value in accumulator.items():
                rows.append(source)
                cols.append(node)
                data.append(value)
        return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))

    def _sweep_order(self) -> np.ndarray:
        """Nodes in reverse DFS postorder of the out-edges.

        For every edge ``u -> v`` across strongly connected components, ``u``
        comes before ``v``.  Row ``k`` of ``M`` couples ``D(k,k)`` only to the
        nodes that reverse walks from ``k`` reach, i.e. to ``k``'s ancestors,
        so sweeping in this order solves an acyclic graph's (triangular)
        system in one sweep; forward id order would need one sweep per level
        of a directed path and leave ``s(u, u)`` far from 1 after ``L``.
        """
        indptr, indices = self._graph.out_csr()
        n = self._graph.num_nodes
        visited = np.zeros(n, dtype=bool)
        postorder: list[int] = []
        for root in range(n):
            if visited[root]:
                continue
            visited[root] = True
            stack = [(root, int(indptr[root]))]
            while stack:
                node, cursor = stack[-1]
                if cursor < indptr[node + 1]:
                    stack[-1] = (node, cursor + 1)
                    child = int(indices[cursor])
                    if not visited[child]:
                        visited[child] = True
                        stack.append((child, int(indptr[child])))
                else:
                    stack.pop()
                    postorder.append(node)
        return np.asarray(postorder[::-1], dtype=np.int64)

    def _gauss_seidel(self, coefficients: sparse.csr_matrix) -> np.ndarray:
        """``L`` Gauss–Seidel sweeps on ``M · diag = 1`` (Equation 19)."""
        n = self._graph.num_nodes
        diagonal = np.full(n, 1.0 - self._c, dtype=np.float64)
        indptr = coefficients.indptr
        indices = coefficients.indices
        values = coefficients.data
        order = self._sweep_order()
        for _ in range(self._num_sweeps):
            for k in order:
                row_slice = slice(indptr[k], indptr[k + 1])
                row_cols = indices[row_slice]
                row_vals = values[row_slice]
                self_mask = row_cols == k
                self_coefficient = float(row_vals[self_mask].sum()) or 1.0
                off_diagonal = float(
                    (row_vals[~self_mask] * diagonal[row_cols[~self_mask]]).sum()
                )
                diagonal[k] = (1.0 - off_diagonal) / self_coefficient
        return diagonal

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def single_pair(self, node_u: int, node_v: int) -> float:
        """Equation (10): ``Σ_ℓ c^ℓ (P^ℓ e_u)ᵀ D (P^ℓ e_v)``."""
        self._require_built()
        assert self._transition is not None and self._diagonal is not None
        node_u, node_v = int(node_u), int(node_v)
        self._graph.in_degree(node_u)
        self._graph.in_degree(node_v)
        n = self._graph.num_nodes
        vector_u = np.zeros(n, dtype=np.float64)
        vector_v = np.zeros(n, dtype=np.float64)
        vector_u[node_u] = 1.0
        vector_v[node_v] = 1.0
        score = 0.0
        decay = 1.0
        for step in range(self._num_steps + 1):
            score += decay * float(np.dot(vector_u * self._diagonal, vector_v))
            if step == self._num_steps:
                break
            vector_u = self._transition @ vector_u
            vector_v = self._transition @ vector_v
            decay *= self._c
        return float(score)

    def single_source(self, node: int) -> np.ndarray:
        """Row of ``S`` via forward propagation and backward accumulation.

        Computes ``Σ_ℓ c^ℓ (Pᵀ)^ℓ D (P^ℓ e_u)`` with the Horner-style
        recursion ``r_ℓ = D u_ℓ + c Pᵀ r_{ℓ+1}``, which costs ``O(m T)`` time
        and ``O(n T)`` transient memory.
        """
        self._require_built()
        assert self._transition is not None and self._transition_t is not None
        assert self._diagonal is not None
        node = int(node)
        self._graph.in_degree(node)
        n = self._graph.num_nodes
        forward = np.zeros(n, dtype=np.float64)
        forward[node] = 1.0
        forward_vectors = [forward]
        for _ in range(self._num_steps):
            forward = self._transition @ forward
            forward_vectors.append(forward)
        result = self._diagonal * forward_vectors[-1]
        for step in range(self._num_steps - 1, -1, -1):
            result = self._diagonal * forward_vectors[step] + self._c * (
                self._transition_t @ result
            )
        return result

    def index_size_bytes(self) -> int:
        """``P`` (CSR arrays) plus the ``n`` diagonal entries — ``O(n + m)``."""
        self._require_built()
        assert self._transition is not None and self._diagonal is not None
        transition_bytes = (
            self._transition.data.nbytes
            + self._transition.indices.nbytes
            + self._transition.indptr.nbytes
        )
        return int(transition_bytes + self._diagonal.nbytes)

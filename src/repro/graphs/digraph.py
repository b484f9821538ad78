"""Compact directed-graph representation used throughout the library.

SimRank is defined on directed, unweighted graphs through *in*-neighbour sets
(Equation 1 of the paper).  All algorithms in this repository — √c-walk
sampling, reverse local push, the power method, the Monte Carlo and
linearization baselines — only need two primitives:

* ``in_neighbors(v)``  — who points *to* ``v`` (used by reverse random walks),
* ``out_neighbors(v)`` — who ``v`` points to (used by the local-push
  propagation of Algorithms 2 and 6).

:class:`DiGraph` stores both directions in CSR-style flat numpy arrays, which
keeps memory close to ``2m`` integers and makes neighbour lookups allocation
free.  Node identifiers are dense integers ``0 .. n-1``; an optional label
mapping supports arbitrary hashable external identifiers.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import GraphFormatError, NodeNotFoundError

__all__ = ["DiGraph", "GraphStatistics"]


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics of a graph, mirroring Table 3 of the paper."""

    num_nodes: int
    num_edges: int
    is_symmetric: bool
    max_in_degree: int
    max_out_degree: int
    mean_degree: float


class DiGraph:
    """A directed, unweighted graph over dense integer node ids.

    Parameters
    ----------
    num_nodes:
        Number of nodes; node ids are ``0 .. num_nodes - 1``.
    edges:
        Iterable of ``(source, target)`` pairs.  Parallel edges are collapsed,
        self-loops are kept (SimRank is well defined with self-loops).
    labels:
        Optional sequence of external labels, one per node.  Purely cosmetic;
        all algorithms operate on integer ids.

    Notes
    -----
    The adjacency structure is immutable after construction.  Mutation would
    invalidate every index built on top of the graph, so the class simply does
    not offer it; build a new graph instead.
    """

    __slots__ = (
        "_num_nodes",
        "_in_indptr",
        "_in_indices",
        "_out_indptr",
        "_out_indices",
        "_labels",
        "_push_weight_cache",
    )

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[Hashable] | None = None,
    ) -> None:
        if num_nodes < 0:
            raise GraphFormatError(f"num_nodes must be non-negative, got {num_nodes}")
        self._num_nodes = int(num_nodes)

        edge_array = self._validate_edges(edges)
        self._in_indptr, self._in_indices = self._group_by(
            edge_array[:, 1], edge_array[:, 0]
        )
        self._out_indptr, self._out_indices = self._group_by(
            edge_array[:, 0], edge_array[:, 1]
        )
        self._push_weight_cache: dict[float, np.ndarray] = {}

        if labels is not None:
            labels = list(labels)
            if len(labels) != self._num_nodes:
                raise GraphFormatError(
                    f"expected {self._num_nodes} labels, got {len(labels)}"
                )
            if len(set(labels)) != self._num_nodes:
                raise GraphFormatError("node labels must be unique")
        self._labels: list[Hashable] | None = labels

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _validate_edges(self, edges: Iterable[tuple[int, int]]) -> np.ndarray:
        """Deduplicate and validate the edge list, returning an ``(m, 2)`` array.

        Fully vectorised: the per-edge Python set/``int()`` loop is replaced
        by one array conversion plus ``np.unique(..., axis=0)``, whose
        lexicographic order matches the previous ``sorted(set(...))``
        exactly.  Large edge-list loads thus no longer pay a Python-level
        cost per edge.
        """
        if isinstance(edges, np.ndarray):
            raw = edges
        else:
            raw = np.array(list(edges))
        if raw.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise GraphFormatError(
                f"edges must be (source, target) pairs, got shape {raw.shape}"
            )
        try:
            # ``unsafe`` truncates floats toward zero, matching ``int()``.
            edge_array = raw.astype(np.int64, casting="unsafe", copy=False)
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"edge endpoints must be integers: {exc}") from exc
        edge_array = np.unique(edge_array, axis=0)
        lo = edge_array.min()
        hi = edge_array.max()
        if lo < 0 or hi >= self._num_nodes:
            raise GraphFormatError(
                f"edge endpoints must be in [0, {self._num_nodes - 1}], "
                f"found values in [{lo}, {hi}]"
            )
        return edge_array

    def _group_by(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Group ``values`` by ``keys`` into ``(indptr, indices)`` CSR arrays."""
        if keys.shape[0] == 0:
            return (
                np.zeros(self._num_nodes + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        order = np.argsort(keys, kind="stable")
        sorted_values = values[order].astype(np.int64, copy=False)
        counts = np.bincount(keys, minlength=self._num_nodes)
        indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, sorted_values

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (after duplicate removal)."""
        return int(self._out_indices.shape[0])

    def nodes(self) -> range:
        """Iterate over all node ids."""
        return range(self._num_nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all ``(source, target)`` edges."""
        for u in range(self._num_nodes):
            start, stop = self._out_indptr[u], self._out_indptr[u + 1]
            for v in self._out_indices[start:stop]:
                yield u, int(v)

    def __len__(self) -> int:
        return self._num_nodes

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= int(node) < self._num_nodes

    def __repr__(self) -> str:
        return f"DiGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Neighbour access
    # ------------------------------------------------------------------ #
    def _check_node(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self._num_nodes:
            raise NodeNotFoundError(node)
        return node

    def in_neighbors(self, node: int) -> np.ndarray:
        """Return the in-neighbours of ``node`` as a read-only numpy view."""
        node = self._check_node(node)
        view = self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]
        view.flags.writeable = False
        return view

    def out_neighbors(self, node: int) -> np.ndarray:
        """Return the out-neighbours of ``node`` as a read-only numpy view."""
        node = self._check_node(node)
        view = self._out_indices[self._out_indptr[node] : self._out_indptr[node + 1]]
        view.flags.writeable = False
        return view

    def in_degree(self, node: int) -> int:
        """In-degree ``|I(v)|`` of ``node``."""
        node = self._check_node(node)
        return int(self._in_indptr[node + 1] - self._in_indptr[node])

    def out_degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        node = self._check_node(node)
        return int(self._out_indptr[node + 1] - self._out_indptr[node])

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node as an ``(n,)`` array."""
        return np.diff(self._in_indptr)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an ``(n,)`` array."""
        return np.diff(self._out_indptr)

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The in-adjacency as ``(indptr, indices)`` CSR arrays (read-only views).

        ``indices[indptr[v]:indptr[v+1]]`` are the in-neighbours of ``v``.
        Exposed so that performance-critical algorithms (reverse push, batch
        walk sampling) can operate on flat numpy arrays.
        """
        return self._in_indptr, self._in_indices

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The out-adjacency as ``(indptr, indices)`` CSR arrays (read-only views)."""
        return self._out_indptr, self._out_indices

    def push_edge_weights(self, sqrt_c: float) -> np.ndarray:
        """Per-out-edge push weights ``√c / |I(successor)|``, cached per ``√c``.

        Entry ``e`` of the result is aligned with :meth:`out_csr`'s
        ``indices`` column: it is the factor a local-push step multiplies
        into the mass flowing along edge ``e``.  Precomputing the column
        turns the cascade kernel's inner step into two gathers, one multiply
        and one ``bincount`` — no per-step division.  Every out-edge's head
        has at least one in-neighbour (the edge itself), so the division is
        always defined.

        The graph is immutable, so the column is computed once per distinct
        ``√c`` and shared (read-only) across all queries and threads.
        """
        key = float(sqrt_c)
        weights = self._push_weight_cache.get(key)
        if weights is None:
            in_degrees = np.diff(self._in_indptr)
            weights = key / in_degrees[self._out_indices]
            weights.flags.writeable = False
            self._push_weight_cache[key] = weights
        return weights

    def sample_in_neighbors(
        self, nodes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample one uniform in-neighbour for each node in ``nodes``.

        Vectorised helper used by the Monte-Carlo style baselines: entry ``i``
        of the result is a uniformly random member of ``I(nodes[i])``, or
        ``-1`` when that node has no in-neighbours.  ``nodes`` may contain
        ``-1`` entries (already-stopped walks), which stay ``-1``.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        result = np.full(nodes.shape[0], -1, dtype=np.int64)
        valid = nodes >= 0
        if not valid.any():
            return result
        valid_nodes = nodes[valid]
        if valid_nodes.max(initial=-1) >= self._num_nodes:
            raise NodeNotFoundError(int(valid_nodes.max()))
        degrees = self._in_indptr[valid_nodes + 1] - self._in_indptr[valid_nodes]
        sampled = np.full(valid_nodes.shape[0], -1, dtype=np.int64)
        has_in = degrees > 0
        if has_in.any():
            offsets = np.floor(
                rng.random(int(has_in.sum())) * degrees[has_in]
            ).astype(np.int64)
            starts = self._in_indptr[valid_nodes[has_in]]
            sampled[has_in] = self._in_indices[starts + offsets]
        result[valid] = sampled
        return result

    def has_edge(self, source: int, target: int) -> bool:
        """Return ``True`` when the directed edge ``source -> target`` exists."""
        source = self._check_node(source)
        target = self._check_node(target)
        row = self._out_indices[
            self._out_indptr[source] : self._out_indptr[source + 1]
        ]
        idx = np.searchsorted(row, target)
        return bool(idx < row.shape[0] and row[idx] == target)

    # ------------------------------------------------------------------ #
    # Delta construction
    # ------------------------------------------------------------------ #
    def with_edges(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> "DiGraph":
        """Return the successor graph after adding/removing the given edges.

        This is the dynamic-graph entry point: instead of re-running the full
        ``_validate_edges`` + ``_group_by`` construction over all ``m`` edges,
        only the *delta* edges are validated and the existing sorted CSR
        arrays are merged with them (``searchsorted`` + ``delete``/``insert``
        per direction), so the cost is ``O(|delta| + m)`` array work with no
        per-edge Python loop — and the result is bit-identical to building a
        fresh :class:`DiGraph` from the edited edge list.

        Adding an edge that already exists, or removing one that does not, is
        a no-op (parallel edges are collapsed at construction, so "add" can
        only mean "ensure present").  An edge listed in both ``added`` and
        ``removed`` is rejected as ambiguous.  Labels are shared with the
        original graph; the per-``√c`` push-weight cache starts fresh because
        in-degrees may have changed.
        """
        added_array = self._validate_edges(added)
        removed_array = self._validate_edges(removed)
        if added_array.shape[0] == 0 and removed_array.shape[0] == 0:
            return self
        n = np.int64(max(self._num_nodes, 1))
        add_keys = added_array[:, 0] * n + added_array[:, 1]
        rem_keys = removed_array[:, 0] * n + removed_array[:, 1]
        overlap = np.intersect1d(add_keys, rem_keys)
        if overlap.size:
            u, v = divmod(int(overlap[0]), int(n))
            raise GraphFormatError(
                f"edge ({u}, {v}) appears in both added and removed"
            )
        out_keys = (
            np.repeat(
                np.arange(self._num_nodes, dtype=np.int64), self.out_degrees()
            )
            * n
            + self._out_indices
        )
        # Reduce to the *actual* delta: adds not yet present, removals present.
        add_keys = add_keys[~self._keys_present(out_keys, add_keys)]
        rem_keys = rem_keys[self._keys_present(out_keys, rem_keys)]
        if add_keys.shape[0] == 0 and rem_keys.shape[0] == 0:
            return self
        in_keys = (
            np.repeat(
                np.arange(self._num_nodes, dtype=np.int64), self.in_degrees()
            )
            * n
            + self._in_indices
        )
        # The same delta in target-major encoding for the in-direction merge.
        add_keys_in = np.sort((add_keys % n) * n + add_keys // n)
        rem_keys_in = np.sort((rem_keys % n) * n + rem_keys // n)

        clone = object.__new__(type(self))
        clone._num_nodes = self._num_nodes
        clone._out_indptr, clone._out_indices = self._csr_from_flat_keys(
            self._merge_flat_keys(out_keys, add_keys, rem_keys), n
        )
        clone._in_indptr, clone._in_indices = self._csr_from_flat_keys(
            self._merge_flat_keys(in_keys, add_keys_in, rem_keys_in), n
        )
        clone._labels = self._labels
        clone._push_weight_cache = {}
        return clone

    @staticmethod
    def _keys_present(sorted_keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
        """Boolean membership of ``probes`` in the ascending ``sorted_keys``."""
        if probes.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        positions = np.searchsorted(sorted_keys, probes)
        in_range = positions < sorted_keys.shape[0]
        present = np.zeros(probes.shape[0], dtype=bool)
        present[in_range] = (
            sorted_keys[positions[in_range]] == probes[in_range]
        )
        return present

    @staticmethod
    def _merge_flat_keys(
        old_keys: np.ndarray, add_keys: np.ndarray, rem_keys: np.ndarray
    ) -> np.ndarray:
        """Apply a pre-filtered delta to one direction's sorted flat keys."""
        kept = old_keys
        if rem_keys.shape[0]:
            kept = np.delete(kept, np.searchsorted(kept, rem_keys))
        if add_keys.shape[0]:
            kept = np.insert(kept, np.searchsorted(kept, add_keys), add_keys)
        return kept

    def _csr_from_flat_keys(
        self, keys: np.ndarray, n: np.int64
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rebuild ``(indptr, indices)`` from sorted ``major * n + minor`` keys."""
        indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
        if keys.shape[0] == 0:
            return indptr, np.empty(0, dtype=np.int64)
        counts = np.bincount(keys // n, minlength=self._num_nodes)
        np.cumsum(counts, out=indptr[1:])
        return indptr, (keys % n).astype(np.int64, copy=False)

    # ------------------------------------------------------------------ #
    # Labels
    # ------------------------------------------------------------------ #
    @property
    def has_labels(self) -> bool:
        """Whether external labels were supplied at construction time."""
        return self._labels is not None

    def label_of(self, node: int) -> Hashable:
        """Return the external label of ``node`` (or the id when unlabeled)."""
        node = self._check_node(node)
        if self._labels is None:
            return node
        return self._labels[node]

    # ------------------------------------------------------------------ #
    # Derived structures
    # ------------------------------------------------------------------ #
    def statistics(self) -> GraphStatistics:
        """Compute summary statistics (Table 3 style)."""
        in_deg = self.in_degrees()
        out_deg = self.out_degrees()
        return GraphStatistics(
            num_nodes=self.num_nodes,
            num_edges=self.num_edges,
            is_symmetric=self.is_symmetric(),
            max_in_degree=int(in_deg.max(initial=0)),
            max_out_degree=int(out_deg.max(initial=0)),
            mean_degree=float(self.num_edges / self.num_nodes)
            if self.num_nodes
            else 0.0,
        )

    def is_symmetric(self) -> bool:
        """Return ``True`` when every edge has its reverse edge (undirected).

        Vectorised: both the edge list and its reverse are encoded as
        ``u·n + v`` keys and the reverse keys are membership-tested against
        the (already sorted) forward keys with one ``searchsorted`` — no
        per-edge ``has_edge`` round-trip.
        """
        num_edges = self.num_edges
        if num_edges == 0:
            return True
        n = np.int64(self._num_nodes)
        sources = np.repeat(
            np.arange(self._num_nodes, dtype=np.int64), self.out_degrees()
        )
        targets = self._out_indices
        # CSR order is (source asc, target asc within source), so the forward
        # keys are already sorted ascending.
        forward = sources * n + targets
        reverse = targets * n + sources
        positions = np.searchsorted(forward, reverse)
        if bool((positions == num_edges).any()):
            return False
        return bool(np.array_equal(forward[positions], reverse))

    def reverse(self) -> "DiGraph":
        """Return a new graph with every edge direction flipped."""
        return DiGraph(
            self.num_nodes,
            ((v, u) for u, v in self.edges()),
            labels=self._labels,
        )

    def transition_matrix(self):
        """Return the column-stochastic matrix ``P`` of Equation (5).

        ``P[i, j] = 1 / |I(v_j)|`` when ``v_i`` is an in-neighbour of ``v_j``,
        i.e. column ``j`` spreads unit mass uniformly over ``I(v_j)``.  The
        in-CSR is ``Pᵀ`` row by row, so ``P`` is its transpose, returned as a
        ``scipy.sparse.csr_matrix`` with sorted indices.  The power method
        and Algorithm 2's push operator ``√c · Pᵀ`` both read it.
        """
        from scipy import sparse

        in_degrees = self.in_degrees()
        edge_weights = 1.0 / np.repeat(in_degrees, in_degrees)
        transposed = sparse.csr_matrix(
            (edge_weights, self._in_indices, self._in_indptr),
            shape=(self.num_nodes, self.num_nodes),
        )
        return transposed.T.tocsr()

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the adjacency arrays."""
        return int(
            self._in_indptr.nbytes
            + self._in_indices.nbytes
            + self._out_indptr.nbytes
            + self._out_indices.nbytes
        )

    # ------------------------------------------------------------------ #
    # Alternate constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[tuple[Hashable, Hashable]],
        *,
        symmetrize: bool = False,
    ) -> "DiGraph":
        """Build a graph from an edge list over arbitrary hashable labels.

        Node ids are assigned in first-seen order.  With ``symmetrize=True``
        the reverse of every edge is added as well, which is how the paper
        treats the undirected datasets of Table 3.
        """
        label_to_id: dict[Hashable, int] = {}
        int_edges: list[tuple[int, int]] = []
        for u_label, v_label in edges:
            u = label_to_id.setdefault(u_label, len(label_to_id))
            v = label_to_id.setdefault(v_label, len(label_to_id))
            int_edges.append((u, v))
            if symmetrize:
                int_edges.append((v, u))
        labels = [None] * len(label_to_id)
        for label, idx in label_to_id.items():
            labels[idx] = label
        return cls(len(label_to_id), int_edges, labels=labels)

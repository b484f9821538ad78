"""√c-walk sampling (Section 4.1 of the paper).

A √c-walk from a node ``u`` is a reverse random walk that, at every step,
terminates with probability ``1 - √c`` and otherwise moves to a uniformly
random in-neighbour of the current node.  Lemma 3 shows that the SimRank score
``s(u, v)`` equals the probability that two independent √c-walks from ``u``
and ``v`` *meet*, i.e. occupy the same node at the same step index.

The walker here is used by the correction-factor estimators (Algorithms 1
and 4), which sample pairs of √c-walks from the in-neighbours of a node's
in-neighbours.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from ..exceptions import NodeNotFoundError, ParameterError
from ..graphs import DiGraph

__all__ = ["SqrtCWalker", "resolve_entropy", "node_stream"]


def resolve_entropy(seed: int | None) -> int:
    """The root entropy that every per-node stream derives from.

    An integer seed is its own entropy; ``None`` draws fresh entropy from the
    OS, which the caller keeps so that later estimates reuse it.
    """
    return int(np.random.SeedSequence(seed).entropy)


def node_stream(entropy: int, node: int) -> np.random.Generator:
    """Node ``node``'s own random stream: the seeding rule of every ``d̃_k``.

    The stream depends on ``(entropy, node)`` alone — it is the ``node``-th
    child of ``SeedSequence(entropy)`` — so a node's correction factor is the
    same whichever builder, worker, repair or re-freeze estimates it.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(int(node),))
    )


class SqrtCWalker:
    """Samples √c-walks on a :class:`~repro.graphs.DiGraph`.

    Parameters
    ----------
    graph:
        The input graph.
    c:
        SimRank decay factor, ``0 < c < 1`` (the paper uses ``c = 0.6``).
    seed:
        Seed for reproducible sampling (see :func:`resolve_entropy`); the
        walker's own stream and every :meth:`for_node` stream derive from it.
    max_length:
        Hard cap on walk length, purely a safety valve: a √c-walk terminates
        naturally with probability ``1 - √c`` per step, so the cap is
        essentially never reached with the default of ``16 / (1 - √c)``.
    """

    def __init__(
        self,
        graph: DiGraph,
        c: float = 0.6,
        *,
        seed: int | None = None,
        max_length: int | None = None,
    ) -> None:
        if not 0.0 < c < 1.0:
            raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
        self._graph = graph
        self._c = float(c)
        self._sqrt_c = math.sqrt(c)
        self._entropy = resolve_entropy(seed)
        self._rng = np.random.default_rng(self._entropy)
        if max_length is None:
            max_length = max(64, int(16.0 / (1.0 - self._sqrt_c)))
        if max_length < 1:
            raise ParameterError(f"max_length must be >= 1, got {max_length}")
        self._max_length = int(max_length)

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        """The graph the walker samples on."""
        return self._graph

    @property
    def c(self) -> float:
        """The SimRank decay factor."""
        return self._c

    @property
    def sqrt_c(self) -> float:
        """``√c`` — the per-step continuation probability."""
        return self._sqrt_c

    @property
    def rng(self) -> np.random.Generator:
        """The generator this walker draws from."""
        return self._rng

    def for_node(self, node: int) -> "SqrtCWalker":
        """A walker on the same graph that draws from ``node``'s own stream.

        The correction-factor estimator samples ``d̃_k`` through
        ``for_node(k)``, so the estimate depends only on the graph, the
        walker's seed and ``k`` (see :func:`node_stream`).
        """
        walker = copy.copy(self)
        walker._rng = node_stream(self._entropy, node)
        return walker

    # ------------------------------------------------------------------ #
    def walk_pair_meets(self, start_a: int, start_b: int) -> bool:
        """Sample two independent √c-walks and report whether they meet.

        The walks are generated lock-step so the common case (an early
        mismatch followed by a termination) avoids materialising full walks.
        """
        graph = self._graph
        rng = self._rng
        sqrt_c = self._sqrt_c
        node_a = int(start_a)
        node_b = int(start_b)
        graph.in_degree(node_a)
        graph.in_degree(node_b)
        for _ in range(self._max_length):
            if node_a == node_b:
                return True
            # Each walk independently decides whether to continue.
            continue_a = rng.random() < sqrt_c
            continue_b = rng.random() < sqrt_c
            if not (continue_a and continue_b):
                # Once either walk has stopped the two can no longer share a
                # step index, so they can never meet.
                return False
            in_a = graph.in_neighbors(node_a)
            in_b = graph.in_neighbors(node_b)
            if in_a.shape[0] == 0 or in_b.shape[0] == 0:
                return False
            node_a = int(in_a[int(rng.integers(0, in_a.shape[0]))])
            node_b = int(in_b[int(rng.integers(0, in_b.shape[0]))])
        return False

    def count_meeting_pairs(
        self, starts_a: np.ndarray, starts_b: np.ndarray
    ) -> int:
        """Sample one √c-walk pair per ``(starts_a[i], starts_b[i])`` and count meets.

        Vectorised equivalent of calling :meth:`walk_pair_meets` once per pair;
        all pairs advance in lock-step straight on the in-CSR.  A pair goes on
        only while *both* walks continue, so each step draws one survival coin
        with probability ``√c · √c = c`` per pair and one ``(2, k)`` block of
        uniforms that picks both walks' in-neighbours.  Used by the
        correction-factor estimators, whose sample budgets run into the
        thousands per node.

        Every start is validated once on entry: an id outside ``[0, n)``
        raises :class:`~repro.exceptions.NodeNotFoundError` whatever the coin
        flips would have been.
        """
        positions_a = np.asarray(starts_a, dtype=np.int64)
        positions_b = np.asarray(starts_b, dtype=np.int64)
        if positions_a.shape != positions_b.shape:
            raise ParameterError(
                "starts_a and starts_b must have the same shape, got "
                f"{positions_a.shape} and {positions_b.shape}"
            )
        num_nodes = self._graph.num_nodes
        for positions in (positions_a, positions_b):
            if positions.size:
                low, high = int(positions.min()), int(positions.max())
                if low < 0:
                    raise NodeNotFoundError(low)
                if high >= num_nodes:
                    raise NodeNotFoundError(high)
        indptr, indices = self._graph.in_csr()
        rng = self._rng
        c = self._c
        apart = positions_a != positions_b
        meets = int(positions_a.size - np.count_nonzero(apart))
        node_a = positions_a[apart]
        node_b = positions_b[apart]
        for _ in range(self._max_length):
            if node_a.size == 0:
                break
            # Both walks of a pair must survive their √c continuation flips.
            survive = rng.random(node_a.size) < c
            node_a = node_a[survive]
            node_b = node_b[survive]
            start_a = indptr[node_a]
            start_b = indptr[node_b]
            degree_a = indptr[node_a + 1] - start_a
            degree_b = indptr[node_b + 1] - start_b
            # A walk at a node without in-neighbours terminates.
            alive = (degree_a > 0) & (degree_b > 0)
            if not alive.all():
                start_a, start_b = start_a[alive], start_b[alive]
                degree_a, degree_b = degree_a[alive], degree_b[alive]
            if start_a.size == 0:
                break
            uniforms = rng.random((2, start_a.size))
            node_a = indices[start_a + (uniforms[0] * degree_a).astype(np.int64)]
            node_b = indices[start_b + (uniforms[1] * degree_b).astype(np.int64)]
            apart = node_a != node_b
            meets += int(node_a.size - np.count_nonzero(apart))
            node_a = node_a[apart]
            node_b = node_b[apart]
        return meets

"""√c-walk sampling (Section 4.1 of the paper).

A √c-walk from a node ``u`` is a reverse random walk that, at every step,
terminates with probability ``1 - √c`` and otherwise moves to a uniformly
random in-neighbour of the current node.  Lemma 3 shows that the SimRank score
``s(u, v)`` equals the probability that two independent √c-walks from ``u``
and ``v`` *meet*, i.e. occupy the same node at the same step index.

The walker here is used by

* the correction-factor estimators (Algorithms 1 and 4), which sample pairs of
  √c-walks from the in-neighbours of a node's in-neighbours, and
* the Monte-Carlo SimRank estimator ``estimate_simrank`` used as a sanity
  oracle in tests (the "MC + √c-walk" variant discussed at the end of
  Section 4.1).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..exceptions import NodeNotFoundError, ParameterError
from ..graphs import DiGraph

__all__ = ["SqrtCWalker", "walks_meet"]


def walks_meet(walk_a: Sequence[int], walk_b: Sequence[int]) -> bool:
    """Return ``True`` when the two walks occupy the same node at some step.

    Step ``ℓ`` of each walk is its ``ℓ``-th element; the walks meet when there
    is an ``ℓ`` present in *both* walks with identical nodes.
    """
    for node_a, node_b in zip(walk_a, walk_b):
        if node_a == node_b:
            return True
    return False


class SqrtCWalker:
    """Samples √c-walks on a :class:`~repro.graphs.DiGraph`.

    Parameters
    ----------
    graph:
        The input graph.
    c:
        SimRank decay factor, ``0 < c < 1`` (the paper uses ``c = 0.6``).
    seed:
        Seed (or :class:`numpy.random.Generator`) for reproducible sampling.
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
        seed: int | np.random.Generator | None = None,
        max_length: int | None = None,
    ) -> None:
        if not 0.0 < c < 1.0:
            raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
        self._graph = graph
        self._c = float(c)
        self._sqrt_c = math.sqrt(c)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            self._rng = np.random.default_rng(seed)
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
    def expected_length(self) -> float:
        """Expected number of steps after step 0, ``√c / (1 - √c)``."""
        return self._sqrt_c / (1.0 - self._sqrt_c)

    # ------------------------------------------------------------------ #
    def walk(self, start: int) -> list[int]:
        """Sample one √c-walk; element ``ℓ`` is the node at step ``ℓ``.

        The walk always contains at least the starting node (its 0-th step)
        and stops early at nodes with no in-neighbours.
        """
        graph = self._graph
        rng = self._rng
        sqrt_c = self._sqrt_c
        current = int(start)
        graph.in_degree(current)  # raises NodeNotFoundError for bad input
        steps = [current]
        while len(steps) < self._max_length:
            if rng.random() >= sqrt_c:
                break
            in_nb = graph.in_neighbors(current)
            if in_nb.shape[0] == 0:
                break
            current = int(in_nb[int(rng.integers(0, in_nb.shape[0]))])
            steps.append(current)
        return steps

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

    def meeting_step(self, start_a: int, start_b: int) -> int | None:
        """Like :meth:`walk_pair_meets` but return the meeting step (or None)."""
        walk_a = self.walk(start_a)
        walk_b = self.walk(start_b)
        for step, (node_a, node_b) in enumerate(zip(walk_a, walk_b)):
            if node_a == node_b:
                return step
        return None

    # ------------------------------------------------------------------ #
    def estimate_simrank(
        self, node_a: int, node_b: int, num_samples: int
    ) -> float:
        """Monte-Carlo estimate of ``s(node_a, node_b)`` via Lemma 3.

        This is the "Monte Carlo with √c-walks" estimator sketched at the end
        of Section 4.1.  It is not part of the SLING index itself but serves
        as an unbiased reference in tests and examples.
        """
        if num_samples <= 0:
            raise ParameterError(f"num_samples must be positive, got {num_samples}")
        if int(node_a) == int(node_b):
            return 1.0
        meets = sum(
            1 for _ in range(num_samples) if self.walk_pair_meets(node_a, node_b)
        )
        return meets / num_samples

    def hitting_probabilities(
        self, start: int, num_samples: int
    ) -> dict[tuple[int, int], float]:
        """Empirical hitting probabilities ``h^(ℓ)(start, ·)`` from samples.

        Returns a mapping ``(ℓ, node) -> frequency``.  Used by tests to
        validate the deterministic local-push construction of Algorithm 2.
        """
        if num_samples <= 0:
            raise ParameterError(f"num_samples must be positive, got {num_samples}")
        counts: dict[tuple[int, int], int] = {}
        for _ in range(num_samples):
            for step, node in enumerate(self.walk(start)):
                key = (step, node)
                counts[key] = counts.get(key, 0) + 1
        return {key: count / num_samples for key, count in counts.items()}

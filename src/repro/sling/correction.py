"""Correction factors ``d_k`` (Sections 4.3 and 5.1).

Lemma 4 rewrites SimRank as

    s(v_i, v_j) = Σ_ℓ Σ_k  h^(ℓ)(v_i, v_k) · d_k · h^(ℓ)(v_j, v_k),

where ``d_k`` is the probability that two independent √c-walks started at
``v_k`` never meet again after step 0.  Equation (14) expresses ``d_k``
through the pairwise SimRank of ``v_k``'s in-neighbours:

    d_k = 1 - c/|I(v_k)| - c·µ,   µ = 1/|I(v_k)|² · Σ_{v_i ≠ v_j ∈ I(v_k)} s(v_i, v_j)

Count the steps of the two walks from where they stand after leaving
``v_k``, at in-neighbours ``i`` and ``j``.  The ``c/|I(v_k)|`` term is their
meeting at step 0 (``i = j``); µ carries every later meeting.

**Step 1 exactly, the rest sampled.**  For distinct ``i, j`` the SimRank
recurrence unrolls one more level:

    s(i, j) = c·|I(i) ∩ I(j)| / (|I(i)|·|I(j)|)
              + c·E_{a∈I(i), b∈I(j)}[1(a ≠ b)·s(a, b)]

(``s(i, j) = 0`` when ``I(i)`` or ``I(j)`` is empty).  Averaging over the
pairs of ``I(k)`` splits µ into ``µ = µ₁ + c·E[Y]``:

* ``µ₁`` is the meeting at step 1 (``a = b``), computed exactly from the
  in-CSR.  With ``v_x = Σ_{i∈I(k), |I(i)|>0} 1[x ∈ I(i)] / |I(i)|`` over the
  grandparents ``x``, ``Σ_x v_x² = Σ_{i,j} |I(i)∩I(j)| / (|I(i)|·|I(j)|)``,
  whose diagonal ``i = j`` contributes ``Σ_i 1/|I(i)|``; hence
  ``µ₁ = c·(Σ_x v_x² − Σ_i 1/|I(i)|) / |I(k)|²``.
* ``Y`` is one trial: draw ``i`` and ``j`` uniformly from ``I(k)``, then
  ``a ∈ I(i)`` and ``b ∈ I(j)`` uniformly, and succeed when ``i ≠ j``,
  ``a ≠ b`` and two √c-walks from ``a`` and ``b`` meet.  A trial that cannot
  continue (``I(i)`` or ``I(j)`` empty) is a failure.  Every outcome is 0 or
  1, so ``Y`` is Bernoulli, and by Lemma 3 its mean is exactly the
  bracketed expectation above averaged over the pairs, i.e.
  ``E[Y] = (µ − µ₁)/c``.

**Why Theorem 1 still holds.**  ``d̃_k = 1 − c/|I(k)| − c·(µ₁ + c·Ŷ)``
(clamped to ``[0, 1]``), so ``|d̃_k − d_k| ≤ c²·|Ŷ − E[Y]|``.  Algorithms 1
and 4 run unchanged on ``Y`` with tolerance ``ε_d / c²`` and the same
``δ_d``; with probability at least ``1 − δ_d`` the error is therefore at
most ``c²·ε_d/c² = ε_d``, and clamping only moves ``d̃_k`` towards the true
``d_k ∈ [0, 1]``.  The union bound over the ``n`` nodes and Theorem 1 go
through word for word.  When ``ε_d / c² ≥ 1`` every value in ``[0, 1]``
already meets the tolerance, so no trial is drawn and ``Ŷ = 0``.

**Exact cases.**  No trial is drawn either when ``Y`` cannot succeed: when
fewer than two in-neighbours of ``v_k`` have in-neighbours of their own, or
when no grandparent has an in-neighbour (walks from two distinct
grandparents then stop where they are and never meet).  Then ``µ = µ₁``
exactly, and ``µ = 0`` when no in-neighbour of ``v_k`` has an in-neighbour
at all.

**Seeding.**  The trials for ``d̃_k`` draw from node ``k``'s own stream,
``default_rng(SeedSequence(seed, spawn_key=(k,)))``
(:func:`~repro.sling.walks.node_stream`).  Every d̃ pass — an in-memory
build with any worker count, the out-of-core build and a re-freeze — runs
through the one driver :func:`estimate_all_correction_factors`, and a
dynamic repair calls the per-node estimator for its heads; all of them
therefore compute the same ``d̃_k`` bitwise, for any worker count and any
subset of nodes.

This module provides

* :func:`estimate_correction_factor` — the per-node estimator above,
  either with the fixed budget of Algorithm 1 or the adaptive budget of
  Algorithm 4 (the default),
* :func:`estimate_all_correction_factors` — the driver of the d̃ pass
  (Algorithm 4 on every node), inline or over a process pool (Section 5.4),
  and
* :func:`exact_correction_factors` — an exact computation from a ground-truth
  SimRank matrix, used by tests and by the "exact D" mode of the
  linearization baseline.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph
from .hitting import concatenated_ranges
from .sampling import (
    BernoulliEstimate,
    estimate_bernoulli_mean_adaptive_batch,
    estimate_bernoulli_mean_fixed_batch,
)
from .walks import SqrtCWalker

__all__ = [
    "CorrectionEstimate",
    "estimate_correction_factor",
    "estimate_all_correction_factors",
    "exact_correction_factors",
]


class CorrectionEstimate:
    """Correction factor estimate for one node, with sampling metadata."""

    __slots__ = ("node", "value", "num_samples", "adaptive_phase_used")

    def __init__(
        self, node: int, value: float, num_samples: int, adaptive_phase_used: bool
    ) -> None:
        self.node = node
        self.value = value
        self.num_samples = num_samples
        self.adaptive_phase_used = adaptive_phase_used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorrectionEstimate(node={self.node}, value={self.value:.6f}, "
            f"num_samples={self.num_samples})"
        )


def _correction_from_mu(c: float, in_degree: int, mu: float) -> float:
    """Apply Equation (14): ``d_k = 1 - c/|I| - c·µ`` (clamped to [0, 1])."""
    value = 1.0 - c / in_degree - c * mu
    return min(1.0, max(0.0, value))


def estimate_correction_factor(
    walker: SqrtCWalker,
    node: int,
    epsilon_d: float,
    delta_d: float,
    *,
    adaptive: bool = True,
) -> CorrectionEstimate:
    """Estimate ``d_k`` for a single node with at most ``epsilon_d`` error.

    Parameters
    ----------
    walker:
        √c-walk sampler over the input graph; it fixes the decay ``c`` and
        the seed of the node's own stream (:meth:`SqrtCWalker.for_node`), so
        the estimate depends on ``(graph, seed, node)`` alone.
    node:
        The node ``v_k``.
    epsilon_d:
        Maximum additive error allowed in ``d̃_k``.
    delta_d:
        Failure probability of the estimate.
    adaptive:
        Use Algorithm 4 (adaptive sample budget, default) instead of the
        fixed-budget Algorithm 1.

    Notes
    -----
    The step-1 meeting term ``µ₁`` is computed exactly and only the later
    meetings ``Y`` are sampled (see the module docstring).  Structural
    short-circuits avoid sampling entirely:

    * ``|I(v_k)| = 0``: both √c-walks stop at step 0, so ``d_k = 1`` exactly;
    * ``|I(v_k)| = 1``: the walks can only meet by both advancing to the single
      in-neighbour (probability ``c``), so ``d_k = 1 - c`` exactly;
    * ``Y`` cannot succeed, or its tolerance ``ε_d / c²`` is at least 1:
      ``d_k`` follows from ``µ₁`` alone.

    ``num_samples`` counts the trials of ``Y``.
    """
    if not 0.0 < epsilon_d < 1.0:
        raise ParameterError(f"epsilon_d must be in (0, 1), got {epsilon_d}")
    if not 0.0 < delta_d < 1.0:
        raise ParameterError(f"delta_d must be in (0, 1), got {delta_d}")

    graph = walker.graph
    c = walker.c
    in_neighbors = graph.in_neighbors(node)
    in_degree = int(in_neighbors.shape[0])

    if in_degree == 0:
        return CorrectionEstimate(node, 1.0, 0, False)
    if in_degree == 1:
        return CorrectionEstimate(node, 1.0 - c, 0, False)

    indptr, indices = graph.in_csr()
    parent_starts = indptr[in_neighbors]
    parent_degrees = indptr[in_neighbors + 1] - parent_starts
    grandparents = indices[concatenated_ranges(parent_starts, parent_degrees)]

    # µ₁: v_x = Σ_i 1[x ∈ I(i)] / |I(i)| over the grandparents x.
    fed = parent_degrees > 0
    inverse_degrees = 1.0 / parent_degrees[fed]
    _, slots = np.unique(grandparents, return_inverse=True)
    mass = np.bincount(slots, weights=np.repeat(inverse_degrees, parent_degrees[fed]))
    pair_overlap = max(0.0, float(mass @ mass) - float(inverse_degrees.sum()))
    mu_first = c * pair_overlap / (in_degree * in_degree)

    y_epsilon = epsilon_d / (c * c)
    if (
        y_epsilon >= 1.0
        or np.count_nonzero(fed) < 2
        or not (indptr[grandparents + 1] > indptr[grandparents]).any()
    ):
        value = _correction_from_mu(c, in_degree, mu_first)
        return CorrectionEstimate(node, value, 0, False)

    # Every trial of node k draws from k's own stream, so d̃_k is the same
    # on every build path and in every repair.
    node_walker = walker.for_node(node)
    rng = node_walker.rng

    def sample_later_meets(count: int) -> int:
        """``count`` Bernoulli trials of ``Y``: distinct in-neighbours ``i, j``,
        one in-neighbour of each, and a √c-walk pair from there."""
        picks = rng.integers(0, in_degree, size=(2, count))
        picks = picks[:, (picks[0] != picks[1]) & fed[picks].all(axis=0)]
        uniforms = rng.random(picks.shape)
        offsets = (uniforms * parent_degrees[picks]).astype(np.int64)
        starts_a, starts_b = indices[parent_starts[picks] + offsets]
        apart = starts_a != starts_b
        return node_walker.count_meeting_pairs(starts_a[apart], starts_b[apart])

    estimate: BernoulliEstimate
    if adaptive:
        estimate = estimate_bernoulli_mean_adaptive_batch(
            sample_later_meets, y_epsilon, delta_d
        )
    else:
        estimate = estimate_bernoulli_mean_fixed_batch(
            sample_later_meets, y_epsilon, delta_d
        )

    value = _correction_from_mu(c, in_degree, mu_first + c * estimate.mean)
    return CorrectionEstimate(
        node, value, estimate.num_samples, estimate.adaptive_phase_used
    )


#: The walker of a pool process, installed once by :func:`_install_walker`
#: so the (possibly large) graph is not pickled with every chunk.
_POOL_WALKER: SqrtCWalker | None = None


def _install_walker(walker: SqrtCWalker) -> None:
    global _POOL_WALKER
    _POOL_WALKER = walker


def _estimate_chunk(
    nodes: np.ndarray, epsilon_d: float, delta_d: float
) -> np.ndarray:
    assert _POOL_WALKER is not None
    return _estimate_nodes(_POOL_WALKER, nodes, epsilon_d, delta_d)


def _estimate_nodes(
    walker: SqrtCWalker, nodes: np.ndarray, epsilon_d: float, delta_d: float
) -> np.ndarray:
    return np.array(
        [
            estimate_correction_factor(walker, int(node), epsilon_d, delta_d).value
            for node in nodes
        ],
        dtype=np.float64,
    )


def estimate_all_correction_factors(
    walker: SqrtCWalker,
    epsilon_d: float,
    delta_d: float,
    *,
    nodes: "np.ndarray | Sequence[int] | None" = None,
    workers: int = 1,
) -> np.ndarray:
    """Estimate ``d_k`` with Algorithm 4 for every node (or the given subset).

    Returns an ``(n,)`` float array indexed by node id; entries for nodes not
    in ``nodes`` (when a subset is given) are ``NaN``.  Each node draws from
    its own stream, so a subset's values equal the full run's bitwise.

    ``workers == 1`` estimates inline.  Otherwise the nodes are cut into
    contiguous chunks that a :class:`~concurrent.futures.ProcessPoolExecutor`
    of ``workers`` processes estimates (Section 5.4); the walker, and with it
    the graph, reaches each process once through the pool initializer.  The
    values are bitwise the inline run's for any worker count.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    values = np.full(walker.graph.num_nodes, np.nan, dtype=np.float64)
    node_ids = (
        np.arange(walker.graph.num_nodes)
        if nodes is None
        else np.asarray(nodes, dtype=np.int64).reshape(-1)
    )
    if workers == 1:
        values[node_ids] = _estimate_nodes(walker, node_ids, epsilon_d, delta_d)
        return values
    # A few chunks per process even out the uneven per-node cost.
    chunks = [chunk for chunk in np.array_split(node_ids, workers * 4) if chunk.size]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_install_walker, initargs=(walker,)
    ) as pool:
        estimates = pool.map(
            _estimate_chunk,
            chunks,
            [epsilon_d] * len(chunks),
            [delta_d] * len(chunks),
        )
        for chunk, chunk_values in zip(chunks, estimates):
            values[chunk] = chunk_values
    return values


def exact_correction_factors(
    graph: DiGraph, simrank_matrix: np.ndarray, c: float
) -> np.ndarray:
    """Compute every ``d_k`` exactly from a ground-truth SimRank matrix.

    Implements Equation (14) directly.  ``simrank_matrix`` must be the
    ``(n, n)`` matrix of exact (or near-exact) SimRank scores, typically from
    :class:`repro.baselines.power.PowerMethod`.
    """
    if not 0.0 < c < 1.0:
        raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
    n = graph.num_nodes
    if simrank_matrix.shape != (n, n):
        raise ParameterError(
            f"simrank_matrix must have shape ({n}, {n}), got {simrank_matrix.shape}"
        )
    values = np.ones(n, dtype=np.float64)
    for node in graph.nodes():
        in_neighbors = graph.in_neighbors(node)
        in_degree = int(in_neighbors.shape[0])
        if in_degree == 0:
            values[node] = 1.0
            continue
        block = simrank_matrix[np.ix_(in_neighbors, in_neighbors)]
        off_diagonal_sum = float(block.sum() - np.trace(block))
        mu = off_diagonal_sum / (in_degree * in_degree)
        values[node] = _correction_from_mu(c, in_degree, mu)
    return values

"""Shared top-k ranking over single-source SimRank score vectors.

One implementation of the ranking contract — highest score first, ties broken
on the smaller node id, the source itself excluded — used by both
:meth:`repro.sling.SlingIndex.top_k` and the engine backends, so the two can
never diverge.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank_top_k"]


def _best(
    nodes: np.ndarray, scores: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """The ``k`` best ``(node, score)`` pairs of ``nodes`` (increasing ids)
    and their ``scores``, ranked by score then id."""
    if nodes.size > k:
        # The k-th largest score is the cut; of the nodes tied at it, the
        # smallest ids go in.  This honours the tie-break contract at the
        # cut itself and makes top_k(·, k) a prefix of top_k(·, k + j).
        boundary = np.partition(scores, nodes.size - k)[nodes.size - k]
        above = np.flatnonzero(scores > boundary)
        tied = np.flatnonzero(scores == boundary)[: k - above.size]
        chosen = np.concatenate([above, tied])
        nodes, scores = nodes[chosen], scores[chosen]
    return sorted(
        zip(nodes.tolist(), scores.tolist()),
        key=lambda item: (-item[1], item[0]),
    )


def rank_top_k(scores: np.ndarray, source: int, k: int) -> list[tuple[int, float]]:
    """Rank a single-source score vector into a top-k list, excluding ``source``.

    Only the nonzeros are ranked: the positive scores first; if fewer than
    ``k`` nodes have one, the list is filled with the smallest-id
    zero-score nodes (a ``-0.0`` is a zero, reported as stored), then with
    the best negative scores.  ``scores`` must be finite and is not
    modified.  ``k`` is clamped to ``n - 1``.

    Caller audit (kept current when adding call sites): no caller copies.
    The SLING query core (``SlingQueries.top_k`` and ``top_k_bounded``)
    ranks vectors its kernels freshly allocated, and the engine ranks its
    cached vector (for every backend, views into index storage included).
    """
    k = min(k, scores.shape[0] - 1)
    if k <= 0:
        return []
    nonzero = np.flatnonzero(scores)
    nonzero = nonzero[nonzero != source]
    values = scores[nonzero]
    positive = values > 0
    ranked = _best(nonzero[positive], values[positive], k)
    short = k - len(ranked)
    if short:
        # The first ``short + nonzero.size + 1`` ids hold at least ``short``
        # zero-score nodes other than the source, when that many exist.
        window = scores[: short + nonzero.size + 1]
        zeros = np.flatnonzero(window == 0)
        zeros = zeros[zeros != source][:short]
        ranked += zip(zeros.tolist(), window[zeros].tolist())
        short = k - len(ranked)
    if short:
        ranked += _best(nonzero[~positive], values[~positive], short)
    return ranked

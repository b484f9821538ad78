"""Shared top-k ranking over single-source SimRank score vectors.

One implementation of the ranking contract — highest score first, ties broken
on the smaller node id, the source itself excluded — used by both
:meth:`repro.sling.SlingIndex.top_k` and the engine backends, so the two can
never diverge.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank_top_k"]


def rank_top_k(scores: np.ndarray, source: int, k: int) -> list[tuple[int, float]]:
    """Rank a single-source score vector into a top-k list, excluding ``source``.

    The caller must pass a vector it is willing to have mutated (the source
    entry is masked in place).  ``k`` is clamped to ``n - 1``.

    Caller audit (kept current when adding call sites): the SLING query
    core (``SlingQueries.top_k`` and ``top_k_bounded``, the bounded
    cascade) ranks vectors its single-source kernels freshly allocated, so
    it passes them straight in with no copy; only the generic
    ``SimilarityBackend.top_k`` copies first, because its ``single_source``
    protocol allows subclasses to return views into index storage.
    """
    scores[source] = -np.inf
    k = min(k, scores.shape[0] - 1)
    if k <= 0:
        return []
    top_indices = np.argpartition(-scores, k - 1)[:k]
    # argpartition selects an arbitrary subset of the entries tied at the
    # k-th score; re-select deterministically so boundary ties go to the
    # smallest node ids.  This honours the tie-break contract at the cut
    # itself and makes top_k(·, k) a prefix of top_k(·, k + j).
    boundary = scores[top_indices].min()
    above = np.flatnonzero(scores > boundary)
    tied = np.flatnonzero(scores == boundary)
    chosen = np.concatenate([above, tied[: k - above.size]])
    return sorted(
        ((int(i), float(scores[i])) for i in chosen),
        key=lambda item: (-item[1], item[0]),
    )

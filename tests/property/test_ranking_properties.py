"""``rank_top_k`` ranks only the nonzeros, and its lists are bitwise the
ones a full ranking of the dense vector gives.

The reference below is the dense ranking the function replaced: mask the
source to ``-inf`` in a copy, argpartition the whole vector, then pick the
boundary ties by the smallest ids.  Scores are drawn from a few values so
ties at the cut are common, with ``0.0`` and ``-0.0`` heavy enough that
many vectors have fewer nonzeros than ``k``, and negative scores to reach
the fill that comes after the zeros.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ranking import rank_top_k


def dense_rank_top_k(scores: np.ndarray, source: int, k: int) -> list[tuple[int, float]]:
    """The full-vector ranking, kept here as the reference."""
    scores = scores.copy()
    scores[source] = -np.inf
    k = min(k, scores.shape[0] - 1)
    if k <= 0:
        return []
    top_indices = np.argpartition(-scores, k - 1)[:k]
    boundary = scores[top_indices].min()
    above = np.flatnonzero(scores > boundary)
    tied = np.flatnonzero(scores == boundary)
    chosen = np.concatenate([above, tied[: k - above.size]])
    return sorted(
        ((int(i), float(scores[i])) for i in chosen),
        key=lambda item: (-item[1], item[0]),
    )


def _bits(ranked: list[tuple[int, float]]) -> list[tuple[int, int]]:
    """A ranked list with each score as its bit pattern (so ``-0.0`` and
    ``0.0`` differ)."""
    return [
        (node, int(np.float64(score).view(np.int64))) for node, score in ranked
    ]


SCORES = st.sampled_from([0.0, 0.0, 0.0, -0.0, 0.25, 0.25, 0.5, 1.0, 1e-300, -0.5])


@st.composite
def ranking_cases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    scores = np.array(draw(st.lists(SCORES, min_size=n, max_size=n)))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    if draw(st.booleans()):
        scores[source] = draw(st.sampled_from([1.0, -0.0, 0.25]))
    k = draw(st.integers(min_value=1, max_value=n + 2))
    return scores, source, k


@settings(max_examples=400, deadline=None)
@given(ranking_cases())
def test_nonzero_ranking_is_bitwise_the_dense_ranking(case):
    scores, source, k = case
    before = scores.copy()
    ranked = rank_top_k(scores, source, k)
    assert _bits(ranked) == _bits(dense_rank_top_k(scores, source, k))
    assert all(type(node) is int and type(score) is float for node, score in ranked)
    # The input is read, never written (no masking in place).
    assert np.array_equal(scores.view(np.int64), before.view(np.int64))


def test_read_only_vectors_rank():
    scores = np.array([0.0, 0.5, 0.0, 0.25, 0.0])
    scores.flags.writeable = False
    assert rank_top_k(scores, 1, 3) == [(3, 0.25), (0, 0.0), (2, 0.0)]


def test_zero_fill_keeps_negative_zero_and_skips_the_source():
    scores = np.array([-0.0, 0.0, 0.75, -0.0])
    ranked = rank_top_k(scores, 0, 3)
    assert _bits(ranked) == _bits([(2, 0.75), (1, 0.0), (3, -0.0)])

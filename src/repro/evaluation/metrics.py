"""Accuracy metrics used in the paper's evaluation (Figures 5-7).

* maximum and mean absolute error of an all-pairs score matrix against the
  ground truth,
* per-group average error, where the groups partition the ground-truth scores
  into S1 = [0.1, 1], S2 = [0.01, 0.1) and S3 = (0, 0.01) — Figure 6,
* top-k precision of the highest-scoring node pairs — Figure 7.

All metrics ignore the diagonal (identical node pairs), exactly as the paper
does for the top-k experiment, and because every method returns the trivial
value 1 there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "GroupedErrors",
    "max_error",
    "grouped_errors",
    "top_k_pairs",
    "top_k_precision",
    "SIMRANK_GROUPS",
]

#: The three score groups of Figure 6 (lower bound inclusive, upper exclusive,
#: except S1 which includes 1.0).
SIMRANK_GROUPS: dict[str, tuple[float, float]] = {
    "S1": (0.1, 1.0000001),
    "S2": (0.01, 0.1),
    "S3": (0.0, 0.01),
}


def _validate_matrices(estimated: np.ndarray, truth: np.ndarray) -> None:
    if estimated.shape != truth.shape or estimated.ndim != 2:
        raise ParameterError(
            f"matrices must have identical 2-D shapes, got {estimated.shape} "
            f"and {truth.shape}"
        )
    if estimated.shape[0] != estimated.shape[1]:
        raise ParameterError(f"matrices must be square, got {estimated.shape}")


def _off_diagonal_mask(n: int) -> np.ndarray:
    mask = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    return mask


def max_error(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Maximum absolute error over all non-identical node pairs (Figure 5)."""
    _validate_matrices(estimated, truth)
    mask = _off_diagonal_mask(truth.shape[0])
    if not mask.any():
        return 0.0
    return float(np.abs(estimated - truth)[mask].max())


@dataclass(frozen=True)
class GroupedErrors:
    """Average error per SimRank group (the three bars of Figure 6)."""

    s1: float
    s2: float
    s3: float
    s1_count: int
    s2_count: int
    s3_count: int

    def as_dict(self) -> dict[str, float]:
        """Group label to average error (NaN groups omitted)."""
        values = {"S1": self.s1, "S2": self.s2, "S3": self.s3}
        return {key: value for key, value in values.items() if not np.isnan(value)}


def grouped_errors(estimated: np.ndarray, truth: np.ndarray) -> GroupedErrors:
    """Average absolute error within each ground-truth score group (Figure 6)."""
    _validate_matrices(estimated, truth)
    mask = _off_diagonal_mask(truth.shape[0])
    errors = np.abs(estimated - truth)
    results: dict[str, tuple[float, int]] = {}
    for group, (low, high) in SIMRANK_GROUPS.items():
        selection = mask & (truth >= low) & (truth < high)
        count = int(selection.sum())
        average = float(errors[selection].mean()) if count else float("nan")
        results[group] = (average, count)
    return GroupedErrors(
        s1=results["S1"][0],
        s2=results["S2"][0],
        s3=results["S3"][0],
        s1_count=results["S1"][1],
        s2_count=results["S2"][1],
        s3_count=results["S3"][1],
    )


def top_k_pairs(scores: np.ndarray, k: int) -> set[tuple[int, int]]:
    """The ``k`` unordered node pairs with the highest scores.

    Pairs of identical nodes are excluded; the pair ``(u, v)`` is reported
    with ``u < v`` and the matrix is treated as symmetric by taking the
    maximum of the two orientations (SimRank itself is symmetric, but sampled
    estimates may not be exactly so).
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ParameterError(f"scores must be a square matrix, got {scores.shape}")
    n = scores.shape[0]
    symmetric = np.maximum(scores, scores.T)
    upper_i, upper_j = np.triu_indices(n, k=1)
    values = symmetric[upper_i, upper_j]
    k = min(k, values.shape[0])
    if k == 0:
        return set()
    order = np.argpartition(-values, k - 1)[:k]
    return {(int(upper_i[idx]), int(upper_j[idx])) for idx in order}


def top_k_precision(estimated: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Fraction of the estimated top-k pairs that are true top-k pairs (Fig. 7)."""
    _validate_matrices(estimated, truth)
    estimated_top = top_k_pairs(estimated, k)
    truth_top = top_k_pairs(truth, k)
    if not estimated_top:
        return 1.0 if not truth_top else 0.0
    return len(estimated_top & truth_top) / len(estimated_top)

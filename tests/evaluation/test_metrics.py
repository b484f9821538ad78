"""Unit tests for the accuracy metrics of Figures 5-7."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import (
    grouped_errors,
    max_error,
    top_k_pairs,
    top_k_precision,
)
from repro.evaluation.metrics import SIMRANK_GROUPS
from repro.exceptions import ParameterError


@pytest.fixture()
def truth():
    matrix = np.array(
        [
            [1.0, 0.50, 0.05, 0.001],
            [0.50, 1.0, 0.02, 0.002],
            [0.05, 0.02, 1.0, 0.200],
            [0.001, 0.002, 0.200, 1.0],
        ]
    )
    return matrix


class TestBasicErrors:
    def test_max_error_ignores_diagonal(self, truth):
        estimated = truth.copy()
        estimated[0, 0] = 0.0  # diagonal error must be ignored
        estimated[0, 1] += 0.03
        assert max_error(estimated, truth) == pytest.approx(0.03)

    def test_zero_error_for_identical_matrices(self, truth):
        assert max_error(truth, truth) == 0.0

    def test_shape_mismatch_rejected(self, truth):
        with pytest.raises(ParameterError):
            max_error(truth[:3, :3], truth)
        with pytest.raises(ParameterError):
            max_error(np.ones((2, 3)), np.ones((2, 3)))

    def test_single_node_matrix(self):
        assert max_error(np.ones((1, 1)), np.ones((1, 1))) == 0.0


class TestGroupedErrors:
    def test_groups_partition_the_unit_interval(self):
        lows = sorted(low for low, _ in SIMRANK_GROUPS.values())
        assert lows[0] == 0.0

    def test_errors_assigned_to_correct_groups(self, truth):
        estimated = truth.copy()
        estimated[0, 1] += 0.010  # truth 0.5 -> group S1
        estimated[0, 2] += 0.004  # truth 0.05 -> group S2
        estimated[0, 3] += 0.002  # truth 0.001 -> group S3
        groups = grouped_errors(estimated, truth)
        assert groups.s1 == pytest.approx(0.010 / groups.s1_count)
        assert groups.s2 == pytest.approx(0.004 / groups.s2_count)
        assert groups.s3 == pytest.approx(0.002 / groups.s3_count)

    def test_counts_cover_all_off_diagonal_pairs(self, truth):
        groups = grouped_errors(truth, truth)
        assert groups.s1_count + groups.s2_count + groups.s3_count == 12

    def test_empty_group_is_nan(self):
        truth = np.array([[1.0, 0.5], [0.5, 1.0]])
        groups = grouped_errors(truth, truth)
        assert np.isnan(groups.s3)
        assert "S3" not in groups.as_dict()
        assert groups.as_dict()["S1"] == 0.0


class TestTopK:
    def test_top_k_pairs_returns_upper_triangle_pairs(self, truth):
        pairs = top_k_pairs(truth, 2)
        assert pairs == {(0, 1), (2, 3)}

    def test_top_k_pairs_excludes_diagonal(self, truth):
        pairs = top_k_pairs(truth, 6)
        assert all(u != v for u, v in pairs)

    def test_top_k_handles_k_larger_than_pair_count(self, truth):
        pairs = top_k_pairs(truth, 1000)
        assert len(pairs) == 6

    def test_top_k_invalid_k(self, truth):
        with pytest.raises(ParameterError):
            top_k_pairs(truth, 0)

    def test_perfect_precision_for_identical_matrices(self, truth):
        assert top_k_precision(truth, truth, 3) == 1.0

    def test_precision_detects_mistakes(self, truth):
        estimated = truth.copy()
        # Swap the importance of (0,1) and (0,3).
        estimated[0, 1], estimated[1, 0] = 0.001, 0.001
        estimated[0, 3], estimated[3, 0] = 0.50, 0.50
        assert top_k_precision(estimated, truth, 1) == 0.0
        assert top_k_precision(estimated, truth, 2) == 0.5

    def test_precision_uses_symmetrized_scores(self, truth):
        # Estimates may be slightly asymmetric; the larger orientation counts.
        estimated = truth.copy()
        estimated[1, 0] = 0.0
        assert top_k_precision(estimated, truth, 2) == 1.0

    def test_nearly_tied_scores_still_give_valid_fraction(self):
        rng = np.random.default_rng(0)
        truth = rng.random((10, 10))
        truth = (truth + truth.T) / 2
        np.fill_diagonal(truth, 1.0)
        estimated = truth + rng.normal(scale=1e-6, size=truth.shape)
        precision = top_k_precision(estimated, truth, 10)
        assert 0.0 <= precision <= 1.0

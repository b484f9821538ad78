"""Unit tests for hitting probabilities: Algorithm 2, Algorithm 5, push records."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import NodeNotFoundError, ParameterError
from repro.graphs import DiGraph, datasets, generators
from repro.sling import (
    HittingRecords,
    build_hitting_sets,
    exact_near_hops,
    neighborhood_weight,
    SlingParameters,
    push_frontier,
    reverse_push,
)
from repro.sling.hitting import (
    BLOCK_WIDTH,
    expected_set_size_bound,
    push_operator,
    theoretical_error_bound,
)

SQRT_C = math.sqrt(0.6)


def exact_hitting_probabilities(graph: DiGraph, sqrt_c: float, max_level: int) -> list[np.ndarray]:
    """Exact h^(l)(i, k) as matrices: entry [i, k] at index l (test oracle)."""
    n = graph.num_nodes
    scaled = sqrt_c * graph.transition_matrix().toarray()  # R = sqrt(c) P
    levels = [np.eye(n)]
    for _ in range(max_level):
        # h^(l+1)(i, k) = sum_x in I(i) sqrt(c)/|I(i)| h^(l)(x, k)
        # In matrix form: H_{l+1}[i, k] = sum_x R[x, i] H_l[x, k] = (R^T H_l)[i, k]
        levels.append(scaled.T @ levels[-1])
    return levels


class TestReversePush:
    def test_level_zero_is_target_itself(self):
        graph = generators.cycle(5)
        result = reverse_push(graph, 2, SQRT_C, theta=0.001)
        assert result[0] == {2: 1.0}

    def test_invalid_parameters(self):
        graph = generators.cycle(5)
        with pytest.raises(ParameterError):
            reverse_push(graph, 0, SQRT_C, theta=0.0)
        with pytest.raises(ParameterError):
            reverse_push(graph, 0, 1.5, theta=0.01)

    def test_all_entries_exceed_theta(self):
        graph = generators.preferential_attachment(40, 3, seed=1)
        theta = 0.01
        result = reverse_push(graph, 0, SQRT_C, theta)
        for entries in result.values():
            assert all(value > theta for value in entries.values())

    def test_values_underestimate_exact_probabilities(self):
        graph = generators.two_level_community(2, 8, seed=2)
        theta = 0.005
        max_level = 12
        exact = exact_hitting_probabilities(graph, SQRT_C, max_level)
        for target in [0, 5, 11]:
            result = reverse_push(graph, target, SQRT_C, theta, max_levels=max_level)
            for level, entries in result.items():
                for source, value in entries.items():
                    true_value = exact[level][source, target]
                    assert value <= true_value + 1e-12
                    assert true_value - value <= theoretical_error_bound(
                        SQRT_C, theta, level
                    ) + 1e-12

    def test_error_bounded_by_lemma7_for_missing_entries(self):
        graph = generators.two_level_community(2, 8, seed=2)
        theta = 0.02
        max_level = 10
        exact = exact_hitting_probabilities(graph, SQRT_C, max_level)
        target = 3
        result = reverse_push(graph, target, SQRT_C, theta, max_levels=max_level)
        for level in range(max_level):
            bound = theoretical_error_bound(SQRT_C, theta, level)
            for source in graph.nodes():
                approx = result.get(level, {}).get(source, 0.0)
                assert exact[level][source, target] - approx <= bound + 1e-12

    def test_level_mass_bounded_by_sqrt_c_power(self):
        graph = generators.preferential_attachment(50, 3, seed=3)
        result = reverse_push(graph, 0, SQRT_C, theta=0.001)
        for level, entries in result.items():
            assert sum(entries.values()) <= SQRT_C**level + 1e-9

    def test_max_levels_caps_depth(self):
        graph = generators.complete(6)
        result = reverse_push(graph, 0, SQRT_C, theta=1e-6, max_levels=3)
        assert max(result) <= 2

    def test_terminates_on_zero_out_degree_target(self):
        graph = generators.path(4)  # node 3 has no out-neighbours
        result = reverse_push(graph, 3, SQRT_C, theta=0.001)
        assert result == {0: {3: 1.0}}

    def test_push_frontier_conserves_scaled_mass(self):
        graph = generators.complete(5)
        nodes = np.array([0, 1], dtype=np.int64)
        values = np.array([0.5, 0.25])
        next_nodes, next_values = push_frontier(graph, nodes, values, SQRT_C)
        # Every out-edge lands on a node with in-degree 4; each source has 4
        # out-edges, so the total pushed mass is sqrt(c) * sum(values).
        assert next_values.sum() == pytest.approx(SQRT_C * values.sum())
        assert set(next_nodes.tolist()) <= set(range(5))

    def test_push_frontier_empty_result_for_sink(self):
        graph = generators.path(3)
        next_nodes, next_values = push_frontier(
            graph, np.array([2], dtype=np.int64), np.array([1.0]), SQRT_C
        )
        assert next_nodes.size == 0
        assert next_values.size == 0


class TestBuildHittingSets:
    def test_every_node_has_level_zero_self_entry(self):
        graph = generators.preferential_attachment(30, 2, seed=4)
        records = build_hitting_sets(graph, SQRT_C, theta=0.01)
        level_zero = records.take(records.levels == 0)
        assert sorted(level_zero.sources.tolist()) == list(range(30))
        assert np.array_equal(level_zero.sources, level_zero.targets)
        assert np.all(level_zero.values == 1.0)

    def test_records_are_the_reverse_pushes(self):
        graph = generators.two_level_community(2, 6, seed=1)
        theta = 0.01
        records = build_hitting_sets(graph, SQRT_C, theta)
        assert records.num_nodes == graph.num_nodes
        emitted = {
            (int(source), int(level), int(target)): float(value)
            for source, level, target, value in zip(*records[1:])
        }
        assert len(emitted) == records.num_records  # no duplicate positions
        expected = {
            (source, level, target): value
            for target in graph.nodes()
            for level, entries in reverse_push(graph, target, SQRT_C, theta).items()
            for source, value in entries.items()
        }
        assert emitted == expected

    def test_restricting_targets_limits_entries(self):
        graph = generators.cycle(6)
        records = build_hitting_sets(graph, SQRT_C, theta=0.01, targets=[0])
        assert set(records.targets.tolist()) == {0}
        assert records.num_records == sum(
            len(entries) for entries in reverse_push(graph, 0, SQRT_C, 0.01).values()
        )

    def test_unknown_target_rejected(self):
        with pytest.raises(NodeNotFoundError):
            build_hitting_sets(generators.cycle(4), SQRT_C, 0.01, targets=[1, 4])

    def test_no_targets_gives_no_records(self):
        records = build_hitting_sets(generators.cycle(4), SQRT_C, 0.01, targets=[])
        assert records.num_records == 0
        assert records.num_nodes == 4

    def test_set_sizes_respect_observation1_bound(self):
        graph = generators.preferential_attachment(60, 3, seed=5)
        theta = 0.01
        records = build_hitting_sets(graph, SQRT_C, theta)
        bound = expected_set_size_bound(SQRT_C, theta)
        assert np.bincount(records.sources).max() <= bound + 1

    def test_concatenate_and_take(self):
        graph = generators.cycle(5)
        whole = build_hitting_sets(graph, SQRT_C, 0.01)
        parts = [
            build_hitting_sets(graph, SQRT_C, 0.01, targets=chunk)
            for chunk in (range(0, 2), range(2, 5))
        ]
        joined = HittingRecords.concatenate(parts)
        for column in range(1, 5):
            assert np.array_equal(joined[column], whole[column])
        head = whole.take(slice(0, 3))
        assert head.num_records == 3
        assert np.array_equal(head.values, whole.values[:3])


class TestColumnIndependence:
    """A target's records do not depend on the targets pushed beside it.

    Every bitwise-parity claim of the build paths rests on this: a dynamic
    repair's dirty store equals a rebuild's, the parallel and out-of-core
    builds equal the sequential one, and the records are the transposed
    ``reverse_push``.  It holds because SciPy's CSR product sums row ``y`` of
    the push operator in its stored (sorted) column order, whatever other
    columns the frontier holds.
    """

    @pytest.fixture(scope="class")
    def setup(self):
        graph = datasets.load_dataset("HepTh", seed=0)
        params = SlingParameters.from_accuracy_target(
            num_nodes=graph.num_nodes, epsilon=0.025
        )
        whole = build_hitting_sets(graph, params.sqrt_c, params.theta)
        rng = np.random.default_rng(0)
        picked = rng.choice(graph.num_nodes, size=120, replace=False)
        return graph, params, whole, picked

    @staticmethod
    def _columns(records, target):
        mine = records.take(records.targets == target)
        return mine.sources, mine.levels, mine.targets, mine.values

    def test_operator_rows_are_sorted(self, setup):
        graph, params, _, _ = setup
        operator = push_operator(graph, params.sqrt_c)
        assert operator.has_sorted_indices
        starts, stops = operator.indptr[:-1], operator.indptr[1:]
        assert all(
            np.all(np.diff(operator.indices[a:b]) > 0) for a, b in zip(starts, stops)
        )

    def test_graph_spans_several_blocks(self, setup):
        graph, _, whole, _ = setup
        assert graph.num_nodes > BLOCK_WIDTH
        assert whole.num_records > 100_000

    def test_each_target_alone_equals_its_columns_of_the_full_build(self, setup):
        graph, params, whole, picked = setup
        for target in picked.tolist():
            alone = build_hitting_sets(
                graph, params.sqrt_c, params.theta, targets=[target]
            )
            expected = self._columns(whole, target)
            assert alone.num_records == expected[0].shape[0] > 0
            for got, want in zip(alone[1:], expected):
                assert np.array_equal(got, want)

    def test_shuffled_block_equals_the_full_build(self, setup):
        graph, params, whole, picked = setup
        block = build_hitting_sets(
            graph, params.sqrt_c, params.theta, targets=picked[::-1]
        )
        for target in picked.tolist():
            for got, want in zip(
                self._columns(block, target), self._columns(whole, target)
            ):
                assert np.array_equal(got, want)

    def test_reverse_push_is_the_one_column_product(self, setup):
        graph, params, whole, picked = setup
        for target in picked[:40].tolist():
            sources, levels, _, values = self._columns(whole, target)
            expected: dict[int, dict[int, float]] = {}
            for source, level, value in zip(
                sources.tolist(), levels.tolist(), values.tolist()
            ):
                expected.setdefault(level, {})[source] = value
            assert reverse_push(graph, target, params.sqrt_c, params.theta) == expected


class TestExactNearHops:
    def test_step_one_values(self):
        graph = DiGraph(4, [(1, 0), (2, 0), (3, 1)])
        result = exact_near_hops(graph, 0, SQRT_C)
        assert result[0] == {0: 1.0}
        assert result[1][1] == pytest.approx(SQRT_C / 2)
        assert result[1][2] == pytest.approx(SQRT_C / 2)

    def test_step_two_values(self):
        graph = DiGraph(4, [(1, 0), (2, 0), (3, 1)])
        result = exact_near_hops(graph, 0, SQRT_C)
        # Walk 0 -> 1 -> 3 has probability sqrt(c)/2 * sqrt(c)/1.
        assert result[2][3] == pytest.approx(SQRT_C * SQRT_C / 2)

    def test_zero_in_degree_node_only_has_level_zero(self):
        graph = generators.path(3)
        result = exact_near_hops(graph, 0, SQRT_C)
        assert set(result) == {0}

    def test_matches_exact_matrix_computation(self):
        graph = generators.two_level_community(2, 7, seed=3)
        exact = exact_hitting_probabilities(graph, SQRT_C, 2)
        for node in [0, 4, 13]:
            result = exact_near_hops(graph, node, SQRT_C)
            for level in (1, 2):
                for other in graph.nodes():
                    expected = exact[level][node, other]
                    assert result.get(level, {}).get(other, 0.0) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_invalid_sqrt_c(self):
        graph = generators.cycle(4)
        with pytest.raises(ParameterError):
            exact_near_hops(graph, 0, 1.2)


class TestNeighborhoodWeight:
    def test_matches_definition(self):
        graph = DiGraph(5, [(1, 0), (2, 0), (3, 1), (4, 1), (0, 2)])
        # eta(0) = |I(0)| + |I(1)| + |I(2)| = 2 + 2 + 1
        assert neighborhood_weight(graph, 0) == 5

    def test_zero_for_source_nodes(self):
        graph = generators.path(4)
        assert neighborhood_weight(graph, 0) == 0

    def test_bound_helpers(self):
        assert expected_set_size_bound(SQRT_C, 0.01) == pytest.approx(
            1.0 / ((1 - SQRT_C) * 0.01)
        )
        with pytest.raises(ParameterError):
            expected_set_size_bound(SQRT_C, 0.0)
        assert theoretical_error_bound(SQRT_C, 0.01, 0) == 0.0
        assert theoretical_error_bound(SQRT_C, 0.01, 5) > 0.0


class TestConcatenatedRanges:
    def test_matches_two_repeat_reference(self):
        from repro.sling import concatenated_ranges

        rng = np.random.default_rng(0)
        starts = rng.integers(0, 1000, size=50).astype(np.int64)
        counts = rng.integers(0, 7, size=50).astype(np.int64)
        total = int(counts.sum())
        reference = np.repeat(starts, counts) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(counts) - counts, counts)
        )
        assert np.array_equal(concatenated_ranges(starts, counts), reference)

    def test_explicit_total(self):
        from repro.sling import concatenated_ranges

        starts = np.array([5, 0], dtype=np.int64)
        counts = np.array([2, 3], dtype=np.int64)
        assert concatenated_ranges(starts, counts, 5).tolist() == [5, 6, 0, 1, 2]

    def test_empty(self):
        from repro.sling import concatenated_ranges

        result = concatenated_ranges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert result.size == 0
        assert result.dtype == np.int64

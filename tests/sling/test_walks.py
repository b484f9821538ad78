"""Unit tests for √c-walk sampling (Lemma 3 machinery)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import NodeNotFoundError, ParameterError
from repro.graphs import generators
from repro.sling import SqrtCWalker, walks_meet


class TestWalksMeet:
    def test_meeting_at_step_zero(self):
        assert walks_meet([1, 2], [1, 5])

    def test_meeting_at_later_step(self):
        assert walks_meet([1, 2, 3], [4, 5, 3])

    def test_no_meeting(self):
        assert not walks_meet([1, 2, 3], [4, 5, 6])

    def test_different_lengths_only_compare_shared_steps(self):
        assert not walks_meet([1, 2, 3, 7], [4, 5])
        assert walks_meet([1, 2], [4, 2, 9])

    def test_empty_walks_never_meet(self):
        assert not walks_meet([], [1, 2])


class TestWalkerConstruction:
    def test_invalid_decay_rejected(self):
        graph = generators.cycle(4)
        with pytest.raises(ParameterError):
            SqrtCWalker(graph, c=0.0)
        with pytest.raises(ParameterError):
            SqrtCWalker(graph, c=1.0)

    def test_invalid_max_length_rejected(self):
        graph = generators.cycle(4)
        with pytest.raises(ParameterError):
            SqrtCWalker(graph, max_length=0)

    def test_properties(self):
        graph = generators.cycle(4)
        walker = SqrtCWalker(graph, c=0.64, seed=0)
        assert walker.c == pytest.approx(0.64)
        assert walker.sqrt_c == pytest.approx(0.8)
        assert walker.graph is graph
        assert walker.expected_length == pytest.approx(0.8 / 0.2)


class TestWalkSampling:
    def test_walk_starts_at_start_node(self):
        graph = generators.cycle(5)
        walker = SqrtCWalker(graph, seed=1)
        for start in graph.nodes():
            assert walker.walk(start)[0] == start

    def test_walk_follows_in_edges(self):
        graph = generators.cycle(5)
        walker = SqrtCWalker(graph, seed=2)
        for _ in range(50):
            walk = walker.walk(0)
            for step, node in enumerate(walk[1:], start=1):
                previous = walk[step - 1]
                assert graph.has_edge(node, previous)

    def test_walk_stops_at_zero_indegree_node(self):
        graph = generators.path(4)  # 0 -> 1 -> 2 -> 3; node 0 has no in-edges
        walker = SqrtCWalker(graph, seed=3)
        for _ in range(50):
            walk = walker.walk(0)
            assert walk == [0]

    def test_walk_length_distribution_matches_geometric(self):
        # On a cycle every node has an in-neighbour, so length after step 0 is
        # geometric with success probability 1 - sqrt(c).
        graph = generators.cycle(8)
        walker = SqrtCWalker(graph, c=0.6, seed=4)
        lengths = [len(walker.walk(0)) - 1 for _ in range(4000)]
        expected = math.sqrt(0.6) / (1.0 - math.sqrt(0.6))
        assert np.mean(lengths) == pytest.approx(expected, rel=0.1)

    def test_unknown_start_raises(self):
        graph = generators.cycle(3)
        walker = SqrtCWalker(graph, seed=0)
        with pytest.raises(NodeNotFoundError):
            walker.walk(10)

    def test_seeded_walks_are_reproducible(self):
        graph = generators.preferential_attachment(30, 2, seed=1)
        first = SqrtCWalker(graph, seed=42)
        second = SqrtCWalker(graph, seed=42)
        assert [first.walk(5) for _ in range(10)] == [second.walk(5) for _ in range(10)]


class TestPairMeeting:
    def test_identical_starts_always_meet(self):
        graph = generators.cycle(5)
        walker = SqrtCWalker(graph, seed=0)
        assert all(walker.walk_pair_meets(2, 2) for _ in range(20))

    def test_pair_on_cycle_rarely_meets(self):
        # On a directed cycle distinct nodes keep a constant offset, so their
        # walks can never meet: SimRank is exactly 0.
        graph = generators.cycle(6)
        walker = SqrtCWalker(graph, seed=1)
        assert not any(walker.walk_pair_meets(0, 3) for _ in range(200))

    def test_meeting_step_none_when_no_meeting(self):
        graph = generators.cycle(6)
        walker = SqrtCWalker(graph, seed=2)
        assert walker.meeting_step(0, 3) is None

    def test_meeting_step_zero_for_identical(self):
        graph = generators.cycle(6)
        walker = SqrtCWalker(graph, seed=2)
        assert walker.meeting_step(4, 4) == 0

    def test_count_meeting_pairs_matches_scalar_semantics(self):
        graph = generators.star(6, inward=False)
        walker = SqrtCWalker(graph, c=0.6, seed=3)
        starts_a = np.full(3000, 1)
        starts_b = np.full(3000, 2)
        # Leaves of an outward star have SimRank exactly c = 0.6.
        frequency = walker.count_meeting_pairs(starts_a, starts_b) / 3000
        assert frequency == pytest.approx(0.6, abs=0.04)

    def test_count_meeting_pairs_shape_mismatch(self):
        graph = generators.cycle(4)
        walker = SqrtCWalker(graph, seed=0)
        with pytest.raises(ParameterError):
            walker.count_meeting_pairs(np.array([0, 1]), np.array([2]))

    def test_count_meeting_pairs_identical_nodes(self):
        graph = generators.cycle(4)
        walker = SqrtCWalker(graph, seed=0)
        assert walker.count_meeting_pairs(np.array([1, 2]), np.array([1, 2])) == 2

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        ("starts_a", "starts_b"),
        [([0, 4], [1, 2]), ([1, 2], [3, -1]), ([4], [4]), ([-1], [-1])],
        ids=["too-large", "negative", "too-large-equal", "negative-equal"],
    )
    def test_count_meeting_pairs_rejects_bad_starts_under_any_seed(
        self, seed, starts_a, starts_b
    ):
        # Starts are validated on entry, not when a pair first steps.
        walker = SqrtCWalker(generators.cycle(4), seed=seed)
        with pytest.raises(NodeNotFoundError):
            walker.count_meeting_pairs(np.array(starts_a), np.array(starts_b))


class TestSimRankEstimation:
    def test_estimate_simrank_on_outward_star(self, decay):
        graph = generators.star(5, inward=False)
        walker = SqrtCWalker(graph, c=decay, seed=5)
        estimate = walker.estimate_simrank(1, 2, 4000)
        assert estimate == pytest.approx(decay, abs=0.04)

    def test_estimate_simrank_identical_nodes(self):
        graph = generators.cycle(4)
        walker = SqrtCWalker(graph, seed=0)
        assert walker.estimate_simrank(2, 2, 10) == 1.0

    def test_estimate_simrank_zero_on_cycle(self):
        graph = generators.cycle(5)
        walker = SqrtCWalker(graph, seed=0)
        assert walker.estimate_simrank(0, 2, 500) == 0.0

    def test_estimate_simrank_invalid_samples(self):
        graph = generators.cycle(4)
        walker = SqrtCWalker(graph, seed=0)
        with pytest.raises(ParameterError):
            walker.estimate_simrank(0, 1, 0)

    def test_hitting_probabilities_level_zero_is_one(self):
        graph = generators.preferential_attachment(20, 2, seed=1)
        walker = SqrtCWalker(graph, seed=6)
        frequencies = walker.hitting_probabilities(3, 500)
        assert frequencies[(0, 3)] == pytest.approx(1.0)

    def test_hitting_probabilities_level_mass_bounded(self):
        graph = generators.preferential_attachment(20, 2, seed=1)
        walker = SqrtCWalker(graph, c=0.6, seed=7)
        frequencies = walker.hitting_probabilities(3, 3000)
        level_one_mass = sum(
            value for (level, _), value in frequencies.items() if level == 1
        )
        assert level_one_mass <= math.sqrt(0.6) + 0.03

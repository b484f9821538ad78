"""Unit tests for √c-walk sampling (Lemma 3 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NodeNotFoundError, ParameterError
from repro.graphs import DiGraph, generators
from repro.sling import SqrtCWalker
from repro.sling.walks import node_stream, resolve_entropy


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


class TestWalkSampling:
    def test_walk_starts_at_start_node(self):
        # Step 0 of a walk is its start, so a pair started at one node meets
        # before any coin is flipped, even where the walk cannot move on.
        graph = generators.path(4)  # node 0 has no in-neighbours
        walker = SqrtCWalker(graph, seed=1)
        for start in graph.nodes():
            assert walker.walk_pair_meets(start, start)
        starts = np.array(list(graph.nodes()) * 5)
        assert walker.count_meeting_pairs(starts, starts) == starts.size

    def test_walk_follows_in_edges(self):
        # Leaves of an inward star share an out-neighbour but no in-neighbour:
        # walks along out-edges would meet at the centre, √c-walks never do.
        graph = generators.star(5, inward=True)
        walker = SqrtCWalker(graph, seed=2)
        assert not any(walker.walk_pair_meets(1, 2) for _ in range(200))
        assert walker.count_meeting_pairs(np.full(500, 1), np.full(500, 2)) == 0

    def test_walk_stops_at_zero_indegree_node(self):
        # 0 -> 1: the walk from 1 steps to 0 while the walk from 0, which has
        # no in-neighbours, must stop rather than stay put and be met there.
        graph = generators.path(2)
        walker = SqrtCWalker(graph, seed=3)
        assert not any(walker.walk_pair_meets(0, 1) for _ in range(200))
        assert walker.count_meeting_pairs(np.full(500, 0), np.full(500, 1)) == 0

    def test_walk_length_distribution_matches_geometric(self):
        # Two in-chains of equal length from one root: the only meeting is at
        # the root after ``length`` steps, so its frequency is the chance that
        # both walks continue that long, (√c · √c)^length = c^length.
        samples = 20000
        for length in (1, 2, 3):
            edges = [(0, 1), (0, length + 1)]
            for step in range(1, length):
                edges += [(step, step + 1), (length + step, length + step + 1)]
            graph = DiGraph(2 * length + 1, edges)
            walker = SqrtCWalker(graph, c=0.6, seed=4)
            expected = 0.6**length
            meets = walker.count_meeting_pairs(
                np.full(samples, length), np.full(samples, 2 * length)
            )
            assert meets / samples == pytest.approx(expected, abs=0.02)
            scalar = sum(
                walker.walk_pair_meets(length, 2 * length) for _ in range(4000)
            )
            assert scalar / 4000 == pytest.approx(expected, abs=0.03)

    def test_unknown_start_raises(self):
        graph = generators.cycle(3)
        walker = SqrtCWalker(graph, seed=0)
        with pytest.raises(NodeNotFoundError):
            walker.walk_pair_meets(10, 0)
        with pytest.raises(NodeNotFoundError):
            walker.walk_pair_meets(0, 10)

    def test_seeded_walks_are_reproducible(self):
        graph = generators.preferential_attachment(30, 2, seed=1)
        first = SqrtCWalker(graph, seed=42)
        second = SqrtCWalker(graph, seed=42)
        assert [first.walk_pair_meets(5, 7) for _ in range(50)] == [
            second.walk_pair_meets(5, 7) for _ in range(50)
        ]
        starts = np.random.default_rng(0).integers(0, 30, size=(2, 400))
        assert first.count_meeting_pairs(*starts) == second.count_meeting_pairs(
            *starts
        )


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

    def test_pair_meeting_frequency_on_outward_star(self, decay):
        # Leaves of an outward star meet with probability c (Lemma 3).
        graph = generators.star(5, inward=False)
        walker = SqrtCWalker(graph, c=decay, seed=5)
        meets = sum(walker.walk_pair_meets(1, 2) for _ in range(4000))
        assert meets / 4000 == pytest.approx(decay, abs=0.04)

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


class TestNodeStreams:
    def test_integer_seed_is_its_own_entropy(self):
        assert resolve_entropy(42) == 42
        assert resolve_entropy(None) != resolve_entropy(None)

    def test_node_stream_is_the_spawned_child(self):
        child = np.random.SeedSequence(7).spawn(4)[3]
        expected = np.random.default_rng(child).random(5)
        assert np.array_equal(node_stream(7, 3).random(5), expected)

    def test_for_node_depends_on_seed_and_node_only(self):
        graph = generators.preferential_attachment(20, 2, seed=1)
        walker = SqrtCWalker(graph, seed=9)
        walker.rng.random(3)  # the walker's own stream has moved on
        first = walker.for_node(5).rng.random(4)
        again = SqrtCWalker(graph, seed=9).for_node(5).rng.random(4)
        other = walker.for_node(6).rng.random(4)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_for_node_leaves_the_walker_stream_alone(self):
        graph = generators.preferential_attachment(20, 2, seed=1)
        walker = SqrtCWalker(graph, seed=4)
        node_walker = walker.for_node(2)
        node_walker.count_meeting_pairs(np.array([0, 1]), np.array([3, 4]))
        assert node_walker.graph is graph and node_walker.c == walker.c
        assert np.array_equal(
            walker.rng.random(3), SqrtCWalker(graph, seed=4).rng.random(3)
        )

"""Unit tests for the dynamic SLING index: incremental mutation + re-freeze."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.baselines.power import GROUND_TRUTH_ITERATIONS, simrank_matrix
from repro.exceptions import GraphFormatError, IndexNotBuiltError, ParameterError
from repro.graphs import DiGraph, generators
from repro.sling import (
    DynamicSlingIndex,
    SlingIndex,
    SqrtCWalker,
    estimate_all_correction_factors,
)

EPS = 0.05
SEED = 13
STORE_COLUMNS = ("offsets", "levels", "targets", "values", "keys")


def rebuilt(graph, **kwargs):
    """From-scratch plain SLING index on ``graph`` with the suite's recipe."""
    kwargs.setdefault("epsilon", EPS)
    kwargs.setdefault("seed", SEED)
    return SlingIndex(graph, **kwargs).build()


def dynamic(graph, **kwargs):
    """A dynamic index adopted from :func:`rebuilt`'s build of ``graph``."""
    return DynamicSlingIndex.from_index(rebuilt(graph, **kwargs))


@pytest.fixture()
def community_dynamic():
    return dynamic(generators.two_level_community(3, 10, seed=7))


def assert_same_store(store, expected):
    """Every packed column equal, dtype and values, bit for bit."""
    for column in STORE_COLUMNS:
        mine, theirs = getattr(store, column), getattr(expected, column)
        assert mine.dtype == theirs.dtype, column
        assert np.array_equal(mine, theirs), column


class TestLifecycle:
    def test_build_opens_generation_zero(self, community_dynamic):
        index = community_dynamic
        assert index.is_built
        assert index.version == 0
        assert not index.is_dirty
        assert index.staleness_bound() == 0.0
        stats = index.statistics()
        assert stats["index_version"] == 0
        assert stats["dirty"] is False
        assert stats["overlay_entries"] == 0
        assert stats["mutations"] == 0

    def test_matches_plain_index_before_any_mutation(self, community_dynamic):
        plain = rebuilt(community_dynamic.graph)
        for node in (0, 7, 29):
            assert np.array_equal(
                community_dynamic.single_source(node), plain.single_source(node)
            )


class TestFromIndex:
    def test_adopts_built_index_without_rebuilding(self):
        graph = generators.two_level_community(2, 8, seed=3)
        plain = rebuilt(graph)
        dynamic = DynamicSlingIndex.from_index(plain)
        assert dynamic.is_built
        assert dynamic.version == 0
        assert dynamic.packed_store is plain.packed_store
        assert np.array_equal(dynamic.single_source(0), plain.single_source(0))

    def test_rejects_unbuilt_index(self):
        with pytest.raises(IndexNotBuiltError, match=r"build\(\)"):
            DynamicSlingIndex.from_index(SlingIndex(generators.cycle(5), epsilon=EPS))

    def test_adopts_parameters_and_starts_counters_at_zero(self):
        plain = rebuilt(generators.two_level_community(2, 8, seed=3))
        dynamic = DynamicSlingIndex.from_index(plain)
        assert dynamic.parameters is plain.parameters
        assert np.array_equal(dynamic.correction_factors, plain.correction_factors)
        stats = dynamic.statistics()
        assert stats["mutations"] == 0
        assert stats["refreezes"] == 0
        assert stats["overlay_entries"] == 0

    def test_mutation_leaves_the_adopted_index_unchanged(self):
        graph = generators.two_level_community(2, 8, seed=3)
        plain = rebuilt(graph)
        before = [plain.single_source(node).copy() for node in (0, 5, 11)]
        edges = sorted(graph.edges())
        dynamic = DynamicSlingIndex.from_index(plain)
        report = dynamic.mutate(added=[(0, 15), (15, 5)], removed=[edges[0]])
        assert report.version == 1
        dynamic.refreeze()
        assert plain.graph is graph
        assert sorted(plain.graph.edges()) == edges
        for node, expected in zip((0, 5, 11), before):
            assert np.array_equal(plain.single_source(node), expected)

    def test_rejects_reduce_space_and_enhance_accuracy(self):
        graph = generators.two_level_community(2, 8, seed=3)
        for flag in ("reduce_space", "enhance_accuracy"):
            plain = SlingIndex(graph, epsilon=EPS, seed=SEED, **{flag: True}).build()
            with pytest.raises(ParameterError):
                DynamicSlingIndex.from_index(plain)


class TestMutate:
    def test_add_edge_bumps_version_and_certifies_staleness(self, community_dynamic):
        index = community_dynamic
        graph = index.graph
        report = index.add_edges([(0, 17)])
        assert report.edges_added == 1
        assert report.edges_removed == 0
        assert report.version == 1
        assert report.epsilon_stale == pytest.approx(2 * EPS)
        assert index.version == 1
        assert index.is_dirty
        assert index.staleness_bound() == pytest.approx(2 * EPS)
        assert index.graph.num_edges == graph.num_edges + 1
        assert index.graph.has_edge(0, 17)

    def test_answers_stay_within_staleness_bound(self, community_dynamic):
        index = community_dynamic
        old_graph, old = index.graph, index.packed_store.records()
        added, removed = [(0, 17), (5, 23)], [(1, 2)]
        report = index.mutate(added=added, removed=removed)
        # The affected sources are the union of the replaced records' and
        # the re-pushed records' sources, over the targets read off the
        # hitting sets of the detection set D (tails, heads, heads' old
        # in-neighbours).
        heads = {v for _, v in added + removed}
        detect = {u for u, _ in added + removed} | heads
        for head in heads:
            detect.update(old_graph.in_neighbors(head).tolist())
        targets = np.unique(old.targets[np.isin(old.sources, sorted(detect))])
        new = index.packed_store.records()
        expected = np.union1d(
            old.sources[np.isin(old.targets, targets)],
            new.sources[np.isin(new.targets, targets)],
        )
        assert report.affected_targets == targets.shape[0]
        assert report.affected_sources == tuple(expected.tolist())
        fresh = rebuilt(index.graph)
        bound = index.staleness_bound()
        for node in range(index.graph.num_nodes):
            deviation = np.max(
                np.abs(index.single_source(node) - fresh.single_source(node))
            )
            assert deviation <= bound

    def test_affected_sources_are_sorted_unique_node_ids(self, community_dynamic):
        index = community_dynamic
        n = index.graph.num_nodes
        batches = [
            {"added": [(0, 17)]},
            {"removed": [(0, 17)], "added": [(4, 22), (22, 9)]},
            {"removed": [(4, 22)]},
        ]
        for batch in batches:
            sources = index.mutate(**batch).affected_sources
            assert sources
            assert all(isinstance(node, int) for node in sources)
            assert list(sources) == sorted(set(sources))
            assert 0 <= sources[0] and sources[-1] < n

    def test_unaffected_sources_answer_bitwise_identically(self):
        # Two disconnected 8-cycles: mutating inside one component cannot
        # implicate the other component's sources.
        edges = [(u, (u + 1) % 8) for u in range(8)]
        edges += [(8 + u, 8 + (u + 1) % 8) for u in range(8)]
        index = dynamic(DiGraph(16, edges))
        before = {
            node: index.single_source(node)
            for node in range(index.graph.num_nodes)
        }
        report = index.add_edges([(0, 4)])
        affected = set(report.affected_sources)
        untouched = set(range(index.graph.num_nodes)) - affected
        assert untouched, "mutation should not implicate every source here"
        for node in untouched:
            assert np.array_equal(index.single_source(node), before[node])

    def test_noop_mutation_does_not_bump_version(self, community_dynamic):
        index = community_dynamic
        existing = next(iter(index.graph.edges()))
        report = index.mutate(added=[tuple(existing)], removed=[(0, 17)])
        assert report.edges_added == 0
        assert report.edges_removed == 0
        assert report.version == 0
        assert not index.is_dirty
        assert index.staleness_bound() == 0.0

    def test_remove_then_readd_round_trips_through_refreeze(self, community_dynamic):
        index = community_dynamic
        edge = tuple(next(iter(index.graph.edges())))
        index.remove_edges([edge])
        assert not index.graph.has_edge(*edge)
        index.add_edges([edge])
        assert index.graph.has_edge(*edge)
        assert index.version == 2
        assert index.refreeze()
        fresh = rebuilt(index.graph)
        for node in (edge[0], edge[1], 0):
            assert np.array_equal(index.single_source(node), fresh.single_source(node))

    def test_edge_in_both_added_and_removed_rejected(self, community_dynamic):
        with pytest.raises(GraphFormatError):
            community_dynamic.mutate(added=[(0, 17)], removed=[(0, 17)])

    def test_mutation_accepts_generators(self, community_dynamic):
        report = community_dynamic.mutate(added=((u, u + 15) for u in (0, 1)))
        assert report.edges_added == 2


class TestDirtyStoreParity:
    """Every mutation leaves the serving store equal to a rebuild's."""

    @pytest.mark.parametrize(
        "added, removed",
        [
            ([(0, 17)], []),
            ([], [(1, 2)]),
            ([(0, 17), (3, 28), (22, 5)], [(1, 2), (12, 16)]),
        ],
        ids=["add", "remove", "mixed"],
    )
    def test_store_equals_rebuild_while_dirty(
        self, community_dynamic, added, removed
    ):
        index = community_dynamic
        for u, v in removed:
            assert index.graph.has_edge(u, v)
        report = index.mutate(added=added, removed=removed)
        assert report.edges_added + report.edges_removed == len(added) + len(
            removed
        )
        assert index.is_dirty
        assert_same_store(index.packed_store, rebuilt(index.graph).packed_store)


class TestStalenessDefect:
    # a→v1, a→v2, v1→k, v2→k, k→u, k→w, plus an isolated x.  Adding x→v1
    # moves d_k (two walks from k now meet at v1 less often), but only the
    # head v1's d̃ is re-estimated: served s(u, w) is 0.546 against a truth
    # of 0.600 and s(k, k) is off by 0.09, beyond ε_stale = 2ε = 0.05.
    A, V1, V2, K, U, W, X = range(7)

    @pytest.mark.xfail(
        strict=True,
        reason="d̃_k at non-heads stays stale until a re-freeze",
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dirty_answers_within_eps_stale_on_diamond(self, seed):
        edges = [
            (self.A, self.V1), (self.A, self.V2), (self.V1, self.K),
            (self.V2, self.K), (self.K, self.U), (self.K, self.W),
        ]
        index = DynamicSlingIndex.from_index(
            SlingIndex(DiGraph(7, edges), c=0.6, epsilon=0.025, seed=seed).build()
        )
        index.add_edges([(self.X, self.V1)])
        truth = simrank_matrix(
            index.graph, c=0.6, num_iterations=GROUND_TRUTH_ITERATIONS
        )
        error = np.abs(index.all_pairs() - truth).max()
        assert error <= index.staleness_bound()


class TestRepairedCorrections:
    def test_repaired_correction_equals_rebuild(self, community_dynamic):
        index = community_dynamic
        index.mutate(added=[(0, 17), (3, 28)])
        fresh = rebuilt(index.graph)
        for head in (17, 28):
            assert index.correction_factors[head] == fresh.correction_factors[head]

    def test_unseeded_repair_matches_its_refreeze(self):
        index = dynamic(generators.two_level_community(3, 10, seed=7), seed=None)
        index.mutate(added=[(0, 17)])
        repaired = index.correction_factors[17]
        assert index.refreeze()
        assert index.correction_factors[17] == repaired


class TestRefreeze:
    def test_refreeze_restores_bitwise_rebuild_parity(self, community_dynamic):
        index = community_dynamic
        index.mutate(added=[(0, 17), (3, 28)], removed=[(1, 2)])
        assert index.refreeze()
        assert not index.is_dirty
        assert index.staleness_bound() == 0.0
        assert index.version == 2  # one mutation batch + one re-freeze
        fresh = rebuilt(index.graph)
        assert np.array_equal(index.correction_factors, fresh.correction_factors)
        for node in range(index.graph.num_nodes):
            assert np.array_equal(index.single_source(node), fresh.single_source(node))
            levels, targets, values = index.packed_store.node_entries(node)
            f_levels, f_targets, f_values = fresh.packed_store.node_entries(node)
            assert np.array_equal(levels, f_levels)
            assert np.array_equal(targets, f_targets)
            assert np.array_equal(values, f_values)

    def test_refreeze_corrections_equal_the_pooled_driver(self, community_dynamic):
        index = community_dynamic
        index.mutate(added=[(0, 17), (5, 23)], removed=[(1, 2)])
        assert index.refreeze()
        params = index.parameters
        pooled = estimate_all_correction_factors(
            SqrtCWalker(index.graph, params.c, seed=SEED),
            params.epsilon_d,
            params.delta_d,
            workers=2,
        )
        assert np.array_equal(index.correction_factors, pooled)

    def test_refreeze_on_clean_index_is_noop(self, community_dynamic):
        version = community_dynamic.version
        # "True" means a clean generation is serving — trivially so here —
        # and the no-op must not burn a version number.
        assert community_dynamic.refreeze()
        assert community_dynamic.version == version

    def test_refreeze_retires_the_build_store(self, community_dynamic):
        index = community_dynamic
        build_values = weakref.ref(index.packed_store.values)
        index.add_edges([(0, 17)])
        assert index.refreeze()
        gc.collect()
        assert build_values() is None

    def test_statistics_count_repushed_records_until_refreeze(
        self, community_dynamic
    ):
        index = community_dynamic
        first = index.add_edges([(0, 17)])
        repushed = index.statistics()["overlay_entries"]
        assert first.affected_targets > 0
        assert repushed > 0
        index.add_edges([(3, 28)])
        assert index.statistics()["overlay_entries"] > repushed
        assert "overlay_nodes" not in index.statistics()
        assert index.refreeze()
        assert index.statistics()["overlay_entries"] == 0

    def test_queries_remain_servable_during_staleness_window(self, community_dynamic):
        index = community_dynamic
        index.add_edges([(0, 17)])
        value = index.single_pair(0, 17)
        assert 0.0 <= value <= 1.0
        ranking = index.top_k(0, 5)
        assert 0 < len(ranking) <= 5
        index.refreeze()
        ranking_after = index.top_k(0, 5)
        assert all(score >= 0.0 for _, score in ranking_after)


class TestQuerySurface:
    def test_single_source_methods_agree_within_epsilon(self, community_dynamic):
        index = community_dynamic
        index.add_edges([(0, 17)])
        for node in (0, 17, 29):
            push = index.single_source(node, method="local_push")
            cascade = index.single_source(node, method="cascade")
            assert np.abs(push - cascade).max() <= EPS

    def test_unknown_method_rejected(self, community_dynamic):
        with pytest.raises(ParameterError):
            community_dynamic.single_source(0, method="magic")

    def test_top_k_bounded_on_dirty_generation_within_tail_bound(
        self, community_dynamic
    ):
        # A dirty generation's store is a complete packed store, so its
        # level bounds drive the pruned path exactly as on a clean one.
        index = community_dynamic
        index.mutate(added=[(0, 17), (3, 28)], removed=[(1, 2)])
        assert index.is_dirty
        budget = EPS / 4.0
        for node in (0, 17, 29):
            result = index.top_k_bounded(node, 5, budget=budget)
            assert result.tail_bound <= budget
            cascade = index.single_source(node, method="cascade")
            assert 0 < len(result.ranked) <= 5
            for target, score in result.ranked:
                assert abs(score - cascade[target]) <= result.tail_bound + 1e-12

    def test_top_k_bounded_on_clean_generation_matches_rebuild(self, community_dynamic):
        # A re-frozen generation reports store bounds again, so the pruned
        # path runs exactly as on a from-scratch index.
        index = community_dynamic
        index.mutate(added=[(0, 17), (3, 28)], removed=[(1, 2)])
        assert index.refreeze()
        fresh = rebuilt(index.graph)
        for node in (0, 17, 29):
            expected = fresh.top_k_bounded(node, 5)
            assert index.top_k(node, 5, method="bounded") == expected.ranked
            assert index.top_k_bounded(node, 5) == expected

    def test_top_k_rejects_nonpositive_k(self, community_dynamic):
        with pytest.raises(ParameterError):
            community_dynamic.top_k(0, 0)

    def test_size_accessors_positive(self, community_dynamic):
        index = community_dynamic
        index.add_edges([(0, 17)])
        assert index.index_size_bytes() > 0
        assert index.resident_bytes() > 0
        assert index.average_set_size() > 0.0

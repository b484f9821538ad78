"""Bitwise parity and layout-invariant tests for the packed hitting-set store.

The query core (packed store slices plus copy-on-write overlays) must agree
*bitwise* with a test-local reference that composes each query's hitting set
with dicts — a transpose of ``reverse_push`` + ``exact_near_hops`` +
``AccuracyEnhancer.generated_entries`` — and runs the same kernels on it: any
difference means the packed columns or the per-query overlays disagree with
the paper's definition of the set a query reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.graphs import generators
from repro.ranking import rank_top_k
from repro.engine import BackendConfig, create_backend
from repro.sling import (
    AccuracyEnhancer,
    HittingRecords,
    PackedHittingStore,
    QueryView,
    SlingIndex,
    SpaceReduction,
    build_hitting_sets,
    exact_near_hops,
    intersect_views,
    load_index,
    pack_keys,
    reverse_push,
    save_index,
    single_source_local_push,
)

EPS = 0.1

#: Every combination of the Section-5.2 / 5.3 optimization flags.
FLAG_COMBOS = [
    pytest.param(False, False, id="plain"),
    pytest.param(True, False, id="reduce_space"),
    pytest.param(False, True, id="enhance_accuracy"),
    pytest.param(True, True, id="both"),
]


@pytest.fixture(scope="module")
def graph():
    return generators.two_level_community(2, 12, seed=19)


@pytest.fixture(scope="module")
def index_cache(graph):
    cache: dict[tuple[bool, bool], SlingIndex] = {}

    def build(reduce_space: bool, enhance_accuracy: bool) -> SlingIndex:
        key = (reduce_space, enhance_accuracy)
        if key not in cache:
            cache[key] = SlingIndex(
                graph,
                epsilon=EPS,
                seed=5,
                reduce_space=reduce_space,
                enhance_accuracy=enhance_accuracy,
            ).build()
        return cache[key]

    return build


#: One node's hitting set as ``{level: {target: value}}``.
LevelDict = dict[int, dict[int, float]]


def transposed_pushes(graph, sqrt_c: float, theta: float) -> list[LevelDict]:
    """``H(v)`` of every node: the reverse pushes transposed by source."""
    sets: list[LevelDict] = [{} for _ in graph.nodes()]
    for target in graph.nodes():
        for level, entries in reverse_push(graph, target, sqrt_c, theta).items():
            for source, value in entries.items():
                sets[source].setdefault(level, {})[target] = value
    return sets


def entries_of(hitting_set: LevelDict) -> list[tuple[int, int, float]]:
    """A dict set's ``(level, target, value)`` entries."""
    return [
        (level, target, value)
        for level, entries in hitting_set.items()
        for target, value in entries.items()
    ]


def pack_sets(sets: list[LevelDict]) -> PackedHittingStore:
    """Dict sets packed with ``from_columns`` (node-grouped columns)."""
    rows = [entries_of(hitting_set) for hitting_set in sets]
    offsets = np.concatenate(([0], np.cumsum([len(entries) for entries in rows])))
    flat = [entry for entries in rows for entry in entries]
    return PackedHittingStore.from_columns(
        offsets,
        np.array([entry[0] for entry in flat], dtype=np.int32),
        np.array([entry[1] for entry in flat], dtype=np.int32),
        np.array([entry[2] for entry in flat], dtype=np.float64),
    )


def as_view(hitting_set: LevelDict) -> QueryView:
    """A dict-based set as a canonical (key-sorted) packed view."""
    return pack_sets([hitting_set]).node_view(0)


def view_entries(view: QueryView) -> dict[tuple[int, int], float]:
    """A view's entries as ``{(level, target): value}``."""
    return {
        (int(level), int(target)): float(value)
        for level, target, value in zip(view.levels, view.targets, view.values)
    }


class DictReference:
    """Each query's hitting set, composed with dicts from the build-time sets.

    The stored sets are the transposed reverse pushes, with levels 1-2 of
    every reducible node dropped when the Section-5.2 reduction is enabled; a
    query from a reduced node overwrites them with the exact
    ``exact_near_hops`` values, then adds the Section-5.3
    ``generated_entries`` — the definition the packed overlays implement.
    """

    def __init__(self, index: SlingIndex, reduce_space: bool, enhance_accuracy: bool):
        graph, params = index.graph, index.parameters
        self.index = index
        self.stored = transposed_pushes(graph, params.sqrt_c, params.theta)
        reduction = SpaceReduction(theta=params.theta)
        self.reduced = np.array(
            [reduce_space and reduction.is_reducible(graph, node) for node in graph.nodes()]
        )
        for node in np.flatnonzero(self.reduced):
            self.stored[node] = {
                level: entries
                for level, entries in self.stored[node].items()
                if level not in (1, 2)
            }
        self.enhancer = None
        if enhance_accuracy:
            self.enhancer = AccuracyEnhancer(graph, params.epsilon, params.sqrt_c)
            self.enhancer.mark_all_packed(pack_sets(self.stored))

    def hitting_set(self, node: int) -> LevelDict:
        graph, sqrt_c = self.index.graph, self.index.parameters.sqrt_c
        composed = {level: dict(entries) for level, entries in self.stored[node].items()}
        if self.reduced[node]:
            for level, entries in exact_near_hops(graph, node, sqrt_c).items():
                composed.setdefault(level, {}).update(entries)
        if self.enhancer is not None:
            generated = self.enhancer.generated_entries(
                node,
                lambda level, target: composed.get(level, {}).get(target, 0.0) > 0.0,
            )
            for (level, target), value in generated.items():
                composed.setdefault(level, {})[target] = value
        return composed

    def single_pair(self, node_u: int, node_v: int) -> float:
        """Algorithm 3 over the dict-composed sets."""
        return intersect_views(
            as_view(self.hitting_set(node_u)),
            as_view(self.hitting_set(node_v)),
            self.index.correction_factors,
        )

    def single_source(self, node: int) -> np.ndarray:
        """Algorithm 6 over the dict-composed set."""
        params = self.index.parameters
        return single_source_local_push(
            self.index.graph,
            as_view(self.hitting_set(node)),
            self.index.correction_factors,
            params.sqrt_c,
            params.theta,
        )


@pytest.fixture(scope="module")
def reference_cache(index_cache):
    cache: dict[tuple[bool, bool], DictReference] = {}

    def build(reduce_space: bool, enhance_accuracy: bool) -> DictReference:
        key = (reduce_space, enhance_accuracy)
        if key not in cache:
            cache[key] = DictReference(index_cache(*key), *key)
        return cache[key]

    return build


def legacy_intersect(set_u: LevelDict, set_v: LevelDict, corrections) -> float:
    """The pre-packed dict-of-dicts intersection loop (sanity oracle)."""
    score = 0.0
    for level, entries_u in set_u.items():
        entries_v = set_v.get(level)
        if not entries_v:
            continue
        if len(entries_v) < len(entries_u):
            entries_u, entries_v = entries_v, entries_u
        for target, value_u in entries_u.items():
            value_v = entries_v.get(target)
            if value_v is not None:
                score += value_u * corrections[target] * value_v
    return min(1.0, score)


# --------------------------------------------------------------------------- #
# Bitwise parity: packed vs dict path
# --------------------------------------------------------------------------- #
class TestQueryParity:
    @pytest.mark.parametrize("reduce_space,enhance_accuracy", FLAG_COMBOS)
    def test_single_pair_bitwise_identical(
        self, graph, index_cache, reference_cache, reduce_space, enhance_accuracy
    ):
        index = index_cache(reduce_space, enhance_accuracy)
        reference = reference_cache(reduce_space, enhance_accuracy)
        rng = np.random.default_rng(0)
        pairs = [(int(u), int(v)) for u, v in rng.integers(0, graph.num_nodes, (40, 2))]
        pairs += [(node, node) for node in range(0, graph.num_nodes, 5)]
        for node_u, node_v in pairs:
            assert index.single_pair(node_u, node_v) == reference.single_pair(
                node_u, node_v
            )

    @pytest.mark.parametrize("reduce_space,enhance_accuracy", FLAG_COMBOS)
    def test_single_source_bitwise_identical(
        self, graph, index_cache, reference_cache, reduce_space, enhance_accuracy
    ):
        index = index_cache(reduce_space, enhance_accuracy)
        reference = reference_cache(reduce_space, enhance_accuracy)
        for node in range(graph.num_nodes):
            assert np.array_equal(
                index.single_source(node), reference.single_source(node)
            )

    @pytest.mark.parametrize("reduce_space,enhance_accuracy", FLAG_COMBOS)
    def test_top_k_bitwise_identical(
        self, graph, index_cache, reference_cache, reduce_space, enhance_accuracy
    ):
        index = index_cache(reduce_space, enhance_accuracy)
        reference = reference_cache(reduce_space, enhance_accuracy)
        for node in (0, 7, 19):
            expected = rank_top_k(
                reference.single_source(node), node, 5
            )
            assert index.top_k(node, 5) == expected

    @pytest.mark.parametrize("reduce_space,enhance_accuracy", FLAG_COMBOS)
    def test_all_pairs_bitwise_identical(
        self, graph, index_cache, reference_cache, reduce_space, enhance_accuracy
    ):
        index = index_cache(reduce_space, enhance_accuracy)
        reference = reference_cache(reduce_space, enhance_accuracy)
        reference = np.stack(
            [reference.single_source(node) for node in graph.nodes()]
        )
        assert np.array_equal(index.all_pairs(), reference)

    @pytest.mark.parametrize("reduce_space,enhance_accuracy", FLAG_COMBOS)
    def test_pairwise_single_source_bitwise_identical(
        self, graph, index_cache, reference_cache, reduce_space, enhance_accuracy
    ):
        index = index_cache(reduce_space, enhance_accuracy)
        reference = reference_cache(reduce_space, enhance_accuracy)
        scores = index.single_source(3, method="pairwise")
        expected = np.array(
            [reference.single_pair(3, other) for other in graph.nodes()]
        )
        assert np.array_equal(scores, expected)

    def test_matches_legacy_dict_loop_closely(self, graph, index_cache, reference_cache):
        # The legacy Python loop sums in dict-insertion order, so agreement
        # is up to floating-point reassociation, not bitwise.
        index = index_cache(False, False)
        reference = reference_cache(False, False)
        for node_u, node_v in [(0, 1), (3, 20), (7, 7), (2, 15)]:
            legacy = legacy_intersect(
                reference.hitting_set(node_u),
                reference.hitting_set(node_v),
                index.correction_factors,
            )
            assert index.single_pair(node_u, node_v) == pytest.approx(
                legacy, abs=1e-12
            )

    def test_kernel_accepts_dict_and_view_identically(
        self, graph, index_cache, reference_cache
    ):
        # A store slice and the build-time dict set, converted to a view,
        # run through the kernel to the same bits.
        index = index_cache(False, False)
        reference = reference_cache(False, False)
        params = index.parameters
        for node in (0, 11, 23):
            from_view = single_source_local_push(
                graph,
                index.packed_store.node_view(node),
                index.correction_factors,
                params.sqrt_c,
                params.theta,
            )
            from_dict = single_source_local_push(
                graph,
                as_view(reference.stored[node]),
                index.correction_factors,
                params.sqrt_c,
                params.theta,
            )
            assert np.array_equal(from_view, from_dict)


# --------------------------------------------------------------------------- #
# Layout invariants of the packed store
# --------------------------------------------------------------------------- #
class TestStoreInvariants:
    @pytest.mark.parametrize("reduce_space,enhance_accuracy", FLAG_COMBOS)
    def test_invariants_hold(self, index_cache, reduce_space, enhance_accuracy):
        store = index_cache(reduce_space, enhance_accuracy).packed_store
        store.check_invariants()

    def test_columns_sorted_and_offsets_monotone(self, index_cache):
        store = index_cache(False, False).packed_store
        offsets = np.asarray(store.offsets)
        assert offsets[0] == 0
        assert int(offsets[-1]) == store.num_entries
        assert np.all(np.diff(offsets) >= 0)
        for node in range(store.num_nodes):
            start, stop = store.slice_bounds(node)
            segment = store.keys[start:stop]
            if segment.shape[0] > 1:
                assert np.all(np.diff(segment) > 0)
            assert np.array_equal(
                segment,
                pack_keys(store.levels[start:stop], store.targets[start:stop]),
            )

    def test_store_matches_dict_sets_exactly(self, index_cache, reference_cache):
        store = index_cache(False, False).packed_store
        stored = reference_cache(False, False).stored
        for node, hitting_set in enumerate(stored):
            expected = {
                (level, target): value for level, target, value in entries_of(hitting_set)
            }
            assert view_entries(store.node_view(node)) == expected
            assert store.entry_counts()[node] == len(expected)
        assert store.num_entries == sum(len(entries_of(hs)) for hs in stored)

    def test_size_accounting_is_o1_and_matches_dicts(self, index_cache):
        index = index_cache(False, False)
        store = index.packed_store
        assert store.size_bytes() == 12 * store.num_entries
        assert index.index_size_bytes() == 8 * store.num_nodes + store.size_bytes()
        assert index.build_statistics.num_hitting_entries == store.num_entries
        assert index.average_set_size() == store.num_entries / store.num_nodes
        assert index.resident_bytes() > store.size_bytes()

    def test_from_hitting_sets_packs_records_in_any_order(self, index_cache):
        index = index_cache(False, False)
        store = index.packed_store
        sources = np.repeat(
            np.arange(store.num_nodes, dtype=np.int64), store.entry_counts()
        )
        rng = np.random.default_rng(3)
        shuffle = rng.permutation(store.num_entries)
        rebuilt = PackedHittingStore.from_hitting_sets(
            HittingRecords(
                store.num_nodes,
                sources[shuffle],
                np.asarray(store.levels)[shuffle],
                np.asarray(store.targets)[shuffle],
                np.asarray(store.values)[shuffle],
            )
        )
        assert np.array_equal(rebuilt.offsets, store.offsets)
        assert np.array_equal(rebuilt.keys, store.keys)
        assert np.array_equal(rebuilt.values, store.values)

    @pytest.mark.parametrize("reduce_space", [False, True], ids=["plain", "reduced"])
    def test_packed_records_equal_transposed_reference(
        self, graph, index_cache, reference_cache, reduce_space
    ):
        # The build's store — push records, the space-reduction mask, one
        # packing constructor — equals the transposed reverse pushes packed
        # with from_columns, column for column.
        index = index_cache(reduce_space, False)
        params = index.parameters
        records = build_hitting_sets(graph, params.sqrt_c, params.theta)
        reduced = np.zeros(graph.num_nodes, dtype=bool)
        if reduce_space:
            reduced, records = SpaceReduction(theta=params.theta).apply(graph, records)
        packed = PackedHittingStore.from_hitting_sets(records)
        reference = reference_cache(reduce_space, False)
        expected = pack_sets(reference.stored)
        assert np.array_equal(reduced, reference.reduced)
        for column in ("offsets", "levels", "targets", "values", "keys"):
            assert np.array_equal(getattr(packed, column), getattr(expected, column))
            assert np.array_equal(
                getattr(packed, column), getattr(index.packed_store, column)
            )

    def test_packing_shuffled_records_matches_lexsort_reference(self, graph):
        params = SlingIndex(graph, epsilon=EPS).parameters
        records = build_hitting_sets(graph, params.sqrt_c, params.theta)
        shuffled = records.take(
            np.random.default_rng(3).permutation(records.num_records)
        )
        packed = PackedHittingStore.from_hitting_sets(shuffled)
        keys = pack_keys(shuffled.levels, shuffled.targets)
        order = np.lexsort((keys, shuffled.sources))
        for column, expected in (
            ("levels", shuffled.levels[order]),
            ("targets", shuffled.targets[order]),
            ("values", shuffled.values[order]),
            ("keys", keys[order]),
        ):
            assert np.array_equal(getattr(packed, column), expected)

    def test_records_round_trip(self, index_cache):
        store = index_cache(False, False).packed_store
        repacked = PackedHittingStore.from_hitting_sets(store.records())
        for column in ("offsets", "levels", "targets", "values", "keys"):
            assert np.array_equal(getattr(repacked, column), getattr(store, column))

    def test_packing_rejects_positions_overflowing_int64(self):
        records = HittingRecords(
            2**31 - 1,
            np.zeros(1, dtype=np.int64),
            np.full(1, 3, dtype=np.int32),
            np.full(1, 2**31 - 2, dtype=np.int32),
            np.ones(1),
        )
        with pytest.raises(StorageError):
            PackedHittingStore.from_hitting_sets(records)


# --------------------------------------------------------------------------- #
# QueryView composition
# --------------------------------------------------------------------------- #
class TestQueryView:
    def test_override_replaces_and_inserts_in_key_order(self):
        base = as_view({0: {4: 1.0}, 2: {1: 0.25, 6: 0.5}})
        composed = base.override([(2, 6, 0.75), (1, 3, 0.125), (2, 9, 0.0625)])
        assert composed.num_entries == 5
        assert np.all(np.diff(composed.keys) > 0)
        rebuilt = view_entries(composed)
        assert rebuilt[(2, 6)] == 0.75  # replaced
        assert rebuilt[(1, 3)] == 0.125  # inserted
        assert rebuilt[(2, 9)] == 0.0625  # inserted
        assert rebuilt[(0, 4)] == 1.0  # untouched
        # the receiver is copy-on-write: the base view is unchanged
        assert view_entries(base)[(2, 6)] == 0.5

    def test_override_on_empty_view(self):
        empty = as_view({})
        composed = empty.override([(0, 2, 1.0)])
        assert composed.num_entries == 1
        assert composed.contains(0, 2)

    def test_contains_and_iter_levels(self):
        view = as_view({1: {5: 0.5, 2: 0.25}, 3: {0: 0.125}})
        assert view.contains(1, 5)
        assert not view.contains(1, 4)
        assert not view.contains(2, 5)
        observed = [
            (level, targets.tolist(), values.tolist())
            for level, targets, values in view.iter_levels()
        ]
        assert observed == [(1, [2, 5], [0.25, 0.5]), (3, [0], [0.125])]

    def test_intersect_empty_views(self):
        empty = as_view({})
        other = as_view({0: {0: 1.0}})
        corrections = np.ones(4)
        assert intersect_views(empty, other, corrections) == 0.0
        assert intersect_views(other, empty, corrections) == 0.0
        assert intersect_views(empty, empty, corrections) == 0.0


# --------------------------------------------------------------------------- #
# Round-trip: save -> mmap load -> query must be exact
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("reduce_space,enhance_accuracy", FLAG_COMBOS)
    def test_mmap_load_is_bitwise_exact(
        self, graph, index_cache, tmp_path, reduce_space, enhance_accuracy
    ):
        index = index_cache(reduce_space, enhance_accuracy)
        directory = save_index(index, tmp_path / "index")
        loaded = load_index(directory, graph)
        rng = np.random.default_rng(1)
        for u, v in rng.integers(0, graph.num_nodes, (25, 2)):
            assert loaded.single_pair(int(u), int(v)) == index.single_pair(
                int(u), int(v)
            )
        for node in (0, 9, 23):
            assert np.array_equal(
                loaded.single_source(node), index.single_source(node)
            )

    def test_loaded_columns_are_memory_mapped(self, graph, index_cache, tmp_path):
        index = index_cache(False, False)
        directory = save_index(index, tmp_path / "index")
        loaded = load_index(directory, graph)
        store = loaded.packed_store
        for column in (store.offsets, store.levels, store.targets, store.values,
                       store.keys):
            assert isinstance(column, np.memmap)
        store.check_invariants()

    def test_resave_over_live_mmap_does_not_corrupt(self, graph, index_cache, tmp_path):
        """Regression: re-saving an mmap-loaded index into its own directory.

        ``np.save`` used to truncate the very files the store was still
        mapped from; the temp-file + rename write path must leave both the
        live mapping and the on-disk index intact.
        """
        index = index_cache(False, False)
        directory = save_index(index, tmp_path / "index")
        loaded = load_index(directory, graph)
        before = loaded.single_pair(0, 1)
        save_index(loaded, directory)  # columns are mmapped from `directory`
        assert loaded.single_pair(0, 1) == before  # live mapping still valid
        reloaded = load_index(directory, graph)
        assert reloaded.single_pair(0, 1) == index.single_pair(0, 1)
        assert np.array_equal(
            reloaded.single_source(5), index.single_source(5)
        )

    @pytest.mark.parametrize("reduce_space,enhance_accuracy", FLAG_COMBOS)
    def test_disk_backed_queries_bitwise_exact(
        self, graph, index_cache, tmp_path, reduce_space, enhance_accuracy
    ):
        # Regression: the disk-backed reader used to skip the Section-5.2/5.3
        # overlays, answering reduced-space queries off by up to 0.6.  The
        # sling-disk backend re-attaching to a saved index must answer
        # exactly like the in-memory build, on every query path.
        index = index_cache(reduce_space, enhance_accuracy)
        directory = save_index(index, tmp_path / "index")
        backend = create_backend(
            "sling-disk",
            graph,
            BackendConfig(
                epsilon=EPS, seed=5, work_directory=str(directory),
                reuse_saved_index=True,
            ),
        )
        assert isinstance(backend.packed_store.values, np.memmap)
        for u, v in [(0, 1), (5, 18), (10, 10), (3, 22), (7, 2)]:
            assert backend.single_pair(u, v) == index.single_pair(u, v)
        for node in range(graph.num_nodes):
            assert np.array_equal(backend.single_source(node), index.single_source(node))
            assert backend.top_k(node, 5) == index.top_k(node, 5)
        for node in (2, 17):
            assert np.array_equal(
                backend.single_source(node, method="cascade"),
                index.single_source(node, method="cascade"),
            )
            assert backend.index.top_k_bounded(node, 5) == index.top_k_bounded(node, 5)


# --------------------------------------------------------------------------- #
# QueryView type sanity
# --------------------------------------------------------------------------- #
def test_node_view_is_zero_copy(index_cache):
    store = index_cache(False, False).packed_store
    view = store.node_view(0)
    assert isinstance(view, QueryView)
    assert view.values.base is not None  # a slice, not a copy
    assert view.num_entries == int(store.entry_counts()[0])


# --------------------------------------------------------------------------- #
# Level segments and residual-mass metadata
# --------------------------------------------------------------------------- #
class TestLevelSegments:
    def test_matches_iter_levels(self, index_cache):
        store = index_cache(False, False).packed_store
        for node in (0, 5, 17):
            view = store.node_view(node)
            levels, starts, stops = view.level_segments()
            iterated = list(view.iter_levels())
            assert levels.shape == starts.shape == stops.shape
            assert len(iterated) == levels.shape[0]
            for idx, (level, targets, values) in enumerate(iterated):
                assert int(levels[idx]) == level
                assert np.array_equal(view.targets[starts[idx] : stops[idx]], targets)
                assert np.array_equal(view.values[starts[idx] : stops[idx]], values)

    def test_empty_view(self):
        view = as_view({})
        levels, starts, stops = view.level_segments()
        assert levels.size == starts.size == stops.size == 0


class TestLevelStats:
    def test_matches_hitting_set_aggregates(self, index_cache, reference_cache):
        store = index_cache(False, False).packed_store
        stored = reference_cache(False, False).stored
        for node in (0, 5, 17, 23):
            levels, totals, maxima = store.node_level_stats(node)
            expected = stored[node]
            present = sorted(level for level, entries in expected.items() if entries)
            assert [int(level) for level in levels] == present
            for level, total, maximum in zip(levels, totals, maxima):
                values = list(expected[int(level)].values())
                assert total == pytest.approx(sum(values))
                assert maximum == pytest.approx(max(values))

    def test_cached(self, index_cache):
        store = index_cache(False, False).packed_store
        assert store.level_stats() is store.level_stats()

    def test_empty_store(self):
        store = PackedHittingStore.from_columns(
            np.zeros(4, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
        )
        levels, totals, maxima = store.node_level_stats(1)
        assert levels.size == totals.size == maxima.size == 0

"""Regression tests for version-scoped engine-cache invalidation.

The original cache was keyed by source node alone, so a graph mutation
could keep serving pre-mutation vectors forever.  These tests pin the
fix: the backend's serving generation owns ``index_version``, entries carry
the version the backend served when their computation started, a lookup
drops an entry stamped with any other version, ``invalidate_cache`` drops
exactly the affected sources (re-stamping the certified survivors), and
the ``cache_invalidations`` counter records every drop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BackendInfo, QueryEngine, SimilarityBackend, create_engine
from repro.engine.engine import ENGINE_TOTAL_COUNTERS
from repro.graphs import generators


class VersionedBackend(SimilarityBackend):
    """Stub whose answers depend on a mutable ``generation`` counter, which
    is also the ``index_version`` it serves.

    This makes stale-cache bugs observable: if the engine serves a cached
    vector computed before ``generation`` was bumped, the value is wrong.
    A ``midway`` hook runs once inside the next ``single_source``, after
    it read the generation: a mutation landing mid-computation.
    """

    info = BackendInfo(name="versioned-stub", exact=True, build_cost="none")

    def __init__(self, graph, config=None):
        super().__init__(graph, config)
        self.generation = 0
        self.source_calls = 0
        self.midway = None

    @property
    def index_version(self):
        return self.generation

    def build(self):
        self._built = True
        return self

    def single_pair(self, node_u, node_v):
        return float(self.single_source(node_u)[int(node_v)])

    def single_source(self, node):
        self.source_calls += 1
        generation = self.generation
        if self.midway is not None:
            hook, self.midway = self.midway, None
            hook()
        n = self._graph.num_nodes
        return np.full(n, float(generation) + int(node) / n)

    def index_size_bytes(self):
        return 8


@pytest.fixture()
def engine():
    return QueryEngine(VersionedBackend(generators.cycle(8)), cache_size=8)


class TestScopedInvalidation:
    def test_mutation_then_query_returns_fresh_value(self, engine):
        stale = engine.single_source(3)
        engine.backend.generation = 1  # "the graph mutated"
        engine.invalidate_cache([3])
        fresh = engine.single_source(3)
        assert fresh[0] == pytest.approx(stale[0] + 1.0)
        assert engine.backend.source_calls == 2
        assert engine.statistics.cache_invalidations == 1

    def test_unaffected_entries_survive_and_stay_servable(self, engine):
        engine.single_source(1)
        engine.single_source(2)
        engine.single_source(3)
        engine.backend.generation = 1
        dropped = engine.invalidate_cache([3])
        assert dropped == 1
        # 1 and 2 were certified unchanged: still cache hits at the new version.
        engine.single_source(1)
        engine.single_source(2)
        assert engine.backend.source_calls == 3
        assert engine.statistics.cache_hits == 2
        assert engine.statistics.cache_invalidations == 1

    def test_full_clear_when_no_affected_set_given(self, engine):
        engine.single_source(1)
        engine.single_source(2)
        dropped = engine.invalidate_cache()
        assert dropped == 2
        assert engine.statistics.cache_invalidations == 2
        engine.single_source(1)
        assert engine.backend.source_calls == 3

    def test_invalidating_uncached_source_drops_nothing(self, engine):
        engine.single_source(1)
        engine.backend.generation = 1
        assert engine.invalidate_cache([5]) == 0
        assert engine.statistics.cache_invalidations == 0
        # ...and the survivor was re-stamped with the backend's version.
        assert engine.index_version == 1
        engine.single_source(1)
        assert engine.statistics.cache_hits == 1

    def test_version_is_read_from_the_backend(self, engine):
        assert engine.index_version == 0
        engine.backend.generation = 4
        assert engine.index_version == 4
        assert engine.describe()["index_version"] == 4
        # invalidate_cache scopes the cache; it never sets the version.
        engine.invalidate_cache([1])
        assert engine.index_version == 4
        with pytest.raises(TypeError):
            engine.invalidate_cache([1], index_version=5)

    def test_static_backend_stays_at_version_zero(self):
        engine = create_engine(generators.cycle(6), backend="power")
        engine.single_source(1)
        assert engine.invalidate_cache() == 1
        assert engine.index_version == 0
        assert engine.describe()["index_version"] == 0

    def test_stale_stamp_is_dropped_before_invalidate_cache_runs(self, engine):
        stale = engine.single_source(3)
        engine.backend.generation = 1  # the generation moved; no invalidation yet
        fresh = engine.single_source(3)
        assert fresh[0] == pytest.approx(stale[0] + 1.0)
        assert engine.backend.source_calls == 2
        assert engine.statistics.cache_hits == 0
        assert engine.statistics.cache_invalidations == 1

    @pytest.mark.parametrize("kind", ["single_source", "top_k", "single_pair"])
    def test_vector_straddling_a_version_change_is_never_served(self, kind):
        engine = QueryEngine(
            VersionedBackend(generators.cycle(8)),
            cache_size=8,
            pair_admission_threshold=1,
        )
        query = {
            "single_source": lambda: engine.single_source(3)[0],
            "top_k": lambda: engine.top_k(3, 1)[0][1],
            "single_pair": lambda: engine.single_pair(3, 4),
        }[kind]
        backend = engine.backend
        backend.midway = lambda: setattr(backend, "generation", 1)
        first = query()  # computed at generation 0 while 1 was published
        assert engine.cached_nodes() == []
        second = query()
        assert second == pytest.approx(first + 1.0)
        assert backend.source_calls == 2
        # The fresh vector is stamped with the version it was computed on.
        assert query() == second
        assert backend.source_calls == 2

    def test_straddling_vector_is_not_certified_by_a_later_mutation(self, engine):
        backend = engine.backend

        def mutation_affecting_source_3():
            backend.generation = 1
            engine.invalidate_cache([3])

        backend.midway = mutation_affecting_source_3
        engine.single_source(3)  # computed at 0; the mutation ran meanwhile
        backend.generation = 2
        engine.invalidate_cache([5])  # certifies every cached source but 5
        assert engine.single_source(3)[0] == pytest.approx(2.0 + 3 / 8)

    def test_single_pair_path_also_sees_fresh_values(self, engine):
        # Warm the pair-amortization path so a source vector lands in cache.
        for _ in range(8):
            engine.single_pair(3, 4)
        stale = engine.single_pair(3, 4)
        engine.backend.generation = 2
        engine.invalidate_cache([3])
        fresh = engine.single_pair(3, 4)
        assert fresh == pytest.approx(stale + 2.0)

    def test_counter_is_aggregated(self, engine):
        assert "cache_invalidations" in ENGINE_TOTAL_COUNTERS
        engine.single_source(1)
        engine.backend.generation = 1
        engine.invalidate_cache([1])
        stats = engine.statistics.as_dict()
        assert stats["cache_invalidations"] == 1
        assert engine.describe()["index_version"] == 1

"""Regression tests for the service-layer cache/session fixes.

Pins the four bugfixes of the cache-accounting PR at this layer:

* case-variant dataset spellings are memoized onto the lock-free
  ``execute`` fast path (no registry scan per query);
* ``statistics()`` totals carry *every* engine counter (they used to drop
  ``cache_evictions``);
* ``cache_budget_vectors=0`` disables caching instead of rounding up to
  one vector per session;
* the ``pair_admission_threshold`` config knob reaches every engine a
  session builds.
"""

from __future__ import annotations

import pytest

from repro.engine import ENGINE_TOTAL_COUNTERS, BackendConfig
from repro.graphs import generators
from repro.service import (
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)

CONFIG = ServiceConfig(
    scale=0.05, backend_config=BackendConfig(epsilon=0.1, seed=0)
)


@pytest.fixture()
def service():
    return SimRankService(CONFIG)


class TestCanonicalMemo:
    def test_case_variant_spelling_skips_rescans_after_first_query(
        self, service, monkeypatch
    ):
        first = service.execute(SingleSourceQuery("grqc", 0))
        assert first.ok

        def boom(name):  # noqa: ANN001 - monkeypatched method
            raise AssertionError(
                f"steady-state query re-resolved {name!r} through _canonical"
            )

        monkeypatch.setattr(service, "_canonical", boom)
        # The memoized spelling must now reach the session without any
        # canonical resolution (which would also mean taking the RLock).
        second = service.execute(SingleSourceQuery("grqc", 1))
        assert second.ok
        assert second.dataset == "GrQc"

    def test_close_drops_memoized_spellings(self, service):
        assert service.execute(SingleSourceQuery("grqc", 0)).ok
        assert service.close_dataset("GrQc") is True
        assert "grqc" not in service._canonical_memo
        # A fresh graph can now be registered under the same key without a
        # stale memo entry routing old spellings to the dead session.
        graph = generators.two_level_community(2, 8, seed=1)
        service.open_dataset("GrQc", graph=graph)
        result = service.execute(SingleSourceQuery("grqc", 0))
        assert result.ok

    def test_close_all_clears_the_memo(self, service):
        assert service.execute(SingleSourceQuery("grqc", 0)).ok
        service.close_all()
        assert service._canonical_memo == {}

    def test_unknown_names_are_not_memoized(self, service):
        result = service.execute(SingleSourceQuery("no-such-dataset", 0))
        assert not result.ok
        assert "no-such-dataset" not in service._canonical_memo


class TestStatisticsTotals:
    def test_totals_carry_every_engine_counter(self, service):
        service.execute(SingleSourceQuery("GrQc", 0))
        service.execute(TopKQuery("GrQc", 0, k=3))
        service.execute(SinglePairQuery("GrQc", 0, 1))
        totals = service.statistics()["totals"]
        for counter in ENGINE_TOTAL_COUNTERS:
            assert counter in totals, counter
        assert "cache_evictions" in totals  # the regression
        assert "hit_rate_by_kind" in totals
        assert "latency_percentiles_by_outcome" in totals

    def test_totals_equal_sum_of_engines(self, service):
        for name in ("GrQc", "AS"):
            service.execute(SingleSourceQuery(name, 0))
            service.execute(TopKQuery(name, 1, k=3))
        payload = service.statistics()
        for counter in ENGINE_TOTAL_COUNTERS:
            summed = sum(
                engine_stats[counter]
                for detail in payload["datasets"].values()
                for engine_stats in detail["engines"].values()
            )
            assert payload["totals"][counter] == summed, counter


class TestCacheBudgetZero:
    def test_zero_budget_disables_caching(self):
        service = SimRankService(
            ServiceConfig(
                scale=0.05,
                cache_budget_vectors=0,
                backend_config=BackendConfig(epsilon=0.1, seed=0),
            )
        )
        session = service.open_dataset("GrQc")
        assert session._cache_capacity == 0
        assert session.engine().cache_size == 0
        service.execute(SingleSourceQuery("GrQc", 0))
        service.execute(SingleSourceQuery("GrQc", 0))
        totals = service.statistics()["totals"]
        assert totals["cache_hits"] == 0
        assert session.engine().cached_nodes() == []

    def test_zero_budget_applies_to_every_session(self):
        service = SimRankService(
            ServiceConfig(
                scale=0.05,
                cache_budget_vectors=0,
                backend_config=BackendConfig(epsilon=0.1, seed=0),
            )
        )
        for name in ("GrQc", "AS"):
            session = service.open_dataset(name)
            assert session.engine().cache_size == 0

    def test_positive_budget_still_divides(self):
        service = SimRankService(
            ServiceConfig(
                scale=0.05,
                cache_budget_vectors=8,
                backend_config=BackendConfig(epsilon=0.1, seed=0),
            )
        )
        service.open_dataset("GrQc")
        service.open_dataset("AS")
        for name in ("GrQc", "AS"):
            assert service.open_dataset(name).engine().cache_size == 4


class TestPolicyKnobsReachEngines:
    def test_config_knobs_forwarded_to_engines(self):
        service = SimRankService(
            ServiceConfig(
                scale=0.05,
                pair_admission_threshold=9,
                backend_config=BackendConfig(epsilon=0.1, seed=0),
            )
        )
        engine = service.open_dataset("GrQc").engine()
        assert engine.pair_admission_threshold == 9

    def test_describe_reports_the_knobs(self):
        service = SimRankService(
            ServiceConfig(
                scale=0.05,
                pair_admission_threshold=9,
                backend_config=BackendConfig(epsilon=0.1, seed=0),
            )
        )
        config = service.describe()["config"]
        assert config["pair_admission_threshold"] == 9

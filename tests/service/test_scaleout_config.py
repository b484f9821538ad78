"""Service knobs behind multi-process serving: the per-process cache
budget and prebuilt-index reuse (``ServiceConfig.cache_budget_vectors`` /
``ServiceConfig.index_dir``)."""

from __future__ import annotations

import pytest

from repro.engine import BackendConfig
from repro.graphs import generators
from repro.graphs.datasets import load_dataset
from repro.service import ServiceConfig, SimRankService
from repro.sling import SlingIndex, has_saved_index, save_index

SCALE, SEED = 0.05, 0


class TestCacheBudget:
    def make_service(self, budget):
        return SimRankService(
            ServiceConfig(
                scale=SCALE, seed=SEED, cache_size=128,
                cache_budget_vectors=budget,
            )
        )

    def capacity(self, service, name):
        return service._sessions[name]._cache_capacity

    def test_budget_divides_across_open_datasets(self):
        service = self.make_service(8)
        service.open_dataset("GrQc")
        assert self.capacity(service, "GrQc") == 8
        service.open_dataset("AS")
        assert self.capacity(service, "GrQc") == 4
        assert self.capacity(service, "AS") == 4
        service.close_dataset("AS")
        assert self.capacity(service, "GrQc") == 8  # reclaimed on close
        service.close_all()

    def test_capacities_sum_to_exactly_the_budget(self):
        # The remainder goes one vector each to the earliest-opened sessions;
        # a budget below the session count leaves the latest ones cache-off.
        for budget, count, expected in ((3, 4, [1, 1, 1, 0]), (8, 3, [3, 3, 2])):
            service = self.make_service(budget)
            names = [f"toy{i}" for i in range(count)]
            for name in names:
                service.open_dataset(name, graph=generators.cycle(4))
            shares = [self.capacity(service, name) for name in names]
            assert shares == expected
            assert sum(shares) == budget
            service.close_all()

    def test_budget_caps_engines_built_before_the_rebalance(self):
        service = self.make_service(4)
        session = service.open_dataset("GrQc")
        engine = session.engine()  # built at capacity 4
        service.open_dataset("AS")  # rebalance to 2 resizes the live engine
        assert engine._cache_size == 2
        service.close_all()

    def test_no_budget_keeps_plain_cache_size(self):
        service = self.make_service(None)
        service.open_dataset("GrQc")
        service.open_dataset("AS")
        assert self.capacity(service, "GrQc") == 128
        service.close_all()

    def test_describe_reports_the_budget(self):
        service = self.make_service(16)
        config = service.describe()["config"]
        assert config["cache_budget_vectors"] == 16
        assert config["index_dir"] is None
        service.close_all()


class TestPrebuiltIndexReuse:
    @pytest.fixture
    def index_root(self, tmp_path):
        graph = load_dataset("GrQc", scale=SCALE, seed=SEED)
        index = SlingIndex(graph, c=0.6, epsilon=0.1, seed=SEED).build()
        directory = tmp_path / "GrQc"
        save_index(index, directory)
        assert has_saved_index(directory)
        return tmp_path

    def service(self, index_dir, backend="sling-disk"):
        return SimRankService(
            ServiceConfig(
                scale=SCALE, seed=SEED, backend=backend,
                index_dir=str(index_dir) if index_dir is not None else None,
                backend_config=BackendConfig(epsilon=0.1, seed=SEED),
            )
        )

    def test_saved_index_is_attached_not_rebuilt(self, index_root):
        meta = (index_root / "GrQc" / "sling_meta.json").read_bytes()
        service = self.service(index_root)
        engine = service.open_dataset("GrQc").engine()
        assert engine.backend.name == "sling-disk"
        # Attaching must not have rewritten the saved index files.
        assert (index_root / "GrQc" / "sling_meta.json").read_bytes() == meta
        service.close_all()

    def test_answers_match_a_fresh_build(self, index_root):
        reused = self.service(index_root)
        fresh = self.service(None)
        try:
            source = 3
            assert reused.open_dataset("GrQc").engine().single_source(
                source
            ) == pytest.approx(
                fresh.open_dataset("GrQc").engine().single_source(source)
            )
        finally:
            reused.close_all()
            fresh.close_all()

    def test_missing_saved_index_falls_back_to_normal_build(self, tmp_path):
        service = self.service(tmp_path)  # empty root: nothing saved
        engine = service.open_dataset("GrQc").engine()
        assert engine.single_pair(0, 1) >= 0.0
        service.close_all()

"""Unit tests for the figure-reproduction experiment drivers.

These run on drastically scaled-down graphs (scale=0.05) so the whole module
stays fast; the benchmark harness runs the same drivers at larger scales.
"""

from __future__ import annotations

import pytest

from repro.engine import BackendConfig, create_backend
from repro.evaluation import experiments
from repro.exceptions import ParameterError

#: Tiny configuration shared by all driver tests.
CONFIG = BackendConfig(epsilon=0.1, seed=0, mc_num_walks=50)
SCALE = 0.05
DATASETS = ("GrQc",)


def _load_graph():
    return experiments._service(SCALE, CONFIG).open_dataset("GrQc").graph


class TestFigureLabels:
    """The drivers name methods by the paper's figure labels, which the
    engine's registry resolves to backends."""

    def test_known_methods(self):
        graph = _load_graph()
        for name in ("SLING", "Linearize", "MC", "MC-sqrtc"):
            method = create_backend(name, graph, CONFIG)
            assert 0.0 <= method.single_pair(0, 1) <= 1.0

    def test_unknown_method_rejected(self):
        graph = _load_graph()
        with pytest.raises(ParameterError):
            create_backend("FooBar", graph, CONFIG)


class TestQueryExperiments:
    def test_single_pair_experiment_rows(self):
        rows = experiments.single_pair_experiment(
            DATASETS, methods=("SLING", "Linearize"), num_queries=10,
            scale=SCALE, config=CONFIG,
        )
        assert len(rows) == 2
        assert {row.method for row in rows} == {"SLING", "Linearize"}
        assert all(row.num_queries == 10 for row in rows)
        assert all(row.average_milliseconds >= 0.0 for row in rows)

    def test_single_pair_experiment_times_the_backend_alone(self, monkeypatch):
        """One backend call per pair: the engine records no query and caches
        nothing, so the timing is the backend's own."""
        services = []
        make = experiments._service

        def recording_service(scale, config):
            services.append(make(scale, config))
            return services[-1]

        monkeypatch.setattr(experiments, "_service", recording_service)
        experiments.single_pair_experiment(
            DATASETS, methods=("SLING", "Linearize"), num_queries=10,
            scale=SCALE, config=CONFIG,
        )
        (service,) = services
        session = service.open_dataset("GrQc")
        assert len(session.backends()) == 2
        for backend in session.backends():
            engine = session.engine(backend)
            assert engine.statistics.total_queries == 0
            assert engine.cached_nodes() == []

    def test_single_source_experiment_includes_both_sling_variants(self):
        rows = experiments.single_source_experiment(
            DATASETS,
            methods=("SLING", "SLING (Alg. 3)"),
            num_queries=3,
            scale=SCALE,
            config=CONFIG,
        )
        assert {row.method for row in rows} == {"SLING", "SLING (Alg. 3)"}

    def test_preprocessing_and_space_experiments(self):
        pre_rows = experiments.preprocessing_experiment(
            DATASETS, methods=("SLING", "MC"), scale=SCALE, config=CONFIG
        )
        space_rows = experiments.space_experiment(
            DATASETS, methods=("SLING", "MC"), scale=SCALE, config=CONFIG
        )
        assert all(row.seconds > 0 for row in pre_rows)
        assert all(row.megabytes > 0 for row in space_rows)


class TestAccuracyExperiments:
    def test_accuracy_experiment_respects_epsilon_for_sling(self):
        rows = experiments.accuracy_experiment(
            DATASETS, methods=("SLING",), num_runs=1, scale=SCALE, config=CONFIG
        )
        assert len(rows) == 1
        assert rows[0].maximum_error <= CONFIG.epsilon

    def test_grouped_error_experiment(self):
        rows = experiments.grouped_error_experiment(
            DATASETS, methods=("SLING",), scale=SCALE, config=CONFIG
        )
        assert len(rows) == 1
        assert rows[0].groups.s1_count >= 0

    def test_top_k_experiment(self):
        rows = experiments.top_k_experiment(
            DATASETS, methods=("SLING",), k_values=(10, 20), scale=SCALE, config=CONFIG
        )
        assert len(rows) == 2
        assert all(0.0 <= row.precision <= 1.0 for row in rows)
        assert {row.k for row in rows} == {10, 20}

"""Routing tests for the engine planner."""

from __future__ import annotations

import pytest

from repro.engine import (
    BackendConfig,
    create_engine,
    estimate_sling_index_bytes,
    plan_backend,
)
from repro.engine.planner import POWER_METHOD_MAX_NODES
from repro.exceptions import ParameterError
from repro.graphs import generators


@pytest.fixture(scope="module")
def graph():
    return generators.two_level_community(2, 10, seed=5)


class TestEstimate:
    def test_estimate_is_positive_and_covers_corrections(self, graph):
        estimate = estimate_sling_index_bytes(graph)
        assert estimate >= 8 * graph.num_nodes

    def test_estimate_grows_as_epsilon_shrinks(self, graph):
        loose = estimate_sling_index_bytes(graph, epsilon=0.2)
        tight = estimate_sling_index_bytes(graph, epsilon=0.025)
        assert tight > loose


class TestPlanning:
    def test_unconstrained_picks_in_memory_sling(self, graph):
        plan = plan_backend(graph)
        assert plan.backend == "sling"
        assert plan.memory_budget_bytes is None

    def test_large_budget_picks_in_memory_sling(self, graph):
        plan = plan_backend(graph, memory_budget_bytes=1 << 30)
        assert plan.backend == "sling"

    def test_tight_budget_falls_back_to_disk(self, graph):
        estimate = estimate_sling_index_bytes(graph)
        budget = max(8 * graph.num_nodes, estimate // 100)
        plan = plan_backend(graph, memory_budget_bytes=budget)
        assert plan.backend == "sling-disk"
        assert "disk" in plan.reason

    def test_starved_budget_falls_back_to_baseline(self, graph):
        plan = plan_backend(graph, memory_budget_bytes=4)
        assert plan.backend == "power"  # graph is tiny, exact fallback wins
        # The fallback exceeds the budget; the plan must say so.
        assert "not honoured" in plan.reason

    def test_starved_budget_uses_montecarlo_on_larger_graphs(self):
        big = generators.preferential_attachment(
            POWER_METHOD_MAX_NODES + 10, 2, seed=1
        )
        plan = plan_backend(big, memory_budget_bytes=4)
        assert plan.backend == "montecarlo_sqrtc"
        assert "not honoured" in plan.reason

    def test_prefer_short_circuits_planning(self, graph):
        plan = plan_backend(graph, memory_budget_bytes=4, prefer="linearize")
        assert plan.backend == "linearize"
        assert "explicitly requested" in plan.reason

    def test_prefer_accepts_figure_aliases(self, graph):
        assert plan_backend(graph, prefer="MC").backend == "montecarlo"

    def test_prefer_unknown_backend_rejected(self, graph):
        with pytest.raises(ParameterError):
            plan_backend(graph, prefer="FooBar")

    def test_plan_as_dict_round_trips(self, graph):
        plan = plan_backend(graph, memory_budget_bytes=123456)
        payload = plan.as_dict()
        assert payload["backend"] == plan.backend
        assert payload["memory_budget_bytes"] == 123456


class TestCreateEngine:
    def test_engine_carries_plan_and_answers_queries(self, graph):
        engine = create_engine(
            graph, config=BackendConfig(epsilon=0.1, seed=0), cache_size=8
        )
        assert engine.plan.backend == "sling"
        assert 0.0 <= engine.single_pair(0, 1) <= 1.0
        assert engine.backend.is_built

    def test_engine_respects_explicit_backend(self, graph):
        engine = create_engine(
            graph, backend="power", config=BackendConfig(epsilon=0.1)
        )
        assert engine.plan.backend == "power"
        assert engine.backend.name == "power"

    def test_hand_built_engine_has_no_plan(self, graph):
        from repro.engine import QueryEngine, create_backend

        engine = QueryEngine(create_backend("power", graph, BackendConfig(epsilon=0.1)))
        assert engine.plan is None

"""Unit tests for correction-factor estimation (Equation 14, Algorithms 1/4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs import DiGraph, generators
from repro.sling import (
    SqrtCWalker,
    estimate_all_correction_factors,
    estimate_correction_factor,
    exact_correction_factors,
)
from repro.baselines import simrank_matrix


class TestStructuralShortCircuits:
    def test_zero_in_degree_gives_one(self, decay):
        graph = generators.path(3)  # node 0 has no in-neighbours
        walker = SqrtCWalker(graph, c=decay, seed=0)
        estimate = estimate_correction_factor(walker, 0, 0.01, 0.01)
        assert estimate.value == 1.0
        assert estimate.num_samples == 0

    def test_single_in_neighbor_gives_one_minus_c(self, decay):
        graph = generators.path(3)  # node 1 has exactly one in-neighbour
        walker = SqrtCWalker(graph, c=decay, seed=0)
        estimate = estimate_correction_factor(walker, 1, 0.01, 0.01)
        assert estimate.value == pytest.approx(1.0 - decay)
        assert estimate.num_samples == 0


class TestExactCases:
    """Nodes whose later meetings ``Y`` cannot happen need no trials."""

    def test_shared_grandparent_is_exact(self, decay):
        # Leaves 1 and 2 share their only in-neighbour 0, which has none:
        # the walks from node 3 can meet at step 1 and never later.
        graph = DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        exact = exact_correction_factors(
            graph, simrank_matrix(graph, c=decay, num_iterations=50), decay
        )
        walker = SqrtCWalker(graph, c=decay, seed=1)
        estimate = estimate_correction_factor(walker, 3, epsilon_d=0.02, delta_d=0.01)
        assert estimate.num_samples == 0
        assert estimate.value == pytest.approx(exact[3], abs=1e-12)

    def test_parents_without_parents_give_mu_zero(self, inward_star, decay):
        walker = SqrtCWalker(inward_star, c=decay, seed=0)
        estimate = estimate_correction_factor(walker, 0, 0.005, 0.01)
        assert estimate.num_samples == 0
        assert estimate.value == pytest.approx(1.0 - decay / 5, abs=1e-12)

    def test_three_layer_graph_is_exact_everywhere(self, decay):
        # Layer 2 draws parents from layer 1, layer 1 from the sources in
        # layer 0, so every overlap term of µ₁ is exercised and Y is 0.
        rng = np.random.default_rng(0)
        edges = [
            (int(parent), child)
            for child in range(8, 20)
            for parent in rng.choice(8, size=3, replace=False)
        ] + [
            (int(parent), child)
            for child in range(20, 28)
            for parent in rng.choice(np.arange(8, 20), size=4, replace=False)
        ]
        graph = DiGraph(28, edges)
        exact = exact_correction_factors(
            graph, simrank_matrix(graph, c=decay, num_iterations=50), decay
        )
        walker = SqrtCWalker(graph, c=decay, seed=0)
        for node in graph.nodes():
            estimate = estimate_correction_factor(walker, node, 0.005, 0.01)
            assert estimate.num_samples == 0
            assert estimate.value == pytest.approx(exact[node], abs=1e-12)

    def test_loose_tolerance_draws_no_trials(self, decay):
        # ε_d / c² ≥ 1: any estimate of Y in [0, 1] meets the tolerance.
        graph = generators.complete(5)
        exact = exact_correction_factors(
            graph, simrank_matrix(graph, c=decay, num_iterations=50), decay
        )
        walker = SqrtCWalker(graph, c=decay, seed=0)
        estimate = estimate_correction_factor(walker, 0, decay * decay, 0.01)
        assert estimate.num_samples == 0
        assert abs(estimate.value - exact[0]) <= decay * decay


class TestSampledEstimates:
    def test_all_nodes_within_epsilon_of_exact(self, community_graph, decay):
        truth = simrank_matrix(community_graph, c=decay, num_iterations=40)
        exact = exact_correction_factors(community_graph, truth, decay)
        walker = SqrtCWalker(community_graph, c=decay, seed=2)
        estimated = estimate_all_correction_factors(
            walker, epsilon_d=0.03, delta_d=0.001
        )
        assert np.all(np.abs(estimated - exact) <= 0.03 + 1e-9)

    def test_fixed_and_adaptive_agree(self, decay):
        graph = generators.complete(5)
        walker_a = SqrtCWalker(graph, c=decay, seed=3)
        walker_b = SqrtCWalker(graph, c=decay, seed=3)
        adaptive = estimate_correction_factor(
            walker_a, 0, 0.03, 0.01, adaptive=True
        ).value
        fixed = estimate_correction_factor(
            walker_b, 0, 0.03, 0.01, adaptive=False
        ).value
        assert adaptive == pytest.approx(fixed, abs=0.06)

    def test_values_always_in_unit_interval(self, scale_free_graph, decay):
        walker = SqrtCWalker(scale_free_graph, c=decay, seed=4)
        values = estimate_all_correction_factors(walker, 0.05, 0.01)
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)

    def test_subset_of_nodes_leaves_others_nan(self, decay):
        graph = generators.cycle(6)
        walker = SqrtCWalker(graph, c=decay, seed=5)
        values = estimate_all_correction_factors(walker, 0.05, 0.01, nodes=[0, 1])
        assert not np.isnan(values[0]) and not np.isnan(values[1])
        assert np.isnan(values[2:]).all()

    def test_invalid_parameters(self, decay):
        graph = generators.cycle(4)
        walker = SqrtCWalker(graph, c=decay, seed=0)
        with pytest.raises(ParameterError):
            estimate_correction_factor(walker, 0, epsilon_d=0.0, delta_d=0.1)
        with pytest.raises(ParameterError):
            estimate_correction_factor(walker, 0, epsilon_d=0.1, delta_d=0.0)


class TestExactCorrectionFactors:
    def test_cycle_nodes_have_one_minus_c(self, directed_cycle, decay):
        truth = simrank_matrix(directed_cycle, c=decay, num_iterations=40)
        exact = exact_correction_factors(directed_cycle, truth, decay)
        # Every cycle node has exactly one in-neighbour: d = 1 - c.
        assert np.allclose(exact, 1.0 - decay)

    def test_zero_in_degree_nodes_have_one(self, dag_graph, decay):
        truth = simrank_matrix(dag_graph, c=decay, num_iterations=40)
        exact = exact_correction_factors(dag_graph, truth, decay)
        sources = np.flatnonzero(dag_graph.in_degrees() == 0)
        assert np.allclose(exact[sources], 1.0)

    def test_reconstructs_simrank_via_lemma4(self, decay):
        # Lemma 4/5: S == sum_l c^l (P^l)^T D P^l with D = diag(d_k).
        graph = generators.two_level_community(2, 6, seed=5)
        truth = simrank_matrix(graph, c=decay, num_iterations=60)
        exact = exact_correction_factors(graph, truth, decay)
        transition = graph.transition_matrix().toarray()
        reconstruction = np.zeros_like(truth)
        power = np.eye(graph.num_nodes)
        for level in range(60):
            reconstruction += (decay**level) * power.T @ np.diag(exact) @ power
            power = transition @ power
        assert np.allclose(reconstruction, truth, atol=1e-3)

    def test_wrong_matrix_shape_rejected(self, decay):
        graph = generators.cycle(4)
        with pytest.raises(ParameterError):
            exact_correction_factors(graph, np.eye(3), decay)

    def test_invalid_decay_rejected(self):
        graph = generators.cycle(4)
        with pytest.raises(ParameterError):
            exact_correction_factors(graph, np.eye(4), 1.5)


#: Graph shapes of the accuracy sweep, each at n ≈ 150.
SWEEP_GRAPHS = {
    "preferential_attachment": lambda: generators.preferential_attachment(
        150, 3, seed=1
    ),
    "small_world": lambda: generators.small_world(
        150, 4, rewire_probability=0.2, seed=2
    ),
    "copying_model": lambda: generators.copying_model(150, 4, seed=3),
    "random_dag": lambda: generators.random_dag(150, 600, seed=4),
    "inward_star": lambda: generators.star(149, inward=True),
    "two_level_community": lambda: generators.two_level_community(5, 30, seed=5),
    "erdos_renyi": lambda: generators.erdos_renyi(150, 750, seed=6),
}


@pytest.fixture(scope="module")
def sweep_cases(decay):
    """Each sweep graph with its exact correction factors, built once."""
    cases = {}
    for name, make in SWEEP_GRAPHS.items():
        graph = make()
        truth = simrank_matrix(graph, c=decay, num_iterations=50)
        cases[name] = (graph, exact_correction_factors(graph, truth, decay))
    return cases


class TestAccuracySweep:
    """Every d̃_k within ε_d of the exact value, across graph shapes."""

    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("epsilon_d", [0.005, 0.02])
    @pytest.mark.parametrize("shape", sorted(SWEEP_GRAPHS))
    def test_max_error_within_epsilon_d(
        self, sweep_cases, decay, shape, epsilon_d, adaptive
    ):
        graph, exact = sweep_cases[shape]
        walker = SqrtCWalker(graph, c=decay, seed=7)
        estimated = estimate_all_correction_factors(
            walker, epsilon_d, 1e-3, adaptive=adaptive
        )
        assert np.abs(estimated - exact).max() <= epsilon_d

"""Unit tests for Theorem-1 parameter derivation."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ParameterError
from repro.sling import SlingParameters, theorem1_error_bound


class TestTheorem1Bound:
    def test_bound_formula(self):
        c = 0.6
        sqrt_c = math.sqrt(c)
        bound = theorem1_error_bound(c, 0.005, 0.000725)
        expected = 0.005 / 0.4 + 2 * sqrt_c * 0.000725 / ((1 - sqrt_c) * 0.4)
        assert bound == pytest.approx(expected)

    def test_paper_setting_satisfies_bound(self):
        # Section 7.1: eps_d = 0.005, theta = 0.000725 ensure eps < 0.025.
        assert theorem1_error_bound(0.6, 0.005, 0.000725) < 0.025


class TestFromAccuracyTarget:
    def test_derived_parameters_satisfy_theorem1(self):
        params = SlingParameters.from_accuracy_target(num_nodes=1000, epsilon=0.025)
        assert params.guaranteed_error <= params.epsilon + 1e-12

    @pytest.mark.parametrize("epsilon", [0.01, 0.025, 0.05, 0.1, 0.3])
    def test_various_epsilons(self, epsilon):
        params = SlingParameters.from_accuracy_target(num_nodes=500, epsilon=epsilon)
        assert params.guaranteed_error <= epsilon + 1e-12
        assert 0 < params.epsilon_d < epsilon
        assert params.theta > 0

    def test_error_split_moves_budget(self):
        lenient = SlingParameters.from_accuracy_target(
            num_nodes=100, epsilon=0.05, error_split=0.8
        )
        strict = SlingParameters.from_accuracy_target(
            num_nodes=100, epsilon=0.05, error_split=0.2
        )
        assert lenient.epsilon_d > strict.epsilon_d
        assert lenient.theta < strict.theta

    def test_default_delta_is_one_over_n(self):
        params = SlingParameters.from_accuracy_target(num_nodes=200, epsilon=0.05)
        assert params.delta == pytest.approx(1.0 / 200)
        assert params.delta_d == pytest.approx(1.0 / (200 * 200))

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            SlingParameters.from_accuracy_target(num_nodes=0, epsilon=0.05)
        with pytest.raises(ParameterError):
            SlingParameters.from_accuracy_target(
                num_nodes=10, epsilon=0.05, error_split=1.0
            )

    def test_sqrt_c_property(self):
        params = SlingParameters.from_accuracy_target(num_nodes=10, c=0.81, epsilon=0.1)
        assert params.sqrt_c == pytest.approx(0.9)


class TestExplicitConstruction:
    def test_paper_defaults(self):
        # The experimental setting of Section 7.1 satisfies Theorem 1.
        params = SlingParameters(
            c=0.6, epsilon=0.025, delta=1e-4, epsilon_d=0.005, theta=0.000725,
            delta_d=1e-8,
        )
        assert params.guaranteed_error <= 0.025

    def test_violating_theorem1_is_rejected(self):
        with pytest.raises(ParameterError):
            SlingParameters(
                c=0.6, epsilon=0.01, delta=0.1, epsilon_d=0.01, theta=0.01, delta_d=0.01
            )

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ParameterError):
            SlingParameters(
                c=1.2, epsilon=0.05, delta=0.1, epsilon_d=0.01, theta=0.001, delta_d=0.01
            )
        with pytest.raises(ParameterError):
            SlingParameters(
                c=0.6, epsilon=0.05, delta=0.1, epsilon_d=0.01, theta=-0.001, delta_d=0.01
            )
        with pytest.raises(ParameterError):
            SlingParameters(
                c=0.6, epsilon=0.05, delta=0.1, epsilon_d=0.01, theta=0.001, delta_d=0.5
            )

    def test_scaled_rederives_for_new_epsilon(self):
        params = SlingParameters.from_accuracy_target(num_nodes=100, epsilon=0.05)
        relaxed = params.scaled(epsilon=0.1)
        assert relaxed.epsilon == 0.1
        assert relaxed.epsilon_d == pytest.approx(2 * params.epsilon_d)
        assert relaxed.theta == pytest.approx(2 * params.theta)
        assert relaxed.guaranteed_error <= 0.1 + 1e-12

    def test_frozen_dataclass(self):
        params = SlingParameters.from_accuracy_target(num_nodes=100)
        with pytest.raises(AttributeError):
            params.epsilon = 0.5  # type: ignore[misc]

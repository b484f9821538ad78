"""Parameter derivation for the SLING index (Theorem 1).

Theorem 1 states that if each correction factor is estimated with error at
most ``ε_d`` (failure probability ``δ_d ≤ δ/n``) and the hitting-probability
threshold is ``θ``, then every SimRank score returned by Algorithm 3 has
additive error at most ``ε`` provided

    ε_d / (1 - c)  +  2√c · θ / ((1 - √c)(1 - c))  ≤  ε.

:class:`SlingParameters` turns a user-facing accuracy target ``(ε, δ)`` into
the internal knobs ``(ε_d, θ, δ_d)`` by splitting the error budget, and
validates that the resulting configuration indeed satisfies the inequality.
The split mirrors the paper's experimental setting: with ``c = 0.6``,
``ε = 0.025``, ``ε_d = 0.005`` and ``θ = 0.000725`` the bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import ParameterError

__all__ = ["SlingParameters", "theorem1_error_bound"]


def theorem1_error_bound(c: float, epsilon_d: float, theta: float) -> float:
    """Left-hand side of the Theorem-1 inequality (the guaranteed error)."""
    sqrt_c = math.sqrt(c)
    return epsilon_d / (1.0 - c) + 2.0 * sqrt_c * theta / ((1.0 - sqrt_c) * (1.0 - c))


@dataclass(frozen=True)
class SlingParameters:
    """Fully resolved parameter set of a SLING index build.

    Attributes
    ----------
    c:
        SimRank decay factor.
    epsilon:
        Worst-case additive error guaranteed for every returned score.
    delta:
        Failure probability of the whole preprocessing phase.
    epsilon_d:
        Additive error allowed in each correction factor ``d̃_k``.
    theta:
        Hitting-probability pruning threshold ``θ``.
    delta_d:
        Per-node failure probability (``δ / n`` by Theorem 1).
    """

    c: float
    epsilon: float
    delta: float
    epsilon_d: float
    theta: float
    delta_d: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ParameterError(f"decay factor c must be in (0, 1), got {self.c}")
        if not 0.0 < self.epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.epsilon_d < 1.0:
            raise ParameterError(f"epsilon_d must be in (0, 1), got {self.epsilon_d}")
        if self.theta <= 0.0:
            raise ParameterError(f"theta must be positive, got {self.theta}")
        if not 0.0 < self.delta_d <= self.delta:
            raise ParameterError(
                f"delta_d must be in (0, delta], got {self.delta_d} (delta={self.delta})"
            )
        bound = theorem1_error_bound(self.c, self.epsilon_d, self.theta)
        if bound > self.epsilon + 1e-12:
            raise ParameterError(
                "the Theorem-1 inequality is violated: "
                f"epsilon_d/(1-c) + 2*sqrt(c)*theta/((1-sqrt(c))(1-c)) = {bound:.6f} "
                f"> epsilon = {self.epsilon}"
            )

    # ------------------------------------------------------------------ #
    @property
    def sqrt_c(self) -> float:
        """``√c`` — the per-step continuation probability of a √c-walk."""
        return math.sqrt(self.c)

    @property
    def guaranteed_error(self) -> float:
        """The error actually guaranteed by the chosen ``(ε_d, θ)`` pair."""
        return theorem1_error_bound(self.c, self.epsilon_d, self.theta)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_accuracy_target(
        cls,
        *,
        num_nodes: int,
        c: float = 0.6,
        epsilon: float = 0.025,
        delta: float | None = None,
        error_split: float = 0.5,
    ) -> "SlingParameters":
        """Derive ``(ε_d, θ, δ_d)`` from a target ``(ε, δ)``.

        Parameters
        ----------
        num_nodes:
            Number of graph nodes ``n``; ``δ_d`` is set to ``δ / n`` so the
            union bound over all correction factors holds (Theorem 1).
        c, epsilon:
            Decay factor and worst-case error target.
        delta:
            Preprocessing failure probability; the paper's experiments use
            ``δ = 1/n`` (so ``δ_d = 1/n²``), which is the default here.
        error_split:
            Fraction of the error budget assigned to the correction factors;
            the remainder is assigned to the hitting probabilities.
        """
        if num_nodes <= 0:
            raise ParameterError(f"num_nodes must be positive, got {num_nodes}")
        if not 0.0 < error_split < 1.0:
            raise ParameterError(
                f"error_split must be in (0, 1), got {error_split}"
            )
        if delta is None:
            delta = 1.0 / max(2, num_nodes)
        sqrt_c = math.sqrt(c)
        epsilon_d = error_split * epsilon * (1.0 - c)
        theta = (
            (1.0 - error_split)
            * epsilon
            * (1.0 - sqrt_c)
            * (1.0 - c)
            / (2.0 * sqrt_c)
        )
        delta_d = delta / num_nodes
        return cls(
            c=c,
            epsilon=epsilon,
            delta=delta,
            epsilon_d=epsilon_d,
            theta=theta,
            delta_d=delta_d,
        )

    def scaled(self, *, epsilon: float) -> "SlingParameters":
        """Return a copy re-derived for a different accuracy target ``ε``."""
        ratio = epsilon / self.epsilon
        return SlingParameters(
            c=self.c,
            epsilon=epsilon,
            delta=self.delta,
            epsilon_d=self.epsilon_d * ratio,
            theta=self.theta * ratio,
            delta_d=self.delta_d,
        )

"""The correctness gate: served answers against an independent answer key.

Two keys:

* :class:`PowerTruth` — the power method's all-pairs SimRank matrix (40
  iterations, truncation error ~1e-9).  Served values must sit within the
  index's bound of it: ε for a clean index, ``eps_stale`` while dirty.
* :class:`ReferenceTruth` — an in-process :class:`~repro.sling.SlingIndex`
  built with the served index's parameters and seed, for graphs too large
  for the power method's dense n × n iterations.  Served values must match
  it to float precision.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import simrank_matrix
from repro.sling import SlingIndex

#: SimRank decay every served index uses (the paper's default).
DECAY = 0.6
#: Slack for float rounding when comparing against a bound.
FLOAT_SLACK = 1e-9


class PowerTruth:
    def __init__(self, graphs: dict) -> None:
        self._graphs = graphs
        self._matrices: dict = {}

    def _matrix(self, dataset: str) -> np.ndarray:
        if dataset not in self._matrices:
            self._matrices[dataset] = simrank_matrix(
                self._graphs[dataset], c=DECAY, num_iterations=40
            )
        return self._matrices[dataset]

    def row(self, dataset: str, node: int) -> np.ndarray:
        return self._matrix(dataset)[node]

    def pair(self, dataset: str, node_u: int, node_v: int) -> float:
        return float(self._matrix(dataset)[node_u, node_v])


class ReferenceTruth:
    """Answers of in-process indexes; pass ``indexes`` to reuse built ones,
    or ``graphs`` + ``epsilon`` + ``seed`` to build them on first use."""

    def __init__(
        self, *, indexes: dict | None = None, graphs: dict | None = None,
        epsilon: float | None = None, seed: int | None = None,
    ) -> None:
        self._indexes = dict(indexes or {})
        self._graphs = graphs or {}
        self._epsilon = epsilon
        self._seed = seed

    def index(self, dataset: str) -> SlingIndex:
        if dataset not in self._indexes:
            self._indexes[dataset] = SlingIndex(
                self._graphs[dataset], c=DECAY, epsilon=self._epsilon,
                seed=self._seed,
            ).build()
        return self._indexes[dataset]

    def row(self, dataset: str, node: int) -> np.ndarray:
        return self.index(dataset).single_source(node)

    def pair(self, dataset: str, node_u: int, node_v: int) -> float:
        return float(self.index(dataset).single_pair(node_u, node_v))


def answer_error(query, value, truth) -> float:
    """Largest deviation of one served answer from the key.

    For ``top_k`` that is the worse of (a) a returned score's error and (b)
    how far the best node left out beats the last node returned — a correct
    top-k may only miss nodes whose true score is within the bound of it.
    """
    kind = query.kind
    if kind == "single_pair":
        return abs(float(value) - truth.pair(query.dataset, query.node_u, query.node_v))
    row = np.asarray(truth.row(query.dataset, query.node), dtype=np.float64)
    if kind == "single_source":
        served = np.asarray(value, dtype=np.float64)
        if served.shape != row.shape:
            return float("inf")
        return float(np.max(np.abs(served - row)))
    if kind == "top_k":
        expected_len = min(query.k, row.shape[0] - 1)
        if len(value) != expected_len:
            return float("inf")
        if not value:
            return 0.0
        nodes = np.array([entry["node"] for entry in value], dtype=np.int64)
        scores = np.array([entry["score"] for entry in value], dtype=np.float64)
        error = float(np.max(np.abs(scores - row[nodes])))
        left_out = row.copy()
        left_out[nodes] = -np.inf
        left_out[query.node] = -np.inf
        best_missed = float(left_out.max()) if left_out.size else -np.inf
        return max(error, best_missed - float(scores.min()))
    raise ValueError(f"no answer key for query kind {kind!r}")


def answer_distance(query, first, second) -> float:
    """How far two served answers to the same query are apart."""
    if query.kind == "single_pair":
        return abs(float(first) - float(second))
    if query.kind == "single_source":
        return float(np.max(np.abs(np.asarray(first) - np.asarray(second))))
    ordered = [sorted((e["score"] for e in answer), reverse=True) for answer in (first, second)]
    if len(ordered[0]) != len(ordered[1]):
        return float("inf")
    if not ordered[0]:
        return 0.0
    return float(np.max(np.abs(np.asarray(ordered[0]) - np.asarray(ordered[1]))))


def breaches(samples, truth, bound: float) -> list[str]:
    """Messages for every ``(query, value)`` sample off the key by more
    than ``bound``."""
    found = []
    for query, value in samples:
        error = answer_error(query, value, truth)
        if not error <= bound + FLOAT_SLACK:
            found.append(
                f"{query.kind} {query.to_wire()} off by {error:.3g} "
                f"(bound {bound:.3g})"
            )
    return found

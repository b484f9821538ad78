"""Table 1 (empirical): SLING's query time and space as the error target varies.

Table 1 of the paper states that SLING answers single-pair queries in O(1/ε)
time using O(n/ε) space.  This benchmark sweeps ε and records both quantities
so the asymptotic claim can be checked empirically: halving ε should roughly
double the average hitting-set size (and with it the index size), while the
query time grows at most linearly in 1/ε.
"""

from __future__ import annotations

import pytest

from repro.engine import BackendConfig, create_backend
from repro.evaluation import random_pairs

from _config import BENCH_SCALE

EPSILONS = (0.2, 0.1, 0.05)
DATASET = "Enron"
PAIRS_PER_BATCH = 50


@pytest.mark.parametrize("epsilon", EPSILONS)
def bench_query_time_vs_epsilon(benchmark, graph_cache, epsilon):
    """Single-pair query batch time at a given accuracy target."""
    graph = graph_cache(DATASET, BENCH_SCALE)
    backend = create_backend("SLING", graph, BackendConfig(epsilon=epsilon, seed=0))
    pairs = random_pairs(graph, PAIRS_PER_BATCH, seed=3)

    def run_batch() -> None:
        for node_u, node_v in pairs:
            backend.single_pair(node_u, node_v)

    benchmark(run_batch)
    benchmark.extra_info["table"] = "1"
    benchmark.extra_info["dataset"] = DATASET
    benchmark.extra_info["epsilon"] = epsilon
    benchmark.extra_info["index_megabytes"] = round(
        backend.index_size_bytes() / (1024.0 * 1024.0), 4
    )
    benchmark.extra_info["avg_hitting_set_size"] = round(
        backend.index.average_set_size(), 2
    )

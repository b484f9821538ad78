"""Figure 9 (Appendix C): preprocessing time vs. number of worker processes.

SLING's preprocessing is embarrassingly parallel (Section 5.4); the paper
observes near-linear speed-up up to 16 threads.  Worker counts here are capped
by the container's CPU count; the pure-Python workers also pay a pickling /
process-start overhead that the authors' pthread implementation does not, so
the speed-up is sublinear on the small stand-ins but must not regress.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.sling import SlingIndex, SlingParameters

from _config import BENCH_EPSILON, LARGE_DATASETS

# Worker counts to sweep.  The sweep always includes multi-worker points so
# the parallel machinery is exercised even on single-core machines; the
# speed-up itself obviously needs as many physical cores as workers (the
# recorded run of this repository had a single core available — see
# EXPERIMENTS.md).
WORKER_COUNTS = (1, 2, 4)


@pytest.mark.parametrize("dataset", LARGE_DATASETS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def bench_parallel_preprocessing(benchmark, graph_cache, dataset, workers):
    """Full preprocessing (corrections + hitting sets) with N workers."""
    graph = graph_cache(dataset)
    params = SlingParameters.from_accuracy_target(
        num_nodes=graph.num_nodes, epsilon=BENCH_EPSILON
    )

    def build() -> float:
        start = time.perf_counter()
        SlingIndex(graph, parameters=params, seed=0).build(workers=workers)
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["figure"] = "9"
    benchmark.extra_info["dataset"] = dataset
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["available_cpus"] = os.cpu_count() or 1
    benchmark.extra_info["build_seconds"] = round(float(elapsed), 4)
    benchmark.extra_info["nodes"] = graph.num_nodes

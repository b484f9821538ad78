"""Figure 3: preprocessing (index construction) cost of each method.

The paper reports that Linearize preprocesses faster than SLING, which in turn
preprocesses faster than MC at its full walk budget.  Builds are measured with
a single round (they are far too expensive to repeat in the calibration loop
pytest-benchmark normally runs).
"""

from __future__ import annotations

import pytest

from repro.engine import create_backend

from _config import ALL_DATASETS, TIMING_CONFIG

METHODS = ("SLING", "Linearize", "MC")


@pytest.mark.parametrize("dataset", ALL_DATASETS)
@pytest.mark.parametrize("method_name", METHODS)
def bench_preprocessing(benchmark, graph_cache, dataset, method_name):
    """Index construction time of one method on one dataset (Figure 3)."""
    graph = graph_cache(dataset)
    method = benchmark.pedantic(
        lambda: create_backend(method_name, graph, TIMING_CONFIG),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["figure"] = "3"
    benchmark.extra_info["dataset"] = dataset
    benchmark.extra_info["method"] = method_name
    benchmark.extra_info["nodes"] = graph.num_nodes
    benchmark.extra_info["edges"] = graph.num_edges
    benchmark.extra_info["index_megabytes"] = round(
        method.index_size_bytes() / (1024.0 * 1024.0), 4
    )

"""Shared fixtures for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` module regenerates one figure (or table) of the paper's
evaluation on the synthetic dataset stand-ins.  Index builds are expensive, so
they are cached for the whole session by :func:`method_cache`; non-timing
outputs (index sizes, error tables) are attached to the benchmark records via
``extra_info`` and printed so they land in ``bench_output.txt``.

Tuning knobs live in :mod:`_config` (``REPRO_BENCH_SCALE``,
``REPRO_BENCH_EPSILON`` environment variables).
"""

from __future__ import annotations

import pytest

from repro.engine import BackendConfig, create_backend
from repro.graphs import datasets

from _config import BENCH_SCALE


@pytest.fixture(scope="session")
def graph_cache():
    """Session cache of dataset stand-ins keyed by (name, scale)."""
    cache: dict[tuple[str, float], object] = {}

    def load(name: str, scale: float = BENCH_SCALE):
        key = (name, scale)
        if key not in cache:
            cache[key] = datasets.load_dataset(name, scale=scale, seed=0)
        return cache[key]

    return load


@pytest.fixture(scope="session")
def method_cache(graph_cache):
    """Session cache of built methods keyed by (dataset, method, epsilon, scale)."""
    cache: dict[tuple[str, str, float, float], object] = {}

    def build(
        dataset: str,
        method: str,
        config: BackendConfig,
        scale: float = BENCH_SCALE,
    ):
        key = (dataset, method, config.epsilon, scale)
        if key not in cache:
            graph = graph_cache(dataset, scale)
            cache[key] = create_backend(method, graph, config)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def truth_cache():
    """Session cache of power-method ground truth for the accuracy figures."""
    from repro.evaluation import GroundTruthCache

    return GroundTruthCache()

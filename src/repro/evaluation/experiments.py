"""Experiment drivers that regenerate every figure of the paper's evaluation.

Each ``*_experiment`` function reproduces one figure (or table) of Section 7 /
Appendix C on the synthetic dataset stand-ins, and returns a list of plain
dataclass rows that :mod:`repro.evaluation.reporting` renders as text tables.
The benchmark harness under ``benchmarks/`` is a thin wrapper around these
functions, so the same code path backs both ``pytest --benchmark-only`` runs
and ad-hoc exploration from the examples.

Every driver takes one :class:`~repro.engine.BackendConfig` and reaches each
method through the engine's backend registry (:func:`~repro.engine.create_backend`
or a service session), so the paper's figure labels ("SLING", "Linearize",
"MC", "MC-sqrtc") name the same backends the CLI and the server serve.

Scaling note
------------
The paper's numbers come from a C++ implementation on multi-million-node
graphs; here both the graphs and the Monte-Carlo walk counts are scaled down
(see DESIGN.md).  The *relative* behaviour — which method wins, by what rough
factor, and where the trends cross — is what these drivers reproduce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from ..engine import BackendConfig, SlingBackend, create_backend
from ..graphs import datasets
from ..service import ServiceConfig, SimRankService
from .ground_truth import GroundTruthCache
from .metrics import GroupedErrors, grouped_errors, max_error, top_k_precision
from .timing import time_callable
from .workloads import random_pairs, random_sources

__all__ = [
    "QueryCostRow",
    "PreprocessingRow",
    "SpaceRow",
    "AccuracyRow",
    "GroupedErrorRow",
    "TopKRow",
    "single_pair_experiment",
    "single_source_experiment",
    "preprocessing_experiment",
    "space_experiment",
    "accuracy_experiment",
    "grouped_error_experiment",
    "top_k_experiment",
    "DEFAULT_SMALL_SCALE",
]

#: Default graph scale for experiments that must stay quick (tests, examples).
DEFAULT_SMALL_SCALE = 0.25


def _service(scale: float, config: BackendConfig) -> SimRankService:
    """A service whose dataset sessions carry cache-disabled engines, so the
    figure timings measure the backend itself rather than the engine's cache.

    The experiment drivers address datasets through service sessions like
    every other consumer; one engine per (dataset, method) is built lazily
    and reused across the queries of that cell.
    """
    return SimRankService(
        ServiceConfig(
            cache_size=0,
            scale=scale,
            seed=config.seed,
            backend_config=config,
        )
    )


# --------------------------------------------------------------------------- #
# Figure 1: single-pair query cost
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryCostRow:
    """One (dataset, method) point of Figures 1-2."""

    dataset: str
    method: str
    num_queries: int
    average_milliseconds: float


def single_pair_experiment(
    dataset_names: Sequence[str],
    *,
    methods: Sequence[str] = ("SLING", "Linearize", "MC"),
    num_queries: int = 100,
    scale: float = DEFAULT_SMALL_SCALE,
    config: BackendConfig = BackendConfig(),
) -> list[QueryCostRow]:
    """Figure 1: average single-pair query time per dataset and method."""
    service = _service(scale, config)
    rows: list[QueryCostRow] = []
    for dataset in dataset_names:
        session = service.open_dataset(dataset)
        pairs = random_pairs(session.graph, num_queries, seed=config.seed)
        for method_name in methods:
            backend = session.engine(method_name).backend
            start = time.perf_counter()
            for node_u, node_v in pairs:
                backend.single_pair(node_u, node_v)
            elapsed = time.perf_counter() - start
            rows.append(
                QueryCostRow(
                    dataset=dataset,
                    method=method_name,
                    num_queries=len(pairs),
                    average_milliseconds=1000.0 * elapsed / max(1, len(pairs)),
                )
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 2: single-source query cost
# --------------------------------------------------------------------------- #
def single_source_experiment(
    dataset_names: Sequence[str],
    *,
    methods: Sequence[str] = ("SLING", "SLING (Alg. 3)", "Linearize", "MC"),
    num_queries: int = 20,
    scale: float = DEFAULT_SMALL_SCALE,
    config: BackendConfig = BackendConfig(),
) -> list[QueryCostRow]:
    """Figure 2: average single-source query time per dataset and method.

    ``"SLING"`` runs Algorithm 6; ``"SLING (Alg. 3)"`` is the naive variant
    that applies the single-pair algorithm once per node.
    """
    service = _service(scale, config)
    rows: list[QueryCostRow] = []
    for dataset in dataset_names:
        session = service.open_dataset(dataset)
        sources = random_sources(session.graph, num_queries, seed=config.seed)
        for method_name in methods:
            # Both SLING variants share one engine (the session caches per
            # resolved backend name), so the index is built once.
            base_name = "SLING" if method_name.startswith("SLING") else method_name
            engine = session.engine(base_name)
            start = time.perf_counter()
            if method_name == "SLING (Alg. 3)":
                backend = engine.backend
                assert isinstance(backend, SlingBackend)
                for source in sources:
                    backend.single_source(source, method="pairwise")
            else:
                for source in sources:
                    engine.single_source(source)
            elapsed = time.perf_counter() - start
            rows.append(
                QueryCostRow(
                    dataset=dataset,
                    method=method_name,
                    num_queries=len(sources),
                    average_milliseconds=1000.0 * elapsed / max(1, len(sources)),
                )
            )
    return rows


# --------------------------------------------------------------------------- #
# Figures 3-4: preprocessing cost and space consumption
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PreprocessingRow:
    """One (dataset, method) point of Figure 3."""

    dataset: str
    method: str
    seconds: float


@dataclass(frozen=True)
class SpaceRow:
    """One (dataset, method) point of Figure 4."""

    dataset: str
    method: str
    megabytes: float


def preprocessing_experiment(
    dataset_names: Sequence[str],
    *,
    methods: Sequence[str] = ("SLING", "Linearize", "MC"),
    scale: float = DEFAULT_SMALL_SCALE,
    config: BackendConfig = BackendConfig(),
) -> list[PreprocessingRow]:
    """Figure 3: preprocessing (index construction) time of each method."""
    service = _service(scale, config)
    rows: list[PreprocessingRow] = []
    for dataset in dataset_names:
        # Timing index construction itself, so build fresh backends on the
        # session's graph instead of reusing its lazily-built engines.
        graph = service.open_dataset(dataset).graph
        for method_name in methods:
            timing = time_callable(lambda: create_backend(method_name, graph, config))
            rows.append(
                PreprocessingRow(
                    dataset=dataset,
                    method=method_name,
                    seconds=timing.average_seconds,
                )
            )
    return rows


def space_experiment(
    dataset_names: Sequence[str],
    *,
    methods: Sequence[str] = ("SLING", "Linearize", "MC"),
    scale: float = DEFAULT_SMALL_SCALE,
    config: BackendConfig = BackendConfig(),
) -> list[SpaceRow]:
    """Figure 4: index size of each method."""
    service = _service(scale, config)
    rows: list[SpaceRow] = []
    for dataset in dataset_names:
        session = service.open_dataset(dataset)
        for method_name in methods:
            method = session.engine(method_name).backend
            rows.append(
                SpaceRow(
                    dataset=dataset,
                    method=method_name,
                    megabytes=method.index_size_bytes() / (1024.0 * 1024.0),
                )
            )
    return rows


# --------------------------------------------------------------------------- #
# Figures 5-7: accuracy against the power-method ground truth
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AccuracyRow:
    """Maximum all-pairs error of one method in one run (Figure 5)."""

    dataset: str
    method: str
    run: int
    maximum_error: float


@dataclass(frozen=True)
class GroupedErrorRow:
    """Average error per SimRank group (Figure 6)."""

    dataset: str
    method: str
    groups: GroupedErrors


@dataclass(frozen=True)
class TopKRow:
    """Top-k precision of one method for one k (Figure 7)."""

    dataset: str
    method: str
    k: int
    precision: float


def accuracy_experiment(
    dataset_names: Sequence[str] = datasets.SMALL_DATASETS,
    *,
    methods: Sequence[str] = ("SLING", "Linearize", "MC"),
    num_runs: int = 3,
    scale: float = DEFAULT_SMALL_SCALE,
    config: BackendConfig = BackendConfig(),
    cache: GroundTruthCache | None = None,
) -> list[AccuracyRow]:
    """Figure 5: maximum all-pairs error over repeated index builds."""
    service = _service(scale, config)
    cache = cache or GroundTruthCache()
    rows: list[AccuracyRow] = []
    for dataset in dataset_names:
        # Each run rebuilds with a different seed, so the session supplies
        # the graph while the per-run backends are built ad hoc.
        graph = service.open_dataset(dataset).graph
        truth = cache.get(graph, c=config.c)
        for run in range(num_runs):
            run_config = replace(config, seed=config.seed + run)
            for method_name in methods:
                method = create_backend(method_name, graph, run_config)
                estimated = method.all_pairs()
                rows.append(
                    AccuracyRow(
                        dataset=dataset,
                        method=method_name,
                        run=run,
                        maximum_error=max_error(estimated, truth),
                    )
                )
    return rows


def grouped_error_experiment(
    dataset_names: Sequence[str] = datasets.SMALL_DATASETS,
    *,
    methods: Sequence[str] = ("SLING", "Linearize", "MC"),
    scale: float = DEFAULT_SMALL_SCALE,
    config: BackendConfig = BackendConfig(),
    cache: GroundTruthCache | None = None,
) -> list[GroupedErrorRow]:
    """Figure 6: average error within the S1 / S2 / S3 score groups."""
    service = _service(scale, config)
    cache = cache or GroundTruthCache()
    rows: list[GroupedErrorRow] = []
    for dataset in dataset_names:
        session = service.open_dataset(dataset)
        truth = cache.get(session.graph, c=config.c)
        for method_name in methods:
            method = session.engine(method_name).backend
            estimated = method.all_pairs()
            rows.append(
                GroupedErrorRow(
                    dataset=dataset,
                    method=method_name,
                    groups=grouped_errors(estimated, truth),
                )
            )
    return rows


def top_k_experiment(
    dataset_names: Sequence[str] = datasets.SMALL_DATASETS,
    *,
    methods: Sequence[str] = ("SLING", "Linearize", "MC"),
    k_values: Sequence[int] = (400, 800, 1200, 1600, 2000),
    scale: float = DEFAULT_SMALL_SCALE,
    config: BackendConfig = BackendConfig(),
    cache: GroundTruthCache | None = None,
) -> list[TopKRow]:
    """Figure 7: precision of the top-k node pairs returned by each method."""
    service = _service(scale, config)
    cache = cache or GroundTruthCache()
    rows: list[TopKRow] = []
    for dataset in dataset_names:
        session = service.open_dataset(dataset)
        truth = cache.get(session.graph, c=config.c)
        for method_name in methods:
            method = session.engine(method_name).backend
            estimated = method.all_pairs()
            for k in k_values:
                rows.append(
                    TopKRow(
                        dataset=dataset,
                        method=method_name,
                        k=k,
                        precision=top_k_precision(estimated, truth, k),
                    )
                )
    return rows

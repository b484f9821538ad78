"""Parallel index construction (Section 5.4).

Both preprocessing phases of SLING are embarrassingly parallel over nodes,
but only one of them is worth a process pool here:

* each correction factor ``d̃_k`` only needs √c-walks sampled from the
  in-neighbours of ``v_k``; this sampling is most of a build,
* the reverse pushes (Algorithm 2) run as one pruned sparse product per level
  over blocks of targets (:func:`~repro.sling.hitting.build_hitting_sets`),
  which is a small share of a build and stays in the parent process.

``parallel_build`` splits the node range into contiguous chunks, estimates
the chunks' correction factors in a
:class:`concurrent.futures.ProcessPoolExecutor`, and pushes in the parent.
Every ``d̃_k`` draws from node ``k``'s own stream
(:func:`~repro.sling.walks.node_stream`), and the push is the sequential
build's, so a parallel build is bitwise identical to a sequential one with the
same seed, for any worker count.

The module also exposes :func:`build_with_thread_count`, the measurement
helper behind the Figure-9 "preprocessing time vs. number of threads"
experiment.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph
from .correction import estimate_all_correction_factors
from .hitting import HittingRecords, build_hitting_sets
from .parameters import SlingParameters
from .walks import SqrtCWalker, resolve_entropy

__all__ = [
    "parallel_build",
    "even_chunks",
    "node_chunks",
    "resolve_worker_count",
    "build_with_thread_count",
]

# Worker-process globals, populated once per worker by the pool initializer so
# the (potentially large) graph is not re-pickled for every task.
_WORKER_GRAPH: DiGraph | None = None
_WORKER_PARAMS: SlingParameters | None = None


def even_chunks(total: int, num_chunks: int) -> list[range]:
    """Split ``range(total)`` into at most ``num_chunks`` contiguous ranges.

    The generic chunking behind both the parallel index build (chunks of
    nodes) and the service's :class:`~repro.service.ParallelExecutor`
    (chunks of request indices): ranges are contiguous, cover ``range(total)``
    exactly once, and differ in length by at most one.
    """
    if total < 0:
        raise ParameterError(f"total must be non-negative, got {total}")
    if num_chunks < 1:
        raise ParameterError(f"num_chunks must be >= 1, got {num_chunks}")
    num_chunks = min(num_chunks, max(1, total))
    bounds = np.linspace(0, total, num_chunks + 1, dtype=int)
    return [
        range(int(bounds[i]), int(bounds[i + 1]))
        for i in range(num_chunks)
        if bounds[i] < bounds[i + 1]
    ]


def node_chunks(num_nodes: int, num_chunks: int) -> list[range]:
    """Split ``range(num_nodes)`` into at most ``num_chunks`` contiguous ranges."""
    if num_nodes < 0:
        raise ParameterError(f"num_nodes must be non-negative, got {num_nodes}")
    return even_chunks(num_nodes, num_chunks)


def resolve_worker_count(workers: int | None) -> int:
    """Normalise a worker-count option: ``None`` or ``0`` means "one per CPU".

    Negative counts are rejected; the result is always >= 1 (also on
    platforms where the CPU count cannot be determined).
    """
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ParameterError(f"workers must be >= 1 (or 0 for auto), got {workers}")
    return int(workers)


def _init_worker(graph: DiGraph, params: SlingParameters) -> None:
    global _WORKER_GRAPH, _WORKER_PARAMS
    _WORKER_GRAPH = graph
    _WORKER_PARAMS = params


def _correction_chunk(
    chunk: range, entropy: int, adaptive: bool
) -> tuple[range, np.ndarray]:
    assert _WORKER_GRAPH is not None and _WORKER_PARAMS is not None
    walker = SqrtCWalker(_WORKER_GRAPH, _WORKER_PARAMS.c, seed=entropy)
    values = estimate_all_correction_factors(
        walker,
        _WORKER_PARAMS.epsilon_d,
        _WORKER_PARAMS.delta_d,
        adaptive=adaptive,
        nodes=chunk,
    )
    return chunk, values[chunk.start : chunk.stop]


def parallel_build(
    graph: DiGraph,
    params: SlingParameters,
    *,
    workers: int,
    seed: int | None = None,
    adaptive_correction: bool = True,
) -> tuple[np.ndarray, HittingRecords, float, float]:
    """Estimate corrections with ``workers`` processes, then push.

    Returns ``(corrections, records, correction_seconds, hitting_seconds)``
    so the caller (:meth:`SlingIndex.build`) can pack the records and fill
    its build statistics.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    chunks = node_chunks(graph.num_nodes, workers * 4)
    entropy = resolve_entropy(seed)
    corrections = np.full(graph.num_nodes, np.nan, dtype=np.float64)

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(graph, params)
    ) as pool:
        start = time.perf_counter()
        correction_results = pool.map(
            _correction_chunk,
            chunks,
            [entropy] * len(chunks),
            [adaptive_correction] * len(chunks),
        )
        for chunk, values in correction_results:
            corrections[chunk.start : chunk.stop] = values
        correction_seconds = time.perf_counter() - start

    start = time.perf_counter()
    records = build_hitting_sets(graph, params.sqrt_c, params.theta)
    hitting_seconds = time.perf_counter() - start
    return corrections, records, correction_seconds, hitting_seconds


def build_with_thread_count(
    graph: DiGraph,
    params: SlingParameters,
    workers: int,
    *,
    seed: int | None = None,
) -> float:
    """Measure the wall-clock preprocessing time with ``workers`` processes.

    This is the Figure-9 experiment driver: it runs the full two-phase build
    and returns elapsed seconds.
    """
    start = time.perf_counter()
    if workers == 1:
        walker = SqrtCWalker(graph, params.c, seed=seed)
        estimate_all_correction_factors(
            walker, params.epsilon_d, params.delta_d, adaptive=True
        )
        build_hitting_sets(graph, params.sqrt_c, params.theta)
    else:
        parallel_build(graph, params, workers=workers, seed=seed)
    return time.perf_counter() - start

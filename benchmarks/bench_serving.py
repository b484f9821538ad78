#!/usr/bin/env python3
"""Sharded serving throughput: one worker process vs two vs four.

The router's scale-out story on a single box is **cache capacity**, not
parallelism: every worker is handed the same ``--cache-budget`` of
single-source vectors, and the budget is divided among the datasets a
process has open.  Sharding four datasets over four workers therefore
quadruples each dataset's effective LRU capacity compared to one worker
hosting all four — on a drifting working set that is the difference
between answering a ``top_k`` from a cached vector in ~0.1 ms and
recomputing it in several milliseconds.

The benchmark prebuilds one SLING index per dataset (``save_index``),
then for each worker count in (1, 2, 4) starts a ``WorkerPool`` of real
``repro serve --unix`` processes attaching those indexes read-only
(``--backend sling-disk --index-dir``), fronts them with an in-process
:class:`~repro.service.Router` with round-robin dataset pins, and drives
**the same pre-generated query sequence** through one
:class:`~repro.service.SimRankClient` connection:

* a per-dataset sliding window of sources (``top_k`` and
  ``single_source``) sized so per-dataset cache capacity covers 25% of it
  at one worker and ~100% at four;
* a sprinkle of ``single_pair`` queries whose canonical nodes sit outside
  every window, so they miss the vector cache in *every* configuration —
  pair values read from a cached vector and values estimated directly
  agree only within the accuracy target, so parity requires the cache
  state at each pair query to be configuration-independent.

``identical_values`` asserts exactly that: the normalised result of every
timed query (a ``single_source`` answer as the bytes of its densified
float64 vector, anything else as sorted-key JSON) is byte-identical across
the three configurations (all workers attach the same saved index files,
so any divergence means the workload leaked cache state into values).  The recorded target is
``workers_4`` throughput at least ``--target`` (default 2.5x) the
single-worker configuration.

Results are emitted as JSON on stdout::

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke

``--smoke`` times 48 queries per worker count: it checks the payload's
schema and ``identical_values``, and its throughput cannot compare builds
(four smoke runs of one build read 153–283 queries/s at one worker).

``benchmarks/record.py`` records the payload as ``BENCH_serving.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import tempfile
import time
from pathlib import Path

from _config import latency_ms_by_kind
from repro.engine import latency_quantiles
from repro.graphs import datasets as graph_datasets
from repro.service import (
    Address,
    Router,
    SimRankClient,
    SinglePairQuery,
    SingleSourceQuery,
    SparseScores,
    TopKQuery,
    WorkerPool,
)
from repro.sling import SlingIndex, save_index

DEFAULT_TARGET_SPEEDUP = 2.5
DEFAULT_DATASETS = ("GrQc", "AS", "HepTh", "Enron")
WORKER_COUNTS = (1, 2, 4)

#: Query mix: cache-friendly ranked lookups dominate, full vectors and
#: always-miss pair probes ride along.
TOPK_FRACTION = 0.80
SOURCE_FRACTION = 0.12  # single_source; the remainder is single_pair


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
def prebuild_indexes(
    names: tuple[str, ...], *, scale: float, epsilon: float, seed: int, root: Path
) -> dict[str, int]:
    """Build and save one SLING index per dataset; return node counts."""
    sizes: dict[str, int] = {}
    for name in names:
        graph = graph_datasets.load_dataset(name, scale=scale, seed=seed)
        sizes[name] = graph.num_nodes
        save_index(
            SlingIndex(graph, epsilon=epsilon, seed=seed).build(), root / name
        )
    return sizes


def build_workload(
    names: tuple[str, ...],
    sizes: dict[str, int],
    *,
    num_queries: int,
    window_size: int,
    slide_every: int,
    k: int,
    seed: int,
) -> list[tuple[str, object]]:
    """One deterministic ``(kind, query)`` sequence, shared by every
    configuration.

    Window sources for a dataset stay inside ``[0, n // 2)`` (the window
    start advances one node every ``slide_every`` source queries);
    ``single_pair`` nodes come from ``[n // 2, n)`` so their canonical
    (smaller) endpoint is never a window source and the pair can never be
    answered from a cached vector in any configuration.
    """
    rng = random.Random(seed)
    source_counts = dict.fromkeys(names, 0)
    pair_cursors = dict.fromkeys(names, 0)
    workload: list[tuple[str, object]] = []
    for _ in range(num_queries):
        name = names[rng.randrange(len(names))]
        n = sizes[name]
        span = max(2, n // 2)
        roll = rng.random()
        if roll < TOPK_FRACTION + SOURCE_FRACTION:
            window_start = source_counts[name] // slide_every
            source = (window_start + rng.randrange(window_size)) % span
            source_counts[name] += 1
            if roll < TOPK_FRACTION:
                workload.append(("top_k", TopKQuery(name, source, k)))
            else:
                workload.append(("single_source", SingleSourceQuery(name, source)))
        else:
            offset = 2 * pair_cursors[name]
            pair_cursors[name] += 1
            node_u = span + offset % max(2, n - span - 1)
            workload.append(("single_pair", SinglePairQuery(name, node_u, node_u + 1)))
    return workload


def _normalise(value: object) -> str:
    """Canonical form of a result value, for cross-config comparison: a
    ``single_source`` answer as the hex of its densified float64 bytes (so
    equal means bitwise equal), anything else as sorted-key JSON."""
    if isinstance(value, SparseScores):
        return value.to_dense().tobytes().hex()
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------- #
# One configuration
# --------------------------------------------------------------------------- #
def run_config(
    worker_count: int,
    names: tuple[str, ...],
    workload: list[tuple[str, object]],
    *,
    warmup: int,
    serve_args: list[str],
) -> dict:
    """Serve the workload through ``worker_count`` processes; time the
    portion after ``warmup`` queries and capture every result value."""
    pool = WorkerPool(worker_count, serve_args=serve_args)
    pool.start()
    router = Router(
        pool,
        address=Address(family="tcp", host="127.0.0.1", port=0),
        pins={name: index % worker_count for index, name in enumerate(names)},
    )
    router.start()
    try:
        client = SimRankClient(address=str(router.address))
        for name in names:
            client.open_dataset(name)
        values: list[str] = []
        samples: list[tuple[str, float]] = []
        timed_started = None
        for position, (kind, query) in enumerate(workload):
            if position == warmup:
                timed_started = time.perf_counter()
            begin = time.perf_counter()
            result = client.execute(query)
            elapsed = time.perf_counter() - begin
            if not result.ok:
                raise RuntimeError(
                    f"workers={worker_count}: {kind} failed: {result.error.message}"
                )
            if timed_started is not None:
                samples.append((kind, elapsed))
                values.append(_normalise(result.value))
        seconds = time.perf_counter() - timed_started
        client.close()
    finally:
        router.stop()

    timed = len(workload) - warmup
    overall = latency_quantiles([elapsed for _, elapsed in samples])
    cell = {
        "workers": worker_count,
        "queries": timed,
        "seconds": seconds,
        "queries_per_second": timed / seconds,
        "overall_p50_ms": 1e3 * overall["p50"],
        "overall_p95_ms": 1e3 * overall["p95"],
        "overall_p99_ms": 1e3 * overall["p99"],
        "latency_ms_by_kind": latency_ms_by_kind(samples),
    }
    return {"cell": cell, "values": values}


# --------------------------------------------------------------------------- #
def run_benchmark(
    *,
    dataset_names: tuple[str, ...] = DEFAULT_DATASETS,
    scale: float = 1.0,
    epsilon: float = 0.025,
    num_queries: int = 900,
    warmup: int = 120,
    window_size: int = 24,
    slide_every: int = 12,
    cache_budget: int = 24,
    k: int = 10,
    seed: int = 0,
    target_speedup: float = DEFAULT_TARGET_SPEEDUP,
) -> dict:
    """Throughput and tail latency through the router at 1 / 2 / 4 workers."""
    root = Path(tempfile.mkdtemp(prefix="repro-bench-serving-"))
    try:
        sizes = prebuild_indexes(
            dataset_names, scale=scale, epsilon=epsilon, seed=seed, root=root
        )
        workload = build_workload(
            dataset_names,
            sizes,
            num_queries=num_queries,
            window_size=window_size,
            slide_every=slide_every,
            k=k,
            seed=seed,
        )
        serve_args = [
            "--scale", str(scale),
            "--epsilon", str(epsilon),
            "--seed", str(seed),
            "--backend", "sling-disk",
            "--index-dir", str(root),
            "--cache-budget", str(cache_budget),
            "--cache-size", "128",
        ]
        cells: dict[str, dict] = {}
        value_streams: list[list[str]] = []
        for worker_count in WORKER_COUNTS:
            outcome = run_config(
                worker_count,
                dataset_names,
                workload,
                warmup=warmup,
                serve_args=serve_args,
            )
            cells[f"workers_{worker_count}"] = outcome["cell"]
            value_streams.append(outcome["values"])
    finally:
        shutil.rmtree(root, ignore_errors=True)

    identical_values = all(stream == value_streams[0] for stream in value_streams)
    base_qps = cells["workers_1"]["queries_per_second"]
    speedups = {
        name: cell["queries_per_second"] / base_qps for name, cell in cells.items()
    }
    return {
        "benchmark": "serving",
        "datasets": list(dataset_names),
        "num_nodes": sizes,
        "scale": scale,
        "epsilon": epsilon,
        "seed": seed,
        "num_queries": num_queries,
        "warmup": warmup,
        "window_size": window_size,
        "slide_every": slide_every,
        "cache_budget": cache_budget,
        "k": k,
        "mix": {
            "top_k": TOPK_FRACTION,
            "single_source": SOURCE_FRACTION,
            "single_pair": round(1.0 - TOPK_FRACTION - SOURCE_FRACTION, 3),
        },
        "cells": cells,
        "speedups": speedups,
        "identical_values": bool(identical_values),
        "targets": {"workers_4": target_speedup},
        "meets_targets": {"workers_4": speedups["workers_4"] >= target_speedup},
    }


SMOKE_OVERRIDES = {
    "dataset_names": ("GrQc", "HepTh"),
    "scale": 0.05,
    "num_queries": 60,
    "warmup": 12,
    "window_size": 6,
    "slide_every": 8,
    "cache_budget": 8,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=0.025)
    parser.add_argument("--queries", type=int, default=900)
    parser.add_argument("--warmup", type=int, default=120)
    parser.add_argument("--cache-budget", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target", type=float, default=DEFAULT_TARGET_SPEEDUP)
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            "tiny fast configuration for CI schema checks; its 48 timed "
            "queries per worker count are too few for its throughput to "
            "compare builds"
        ),
    )
    args = parser.parse_args(argv)
    overrides = dict(SMOKE_OVERRIDES) if args.smoke else {}
    payload = run_benchmark(
        scale=overrides.get("scale", args.scale),
        epsilon=args.epsilon,
        num_queries=overrides.get("num_queries", args.queries),
        warmup=overrides.get("warmup", args.warmup),
        cache_budget=overrides.get("cache_budget", args.cache_budget),
        seed=args.seed,
        target_speedup=args.target,
        **{
            key: value
            for key, value in overrides.items()
            if key in ("dataset_names", "window_size", "slide_every")
        },
    )
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

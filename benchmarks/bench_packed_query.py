#!/usr/bin/env python3
"""Dict-of-dicts vs packed columnar store: query hot paths and index load.

Before the packed store existed, every query ran on Python dicts:
Algorithm 3 iterated ``HittingProbabilitySet.levels`` entry by entry with two
hash probes per position, Algorithm 6 rebuilt its numpy frontiers with
``np.fromiter`` per query, and loading an index deserialised an npz archive
into ``n`` per-node dict sets.  This benchmark keeps faithful copies of those
legacy implementations (below) and times them against the packed paths on the
same built index:

* **single_pair** — legacy dict intersection vs the sorted-key
  ``searchsorted`` + dot-product kernel (warm, Zipf-skewed pair workload),
* **single_source / top_k** — legacy dict-frontier Algorithm 6 vs zero-copy
  column-slice frontiers,
* **load** — legacy npz → dict materialisation vs ``np.load(mmap_mode="r")``
  of the per-column ``.npy`` files (no dict round-trip).

Results are emitted as JSON on stdout::

    PYTHONPATH=src python benchmarks/bench_packed_query.py --scale 0.12

``meets_targets`` records the acceptance thresholds: warm single-pair at
least ``--target-pair`` (default 3x) faster, index load at least
``--target-load`` (default 10x) faster, and the exact single-source/top-k
paths no slower than the dict paths (``--target-source`` /
``--target-topk``, default 1.0x — the same algorithm runs on both sides;
the cascade/bounded wins are measured in ``bench_single_source.py``).  The legacy kernels — including the pre-packed
``np.add.at`` push step — are frozen in this file so the baseline cannot
silently absorb later kernel optimisations.
``benchmarks/record.py`` runs this module in smoke mode and records the
payload as ``BENCH_packed_query.json`` for the perf-regression CI job.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.graphs import datasets
from repro.ranking import rank_top_k
from repro.sling import SlingIndex, build_hitting_sets, load_index, save_index
from repro.sling.hitting import HittingProbabilitySet

DEFAULT_TARGET_PAIR_SPEEDUP = 3.0
DEFAULT_TARGET_LOAD_SPEEDUP = 10.0
DEFAULT_TARGET_SOURCE_SPEEDUP = 1.0
DEFAULT_TARGET_TOPK_SPEEDUP = 1.0


# --------------------------------------------------------------------------- #
# Faithful copies of the pre-packed (dict-of-dicts) implementations
# --------------------------------------------------------------------------- #
def legacy_intersect(set_u, set_v, corrections) -> float:
    """Algorithm 3 as it ran before the packed store (dict iteration)."""
    score = 0.0
    for level, entries_u in set_u.levels.items():
        entries_v = set_v.levels.get(level)
        if not entries_v:
            continue
        if len(entries_v) < len(entries_u):
            entries_u, entries_v = entries_v, entries_u
        for target, value_u in entries_u.items():
            value_v = entries_v.get(target)
            if value_v is not None:
                score += value_u * corrections[target] * value_v
    return min(1.0, score)


def legacy_push_frontier(graph, frontier_nodes, frontier_values, sqrt_c):
    """The pre-packed push step: two-``repeat`` offsets and ``np.add.at``.

    Frozen here (instead of importing the live ``push_frontier``) so the dict
    baseline keeps the pre-packed era's scatter even after the shared kernel
    moved to ``concatenated_ranges`` + ``np.bincount``.
    """
    out_indptr, out_indices = graph.out_csr()
    in_degrees = graph.in_degrees()
    starts = out_indptr[frontier_nodes]
    counts = out_indptr[frontier_nodes + 1] - starts
    total_edges = int(counts.sum())
    if total_edges == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    edge_offsets = np.repeat(starts, counts) + (
        np.arange(total_edges, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    successors = out_indices[edge_offsets]
    contributions = (
        sqrt_c * np.repeat(frontier_values, counts) / in_degrees[successors]
    )
    buffer = np.zeros(graph.num_nodes, dtype=np.float64)
    np.add.at(buffer, successors, contributions)
    next_nodes = np.flatnonzero(buffer)
    return next_nodes, buffer[next_nodes]


def legacy_single_source(graph, query_set, corrections, sqrt_c, theta) -> np.ndarray:
    """Algorithm 6 as it ran before: np.fromiter frontiers, fresh buffers."""
    scores = np.zeros(graph.num_nodes, dtype=np.float64)
    for level, entries in sorted(query_set.levels.items()):
        if not entries:
            continue
        frontier_nodes = np.fromiter(entries.keys(), dtype=np.int64, count=len(entries))
        frontier_values = np.fromiter(
            entries.values(), dtype=np.float64, count=len(entries)
        )
        frontier_values = frontier_values * corrections[frontier_nodes]
        prune_threshold = (sqrt_c**level) * theta
        for _ in range(level):
            keep = frontier_values > prune_threshold
            frontier_nodes = frontier_nodes[keep]
            frontier_values = frontier_values[keep]
            if frontier_nodes.size == 0:
                break
            frontier_nodes, frontier_values = legacy_push_frontier(
                graph, frontier_nodes, frontier_values, sqrt_c
            )
        if frontier_nodes.size:
            np.add.at(scores, frontier_nodes, frontier_values)
    return np.minimum(scores, 1.0)


def legacy_save(index, directory: Path) -> Path:
    """The version-1 persistence format: one compressed npz archive."""
    store = index.packed_store
    np.savez_compressed(
        directory / "sling_data.npz",
        corrections=index.correction_factors,
        reduced=np.zeros(0, dtype=bool),
        offsets=store.offsets,
        levels=store.levels,
        targets=store.targets,
        values=store.values,
    )
    return directory / "sling_data.npz"


def legacy_load(npz_path: Path, num_nodes: int) -> list[HittingProbabilitySet]:
    """The version-1 load path: decompress, then per-node dict round-trip."""
    data = np.load(npz_path)
    offsets = data["offsets"]
    levels = data["levels"]
    targets = data["targets"]
    values = data["values"]
    _ = data["corrections"]
    hitting_sets = []
    for node in range(num_nodes):
        start, stop = int(offsets[node]), int(offsets[node + 1])
        hitting_set = HittingProbabilitySet()
        for level, target, value in zip(
            levels[start:stop], targets[start:stop], values[start:stop]
        ):
            hitting_set.set(int(level), int(target), float(value))
        hitting_sets.append(hitting_set)
    return hitting_sets


def _best_of(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    *,
    dataset: str = "GrQc",
    scale: float = 0.12,
    epsilon: float = 0.025,
    num_pairs: int = 2000,
    num_sources: int = 40,
    k: int = 10,
    hot_fraction: float = 0.25,
    repeats: int = 3,
    load_repeats: int = 3,
    seed: int = 0,
    target_pair_speedup: float = DEFAULT_TARGET_PAIR_SPEEDUP,
    target_load_speedup: float = DEFAULT_TARGET_LOAD_SPEEDUP,
    target_source_speedup: float = DEFAULT_TARGET_SOURCE_SPEEDUP,
    target_topk_speedup: float = DEFAULT_TARGET_TOPK_SPEEDUP,
) -> dict:
    """Measure dict vs packed latency on one warm index."""
    graph = datasets.load_dataset(dataset, scale=scale, seed=seed)
    build_start = time.perf_counter()
    index = SlingIndex(graph, epsilon=epsilon, seed=seed).build()
    build_seconds = time.perf_counter() - build_start
    n = graph.num_nodes
    corrections = index.correction_factors
    params = index.parameters
    store = index.packed_store
    # The dict baseline queried resident dict sets; build them once, outside
    # the timed region, exactly as the old index held them.
    hitting_sets = build_hitting_sets(graph, params.sqrt_c, params.theta)

    rng = np.random.default_rng(seed)
    hot = max(2, int(n * hot_fraction))
    pairs = [
        (int(u), int(v))
        for u, v in zip(
            rng.integers(0, hot, num_pairs), rng.integers(0, hot, num_pairs)
        )
    ]
    sources = [int(node) for node in rng.integers(0, n, num_sources)]

    # -- single pair ----------------------------------------------------- #
    def run_pairs_packed():
        single_pair = index.single_pair
        for u, v in pairs:
            single_pair(u, v)

    def run_pairs_dict():
        for u, v in pairs:
            legacy_intersect(hitting_sets[u], hitting_sets[v], corrections)

    # parity guard: the two paths must answer identically (up to the dict
    # loop's summation-order reassociation) before any timing is trusted
    parity_ok = all(
        abs(
            index.single_pair(u, v)
            - legacy_intersect(hitting_sets[u], hitting_sets[v], corrections)
        )
        <= 1e-12
        for u, v in pairs[:50]
    )

    pair_dict_seconds = _best_of(run_pairs_dict, repeats)
    pair_packed_seconds = _best_of(run_pairs_packed, repeats)

    # -- single source ---------------------------------------------------- #
    def run_sources_packed():
        for node in sources:
            index.single_source(node)

    def run_sources_dict():
        for node in sources:
            legacy_single_source(
                graph, hitting_sets[node], corrections, params.sqrt_c, params.theta
            )

    source_dict_seconds = _best_of(run_sources_dict, repeats)
    source_packed_seconds = _best_of(run_sources_packed, repeats)

    # -- top-k ------------------------------------------------------------ #
    def run_topk_packed():
        for node in sources:
            index.top_k(node, k)

    def run_topk_dict():
        for node in sources:
            scores = legacy_single_source(
                graph, hitting_sets[node], corrections, params.sqrt_c, params.theta
            )
            rank_top_k(scores, node, k)

    topk_dict_seconds = _best_of(run_topk_dict, repeats)
    topk_packed_seconds = _best_of(run_topk_packed, repeats)

    # -- index load -------------------------------------------------------- #
    with tempfile.TemporaryDirectory(prefix="repro-bench-packed-") as tmp:
        tmp_path = Path(tmp)
        packed_dir = save_index(index, tmp_path / "v2")
        legacy_dir = tmp_path / "v1"
        legacy_dir.mkdir()
        npz_path = legacy_save(index, legacy_dir)

        load_dict_seconds = _best_of(lambda: legacy_load(npz_path, n), load_repeats)
        load_packed_seconds = _best_of(
            lambda: load_index(packed_dir, graph), load_repeats
        )
        # one post-load query to prove the mmap path is usable, not lazy-broken
        reloaded = load_index(packed_dir, graph)
        load_parity = reloaded.single_pair(0, min(1, n - 1)) == index.single_pair(
            0, min(1, n - 1)
        )

    def cell(dict_seconds: float, packed_seconds: float, count: int) -> dict:
        return {
            "dict_seconds": dict_seconds,
            "packed_seconds": packed_seconds,
            "dict_microseconds_each": 1e6 * dict_seconds / count,
            "packed_microseconds_each": 1e6 * packed_seconds / count,
            "speedup": dict_seconds / packed_seconds if packed_seconds else 0.0,
        }

    cells = {
        "single_pair": cell(pair_dict_seconds, pair_packed_seconds, num_pairs),
        "single_source": cell(source_dict_seconds, source_packed_seconds, num_sources),
        "top_k": cell(topk_dict_seconds, topk_packed_seconds, num_sources),
        "load": cell(load_dict_seconds, load_packed_seconds, 1),
    }
    return {
        "benchmark": "packed_query",
        "dataset": dataset,
        "scale": scale,
        "epsilon": epsilon,
        "num_nodes": n,
        "num_edges": graph.num_edges,
        "num_hitting_entries": store.num_entries,
        "average_set_size": store.num_entries / n,
        "index_size_bytes": index.index_size_bytes(),
        "resident_bytes": index.resident_bytes(),
        "build_seconds": build_seconds,
        "num_pairs": num_pairs,
        "num_sources": num_sources,
        "k": k,
        "repeats": repeats,
        "seed": seed,
        "cells": cells,
        "speedups": {name: c["speedup"] for name, c in cells.items()},
        "parity_ok": bool(parity_ok and load_parity),
        "targets": {
            "single_pair": target_pair_speedup,
            "load": target_load_speedup,
            # Same-algorithm exact paths, so these are no-regression floors;
            # the cascade/bounded kernels carry their own 5x/10x targets in
            # bench_single_source.py.
            "single_source": target_source_speedup,
            "top_k": target_topk_speedup,
        },
        "meets_targets": {
            "single_pair": cells["single_pair"]["speedup"] >= target_pair_speedup,
            "load": cells["load"]["speedup"] >= target_load_speedup,
            "single_source": cells["single_source"]["speedup"]
            >= target_source_speedup,
            "top_k": cells["top_k"]["speedup"] >= target_topk_speedup,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="GrQc", choices=datasets.dataset_names())
    parser.add_argument("--scale", type=float, default=0.12)
    parser.add_argument(
        "--epsilon", type=float, default=0.025,
        help="accuracy target (default: the paper's 0.025)",
    )
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--sources", type=int, default=40)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--load-repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target-pair", type=float, default=DEFAULT_TARGET_PAIR_SPEEDUP)
    parser.add_argument("--target-load", type=float, default=DEFAULT_TARGET_LOAD_SPEEDUP)
    parser.add_argument(
        "--target-source", type=float, default=DEFAULT_TARGET_SOURCE_SPEEDUP
    )
    parser.add_argument(
        "--target-topk", type=float, default=DEFAULT_TARGET_TOPK_SPEEDUP
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fast configuration for CI schema checks",
    )
    args = parser.parse_args(argv)
    overrides = {}
    if args.smoke:
        overrides = {"scale": 0.05, "num_pairs": 400, "num_sources": 10, "repeats": 2}
    payload = run_benchmark(
        dataset=args.dataset,
        scale=overrides.get("scale", args.scale),
        epsilon=args.epsilon,
        num_pairs=overrides.get("num_pairs", args.pairs),
        num_sources=overrides.get("num_sources", args.sources),
        k=args.k,
        repeats=overrides.get("repeats", args.repeats),
        load_repeats=args.load_repeats,
        seed=args.seed,
        target_pair_speedup=args.target_pair,
        target_load_speedup=args.target_load,
        target_source_speedup=args.target_source,
        target_topk_speedup=args.target_topk,
    )
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

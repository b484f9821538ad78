#!/usr/bin/env python3
"""Per-level local push vs the level-cascade kernel and bounded top-k.

This benchmark freezes the pre-cascade query kernels — the per-level
Algorithm 6 with an ``np.add.at`` scatter per push step and per level, and
the top-k path that ranks a full single-source vector — and times them
against the rewritten paths on the same built index:

* **single_source_exact** — frozen kernel vs the bincount rewrite of the
  same per-level algorithm.  These must agree **bitwise** (``parity_ok``):
  the rewrite keeps the original arithmetic order and only swaps the
  scatter, so any mismatch means the kernel is wrong, not merely noisy.
* **single_source** — frozen kernel vs the level-cascade kernel
  (``method="cascade"``), which merges all levels into one running frontier
  (max-ℓ pushes instead of Σℓ) using the cached ``√c / |I(v)|`` edge-weight
  column.  Guarded by ``accuracy_ok``: max abs error ≤ ε on every source.
* **top_k_warm** — frozen full-vector ranking vs the bounded top-k path
  (``method="bounded"``), which truncates the cascade once the per-level
  residual-mass bounds from the packed store's metadata fit the budget and
  the k-th candidate dominates the undelivered tail.  Guarded by
  ``topk_agreement_ok``: on every source the top-k sets must match the
  frozen path except for k-boundary swaps between candidates whose frozen
  scores tie within the reported slack (tail bound + cascade arithmetic
  error), and any order flips must stay within the same slack — score gaps
  smaller than the approximation error are inherently unordered for an
  ε-approximate method.

Results are emitted as JSON on stdout::

    PYTHONPATH=src python benchmarks/bench_single_source.py --scale 0.12

``meets_targets`` records the acceptance thresholds: the cascade at least
``--target-source`` (default 5x) and warm bounded top-k at least
``--target-topk`` (default 10x) faster than the frozen kernels.
``benchmarks/record.py`` runs this module in smoke mode and records the
payload as ``BENCH_single_source.json`` for the perf-regression CI job.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.graphs import datasets
from repro.ranking import rank_top_k
from repro.sling import SlingIndex

DEFAULT_TARGET_SOURCE_SPEEDUP = 5.0
DEFAULT_TARGET_TOPK_SPEEDUP = 10.0


# --------------------------------------------------------------------------- #
# Frozen copies of the pre-cascade kernels
# --------------------------------------------------------------------------- #
def frozen_push_frontier(graph, frontier_nodes, frontier_values, sqrt_c, scratch):
    """The pre-rewrite push step: two-``repeat`` offsets, ``np.add.at`` scatter."""
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
    np.add.at(scratch, successors, contributions)
    next_nodes = np.flatnonzero(scratch)
    next_values = scratch[next_nodes]
    scratch[successors] = 0.0
    return next_nodes, next_values


def frozen_single_source(graph, view, corrections, sqrt_c, theta) -> np.ndarray:
    """Algorithm 6 as it ran before: Σℓ pushes, one ``np.add.at`` per level."""
    scores = np.zeros(graph.num_nodes, dtype=np.float64)
    scratch = np.zeros(graph.num_nodes, dtype=np.float64)
    for level, targets, values in view.iter_levels():
        frontier_nodes = targets.astype(np.int64)
        frontier_values = np.asarray(values) * corrections[frontier_nodes]
        prune_threshold = (sqrt_c**level) * theta
        for _ in range(level):
            keep = frontier_values > prune_threshold
            frontier_nodes = frontier_nodes[keep]
            frontier_values = frontier_values[keep]
            if frontier_nodes.size == 0:
                break
            frontier_nodes, frontier_values = frozen_push_frontier(
                graph, frontier_nodes, frontier_values, sqrt_c, scratch
            )
        if frontier_nodes.size:
            np.add.at(scores, frontier_nodes, frontier_values)
    return np.minimum(scores, 1.0)


def frozen_top_k(graph, view, corrections, sqrt_c, theta, node, k):
    """The pre-PR top-k: rank a copy of the full single-source vector."""
    scores = frozen_single_source(graph, view, corrections, sqrt_c, theta).copy()
    return rank_top_k(scores, int(node), k)


def _best_of(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _order_consistent(ranked, frozen_scores, slack: float) -> bool:
    """No inversion beyond ``slack``: a pair ranked i-before-j is acceptable
    unless the frozen kernel scores j more than ``slack`` above i."""
    exact = [float(frozen_scores[node]) for node, _ in ranked]
    running_max_later = -np.inf
    for value in reversed(exact):
        if running_max_later - value > slack:
            return False
        running_max_later = max(running_max_later, value)
    return True


def _sets_consistent(ranked, reference, frozen_scores, slack: float) -> bool:
    """Top-k sets must agree except for boundary swaps within ``slack``.

    A candidate the frozen path ranks but the bounded path drops is
    acceptable only if every element swapped in has a frozen score within
    ``slack`` of it — score gaps smaller than the approximation error are
    inherently unordered, so the k-boundary may legitimately flip there.
    """
    bounded_ids = {node for node, _ in ranked}
    reference_ids = {node for node, _ in reference}
    if len(bounded_ids) != len(reference_ids):
        return False
    missing = reference_ids - bounded_ids
    extra = bounded_ids - reference_ids
    if not missing:
        return True
    worst_missing = max(float(frozen_scores[node]) for node in missing)
    worst_extra = min(float(frozen_scores[node]) for node in extra)
    return worst_missing - worst_extra <= slack


def run_benchmark(
    *,
    dataset: str = "GrQc",
    scale: float = 0.12,
    epsilon: float = 0.025,
    num_sources: int = 40,
    k: int = 10,
    hot_fraction: float = 0.25,
    repeats: int = 3,
    seed: int = 0,
    target_source_speedup: float = DEFAULT_TARGET_SOURCE_SPEEDUP,
    target_topk_speedup: float = DEFAULT_TARGET_TOPK_SPEEDUP,
) -> dict:
    """Measure frozen vs cascade/bounded query latency on one warm index."""
    graph = datasets.load_dataset(dataset, scale=scale, seed=seed)
    index = SlingIndex(graph, epsilon=epsilon, seed=seed).build()
    n = graph.num_nodes
    corrections = index.correction_factors
    params = index.parameters

    rng = np.random.default_rng(seed)
    hot = max(2, int(n * hot_fraction))
    # Zipf-ish skew: half the workload hits the hot prefix, half is uniform —
    # the warm-cache regime the bounded path is designed for.
    sources = [
        int(node)
        for node in np.concatenate(
            [
                rng.integers(0, hot, num_sources // 2),
                rng.integers(0, n, num_sources - num_sources // 2),
            ]
        )
    ]

    state = index._serving()
    views = {node: state.query_view(node) for node in set(sources)}
    budget = params.epsilon / 4.0

    # -- guards (before any timing is trusted) ---------------------------- #
    parity_ok = True
    accuracy_ok = True
    topk_agreement_ok = True
    max_cascade_error = 0.0
    max_bounded_error = 0.0
    for node in sorted(set(sources)):
        frozen = frozen_single_source(
            graph, views[node], corrections, params.sqrt_c, params.theta
        )
        exact = index.single_source(node)
        if not np.array_equal(frozen, exact):
            parity_ok = False
        cascade = index.single_source(node, method="cascade")
        cascade_error = float(np.max(np.abs(cascade - frozen)))
        max_cascade_error = max(max_cascade_error, cascade_error)
        if cascade_error > epsilon:
            accuracy_ok = False
        result = index.top_k_bounded(node, k, budget=budget)
        reference = frozen_top_k(
            graph, views[node], corrections, params.sqrt_c, params.theta, node, k
        )
        bounded_error = max(
            (abs(score - float(frozen[ranked_node])) for ranked_node, score in result.ranked),
            default=0.0,
        )
        max_bounded_error = max(max_bounded_error, bounded_error)
        if bounded_error > epsilon:
            accuracy_ok = False
        slack = result.tail_bound + cascade_error
        if not _sets_consistent(result.ranked, reference, frozen, slack):
            topk_agreement_ok = False
        elif not _order_consistent(result.ranked, frozen, slack):
            topk_agreement_ok = False

    # -- single source (frozen vs bincount-exact vs cascade) -------------- #
    def run_frozen_sources():
        for node in sources:
            frozen_single_source(
                graph, views[node], corrections, params.sqrt_c, params.theta
            )

    def run_exact_sources():
        for node in sources:
            index.single_source(node)

    def run_cascade_sources():
        for node in sources:
            index.single_source(node, method="cascade")

    frozen_source_seconds = _best_of(run_frozen_sources, repeats)
    exact_source_seconds = _best_of(run_exact_sources, repeats)
    cascade_source_seconds = _best_of(run_cascade_sources, repeats)

    # -- top-k (frozen vs bounded, warm store metadata) -------------------- #
    index.packed_store.level_stats()  # warm the residual-mass metadata

    def run_frozen_topk():
        for node in sources:
            frozen_top_k(
                graph, views[node], corrections, params.sqrt_c, params.theta, node, k
            )

    def run_bounded_topk():
        for node in sources:
            index.top_k(node, k, method="bounded", budget=budget)

    frozen_topk_seconds = _best_of(run_frozen_topk, repeats)
    bounded_topk_seconds = _best_of(run_bounded_topk, repeats)

    def cell(baseline_seconds: float, optimized_seconds: float, count: int) -> dict:
        return {
            "baseline_seconds": baseline_seconds,
            "optimized_seconds": optimized_seconds,
            "baseline_microseconds_each": 1e6 * baseline_seconds / count,
            "optimized_microseconds_each": 1e6 * optimized_seconds / count,
            "speedup": (
                baseline_seconds / optimized_seconds if optimized_seconds else 0.0
            ),
        }

    cells = {
        "single_source": cell(
            frozen_source_seconds, cascade_source_seconds, num_sources
        ),
        "single_source_exact": cell(
            frozen_source_seconds, exact_source_seconds, num_sources
        ),
        "top_k_warm": cell(frozen_topk_seconds, bounded_topk_seconds, num_sources),
    }
    return {
        "benchmark": "single_source",
        "dataset": dataset,
        "scale": scale,
        "epsilon": epsilon,
        "num_nodes": n,
        "num_edges": graph.num_edges,
        "num_hitting_entries": index.packed_store.num_entries,
        "num_sources": num_sources,
        "k": k,
        "budget": budget,
        "repeats": repeats,
        "seed": seed,
        "cells": cells,
        "speedups": {name: c["speedup"] for name, c in cells.items()},
        "max_cascade_error": max_cascade_error,
        "max_bounded_error": max_bounded_error,
        "parity_ok": bool(parity_ok),
        "accuracy_ok": bool(accuracy_ok),
        "topk_agreement_ok": bool(topk_agreement_ok),
        "targets": {
            "single_source": target_source_speedup,
            "top_k_warm": target_topk_speedup,
        },
        "meets_targets": {
            "single_source": cells["single_source"]["speedup"]
            >= target_source_speedup,
            "top_k_warm": cells["top_k_warm"]["speedup"] >= target_topk_speedup,
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
    parser.add_argument("--sources", type=int, default=40)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
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
        overrides = {"scale": 0.05, "num_sources": 10, "repeats": 2}
    payload = run_benchmark(
        dataset=args.dataset,
        scale=overrides.get("scale", args.scale),
        epsilon=args.epsilon,
        num_sources=overrides.get("num_sources", args.sources),
        k=args.k,
        repeats=overrides.get("repeats", args.repeats),
        seed=args.seed,
        target_source_speedup=args.target_source,
        target_topk_speedup=args.target_topk,
    )
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

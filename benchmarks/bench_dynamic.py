#!/usr/bin/env python3
"""Dynamic-graph maintenance: incremental repair vs full rebuild, plus a
mutation storm through the sharded serving stack.

Three questions, one payload:

* **Is incremental repair worth it?**  The ``incremental_update`` cell
  times a from-scratch :class:`~repro.sling.SlingIndex` build against the
  mean cost of a single-edge :meth:`~repro.sling.DynamicSlingIndex.mutate`
  batch on the same graph.  The recorded target is a >= 10x advantage —
  the repair touches only the affected hitting-set entries and re-samples
  only the mutated heads' correction factors, while the rebuild pays for
  every node.  The cell keeps both terms of the ratio (``seconds`` per
  repair, ``build_seconds``) and the mean ``affected_targets`` a repair
  re-pushed, so a moving ratio can be traced to the repair or the rebuild.

* **Does serving survive a mutation storm?**  The ``mutation_storm`` cell
  replays a seeded mutation-bearing traffic stream (see
  ``repro.evaluation.traffic``) through a 2-worker router and records
  query p50/p99 while ``mutate`` control requests interleave with reads.
  ``version_echo_ok`` asserts the core consistency contract along the
  way: the stream is serial, so every answer must echo exactly the
  ``index_version`` acknowledged by the most recent mutation — a stale
  cached vector passed off under a newer version would break the echo.

* **Is the staleness certificate honest?**  Before the re-freeze the
  store columns of a node sample must already be **bitwise** those of a
  from-scratch rebuild on the mutated graph (``dirty_store_parity_ok``:
  every mutation re-packs its targets' records), and the maximum deviation
  of every sampled single-source vector from the rebuild must stay within
  the certified ``ε_stale`` (``eps_stale_ok``); after
  :meth:`~repro.sling.DynamicSlingIndex.refreeze` the correction factors
  and the sample's store columns and answers must be **bitwise**
  rebuild-identical (``rebuild_parity_ok``).

    PYTHONPATH=src python benchmarks/bench_dynamic.py --smoke

``benchmarks/record.py`` records the payload as ``BENCH_dynamic.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.engine import latency_quantiles
from repro.evaluation.traffic import TrafficPattern, generate_traffic
from repro.graphs import datasets
from repro.service import Address, Router, SimRankClient, WorkerPool
from repro.sling import DynamicSlingIndex, SlingIndex

DEFAULT_SPEEDUP_TARGET = 10.0
ROUTER_WORKERS = 2


def _storm_pattern(*, num_queries: int, seed: int) -> TrafficPattern:
    """Read-heavy traffic with a steady trickle of edge mutations."""
    return TrafficPattern(
        num_queries=num_queries,
        seed=seed,
        zipf_exponent=1.2,
        hot_set_size=8,
        top_k_fraction=0.45,
        single_source_fraction=0.25,
        mutation_fraction=0.08,
        mutation_batch=1,
        mutation_refreeze_every=4,
    )


def time_incremental_vs_rebuild(
    graph, *, epsilon: float, seed: int, num_batches: int
) -> tuple[dict, DynamicSlingIndex]:
    """Time a full build and ``num_batches`` single-edge incremental
    repairs on the same graph; returns the cell and the (dirty) index."""
    begin = time.perf_counter()
    base = SlingIndex(graph, epsilon=epsilon, seed=seed).build()
    build_seconds = time.perf_counter() - begin

    index = DynamicSlingIndex.from_index(base)
    rng = np.random.default_rng(seed)
    batch_seconds = []
    affected_targets = []
    for _ in range(num_batches):
        while True:
            u, v = (int(x) for x in rng.integers(0, graph.num_nodes, size=2))
            if u != v and not index.graph.has_edge(u, v):
                break
        begin = time.perf_counter()
        report = index.add_edges([(u, v)])
        batch_seconds.append(time.perf_counter() - begin)
        affected_targets.append(report.affected_targets)
    incremental_seconds = float(np.mean(batch_seconds))
    cell = {
        "label": "single-edge incremental repair vs full rebuild",
        "build_seconds": build_seconds,
        "seconds": incremental_seconds,
        "affected_targets": float(np.mean(affected_targets)),
        "batches": num_batches,
        "edges_per_batch": 1,
        "speedup": build_seconds / incremental_seconds,
    }
    return cell, index


def _same_entries(index, fresh, node: int) -> bool:
    """Whether ``node``'s packed segment (keys included) is the rebuild's."""
    mine = index.packed_store.node_view(node)
    theirs = fresh.packed_store.node_view(node)
    return all(
        np.array_equal(getattr(mine, column), getattr(theirs, column))
        for column in ("keys", "levels", "targets", "values")
    )


def check_staleness_and_parity(
    index: DynamicSlingIndex, *, epsilon: float, seed: int, sample: int
) -> tuple[bool, bool, bool, dict]:
    """``(eps_stale_ok, dirty_store_parity_ok, rebuild_parity_ok, detail)``
    for the dirty index."""
    bound = index.staleness_bound()
    fresh = SlingIndex(index.graph, epsilon=epsilon, seed=seed).build()
    rng = np.random.default_rng(seed + 1)
    nodes = rng.choice(
        index.graph.num_nodes, size=min(sample, index.graph.num_nodes),
        replace=False,
    )
    max_deviation = max(
        float(np.abs(index.single_source(int(n)) - fresh.single_source(int(n))).max())
        for n in nodes
    )
    eps_stale_ok = bool(index.is_dirty and max_deviation <= bound)
    dirty_store_parity_ok = bool(
        index.is_dirty
        and index.packed_store.num_entries == fresh.packed_store.num_entries
        and all(_same_entries(index, fresh, int(n)) for n in nodes)
    )

    index.refreeze()
    parity = bool(
        np.array_equal(index.correction_factors, fresh.correction_factors)
        and index.packed_store.num_entries == fresh.packed_store.num_entries
        and not index.is_dirty
    )
    for n in nodes:
        n = int(n)
        if not np.array_equal(index.single_source(n), fresh.single_source(n)):
            parity = False
            break
        if not _same_entries(index, fresh, n):
            parity = False
            break
    detail = {
        "staleness_bound": bound,
        "max_deviation_while_dirty": max_deviation,
        "parity_sample_nodes": len(nodes),
    }
    return eps_stale_ok, dirty_store_parity_ok, parity, detail


def run_mutation_storm(
    dataset: str, *, scale: float, epsilon: float, seed: int, num_queries: int
) -> tuple[dict, bool]:
    """Replay a mutation-bearing stream through a 2-worker router.

    Returns the recorded cell and the version-echo verdict: the replay is
    serial, so each answer must carry exactly the ``index_version`` of the
    most recent mutation ack (and none before the first mutation).
    """
    graph = datasets.load_dataset(dataset, scale=scale, seed=seed)
    pattern = _storm_pattern(num_queries=num_queries, seed=seed)
    events = generate_traffic({dataset: graph.num_nodes}, pattern)
    serve_args = [
        "--scale", str(scale),
        "--epsilon", str(epsilon),
        "--seed", str(seed),
        "--backend", "sling",
    ]
    pool = WorkerPool(ROUTER_WORKERS, serve_args=serve_args)
    pool.start()
    router = Router(
        pool, address=Address(family="tcp", host="127.0.0.1", port=0)
    )
    router.start()
    echo_ok = True
    expected_version: int | None = None
    mutations = 0
    samples: list[float] = []
    mutate_samples: list[float] = []
    try:
        client = SimRankClient(address=str(router.address))
        client.open_dataset(dataset)
        begin = time.perf_counter()
        for event in events:
            started = time.perf_counter()
            result = client.execute(event.query)
            elapsed = time.perf_counter() - started
            if not result.ok:
                raise RuntimeError(
                    f"{event.kind} failed mid-storm: {result.error.message}"
                )
            if event.kind == "mutate":
                mutations += 1
                expected_version = result.value["index_version"]
                mutate_samples.append(elapsed)
            else:
                samples.append(elapsed)
                if result.index_version != expected_version:
                    echo_ok = False
        seconds = time.perf_counter() - begin
        client.close()
    finally:
        router.stop()
    overall = latency_quantiles(samples)
    mutate = latency_quantiles(mutate_samples) if mutate_samples else {}
    cell = {
        "label": f"{num_queries}-event storm through {ROUTER_WORKERS}-worker "
                 "router",
        "seconds": seconds,
        "queries": len(samples),
        "mutations": mutations,
        "queries_per_second": len(samples) / seconds,
        "p50_ms": 1e3 * overall["p50"],
        "p99_ms": 1e3 * overall["p99"],
        "mutate_p50_ms": 1e3 * mutate.get("p50", 0.0),
        "mutate_p99_ms": 1e3 * mutate.get("p99", 0.0),
        "final_index_version": expected_version,
    }
    return cell, bool(echo_ok and mutations > 0)


def run_benchmark(
    *,
    dataset: str = "HepTh",
    scale: float = 1.0,
    epsilon: float = 0.05,
    seed: int = 0,
    num_batches: int = 5,
    storm_queries: int = 400,
    storm_scale: float = 0.05,
    parity_sample: int = 50,
    speedup_target: float = DEFAULT_SPEEDUP_TARGET,
) -> dict:
    graph = datasets.load_dataset(dataset, scale=scale, seed=seed)
    cell, index = time_incremental_vs_rebuild(
        graph, epsilon=epsilon, seed=seed, num_batches=num_batches
    )
    eps_stale_ok, dirty_store_parity_ok, rebuild_parity_ok, guard_detail = (
        check_staleness_and_parity(
            index, epsilon=epsilon, seed=seed, sample=parity_sample
        )
    )
    storm_cell, version_echo_ok = run_mutation_storm(
        dataset,
        scale=storm_scale,
        epsilon=epsilon,
        seed=seed,
        num_queries=storm_queries,
    )
    speedups = {"incremental_update": cell["speedup"]}
    targets = {"incremental_update": speedup_target}
    return {
        "benchmark": "dynamic",
        "dataset": dataset,
        "scale": scale,
        "storm_scale": storm_scale,
        "epsilon": epsilon,
        "seed": seed,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "cells": {"incremental_update": cell, "mutation_storm": storm_cell},
        "speedups": speedups,
        "targets": targets,
        "meets_targets": {
            name: speedups[name] >= target for name, target in targets.items()
        },
        "guards": guard_detail,
        "eps_stale_ok": eps_stale_ok,
        "dirty_store_parity_ok": dirty_store_parity_ok,
        "rebuild_parity_ok": rebuild_parity_ok,
        "version_echo_ok": version_echo_ok,
    }


SMOKE_OVERRIDES = {
    "scale": 0.2,
    "num_batches": 3,
    "storm_queries": 120,
    "parity_sample": 25,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="HepTh")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--storm-queries", type=int, default=None)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small-scale run for CI: same payload shape, faster",
    )
    args = parser.parse_args(argv)
    overrides: dict = dict(SMOKE_OVERRIDES) if args.smoke else {}
    overrides["dataset"] = args.dataset
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.batches is not None:
        overrides["num_batches"] = args.batches
    if args.storm_queries is not None:
        overrides["storm_queries"] = args.storm_queries
    payload = run_benchmark(**overrides)
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

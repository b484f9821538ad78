#!/usr/bin/env python3
"""Quickstart: answer SimRank queries through the service API.

The script builds a small planted-community graph, registers it as a named
dataset session on a :class:`~repro.service.SimRankService` (served by the
SLING index, with the paper's default decay factor), and walks
through the typed query kinds: single-pair, single-source, and top-k.  Every
answer arrives as a :class:`QueryResult` envelope carrying the value, the
chosen backend, and the observed latency.  It finishes by sweeping a
single-source query over every node and checking the answers against the
exact power-method scores so you can see the ε guarantee in action.

Run with:

    python examples/quickstart.py [--nodes-per-community 20] [--epsilon 0.05]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.baselines import PowerMethod
from repro.engine import BackendConfig
from repro.graphs import generators
from repro.service import (
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)

DATASET = "quickstart"


def run(service: SimRankService, query):
    """Execute one query, surfacing a structured error envelope if it fails."""
    result = service.execute(query)
    if not result.ok:
        raise SystemExit(
            f"query failed [{result.error.code}]: {result.error.message}"
        )
    return result


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--communities", type=int, default=3)
    parser.add_argument("--nodes-per-community", type=int, default=20)
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def main() -> None:
    args = parse_args()

    print("1. Building a planted-community graph ...")
    graph = generators.two_level_community(
        args.communities, args.nodes_per_community, seed=args.seed
    )
    print(f"   {graph!r}")

    print(f"2. Opening a dataset session on the service (epsilon = {args.epsilon}) ...")
    service = SimRankService(
        ServiceConfig(
            backend_config=BackendConfig(epsilon=args.epsilon, seed=args.seed)
        )
    )
    session = service.open_dataset(DATASET, graph=graph)
    engine = session.engine()  # builds the default backend's index
    print(f"   backend: {engine.backend.name!r}")
    print(f"   {engine.backend.index.build_statistics.summary()}")
    print(f"   index size: {engine.backend.index_size_bytes() / 1024:.1f} KiB")

    print("3. Single-pair queries (same community vs. different community):")
    same = run(service, SinglePairQuery(DATASET, 0, 1))
    cross = run(service, SinglePairQuery(DATASET, 0, args.nodes_per_community + 1))
    print(f"   s(0, 1)                      = {same.value:.4f}")
    print(f"   s(0, {args.nodes_per_community + 1})                     = {cross.value:.4f}")
    print(f"   (each answered by {same.backend!r} in {1000 * same.seconds:.2f} ms)")

    print("4. Single-source query from node 0 (Algorithm 6):")
    scores = np.asarray(run(service, SingleSourceQuery(DATASET, 0)).value)
    print(f"   mean similarity inside community 0:  "
          f"{scores[1:args.nodes_per_community].mean():.4f}")
    print(f"   mean similarity outside community 0: "
          f"{scores[args.nodes_per_community:].mean():.4f}")

    print("5. Top-5 most similar nodes to node 0:")
    top = run(service, TopKQuery(DATASET, node=0, k=5))
    for entry in top.value:
        print(f"   #{entry['rank']}: node {entry['node']:3d}  score {entry['score']:.4f}")
    print(f"   (cache hit: {top.cache_hit} — the single-source vector was reused)")

    print("6. Verifying the accuracy guarantee against the power method ...")
    truth = PowerMethod(graph, num_iterations=40).build().all_pairs()
    estimated = np.stack([
        np.asarray(run(service, SingleSourceQuery(DATASET, node)).value)
        for node in range(graph.num_nodes)
    ])
    observed_error = float(np.abs(estimated - truth).max())
    print(f"   maximum observed error: {observed_error:.5f} "
          f"(guaranteed bound: {args.epsilon})")
    if observed_error > args.epsilon:
        raise SystemExit("accuracy guarantee violated — this should not happen")
    print("   the guarantee holds.")
    print(f"   engine statistics: {engine.statistics.summary()}")
    print(f"   open sessions: {service.list_datasets()}")


if __name__ == "__main__":
    main()

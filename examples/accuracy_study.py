#!/usr/bin/env python3
"""Accuracy study: SLING vs. Linearize vs. MC against exact SimRank.

A compact, runnable version of the paper's Figures 5-7 on one dataset
stand-in: it builds every method, computes all-pairs SimRank scores, and
prints the maximum error, the per-group average error, and the top-k
precision of each method relative to the power-method ground truth.

Run with:

    python examples/accuracy_study.py [--dataset GrQc] [--scale 0.25]
"""

from __future__ import annotations

import argparse

from repro.engine import BackendConfig, create_backend
from repro.evaluation import (
    GroundTruthCache,
    grouped_errors,
    max_error,
    top_k_precision,
)
from repro.graphs import datasets


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="GrQc", choices=datasets.dataset_names())
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--epsilon", type=float, default=0.025)
    parser.add_argument("--top-k", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = BackendConfig(epsilon=args.epsilon, seed=args.seed, mc_num_walks=400)

    print(f"Loading the {args.dataset} stand-in (scale = {args.scale}) ...")
    graph = datasets.load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(f"  {graph!r}")

    print("Computing the power-method ground truth (50 iterations) ...")
    truth = GroundTruthCache().get(graph, c=config.c)

    header = (
        f"{'method':<12} {'max error':>12} {'avg err S1':>12} "
        f"{'avg err S2':>12} {'avg err S3':>12} {'prec@'+str(args.top_k):>10}"
    )
    print()
    print(header)
    print("-" * len(header))
    for method_name in ("SLING", "Linearize", "MC"):
        method = create_backend(method_name, graph, config)
        estimated = method.all_pairs()
        groups = grouped_errors(estimated, truth).as_dict()
        print(
            f"{method_name:<12} "
            f"{max_error(estimated, truth):>12.6f} "
            f"{groups.get('S1', float('nan')):>12.6f} "
            f"{groups.get('S2', float('nan')):>12.6f} "
            f"{groups.get('S3', float('nan')):>12.6f} "
            f"{top_k_precision(estimated, truth, args.top_k):>10.3f}"
        )
    print()
    print(
        f"SLING's stipulated error bound is epsilon = {args.epsilon}; its observed "
        "maximum error should sit comfortably below that, while Linearize and MC "
        "carry no comparable guarantee (Section 7.2 of the paper)."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: drive the service through the `SimRankClient` library.

One client surface, two transports.  The script runs the same tour twice:

1. **in-process** — the client wraps a :class:`~repro.service.SimRankService`
   in this interpreter (requests still round-trip through the protocol-v2
   envelope and frame codecs, so nothing is faked);
2. **socket** — the client spawns a private ``repro serve --unix`` child
   and speaks v2 JSONL to it over a Unix-domain socket: hello handshake,
   id-correlated requests, chunked ``partial``/``done`` streaming, and a
   clean ``shutdown``.

The tour exercises both planes: the three query kinds (single-pair,
single-source — once monolithic, once streamed in chunks — and top-k) and
the control operations (ping, open/list/close datasets, stats, describe).  At the end it checks the two transports returned
identical values, which is the client library's core promise.

Run with:

    PYTHONPATH=src python examples/client_quickstart.py [--scale 0.05]
"""

from __future__ import annotations

import argparse

from repro.engine import BackendConfig
from repro.service import ServiceConfig, SimRankClient


def tour(client: SimRankClient, label: str) -> dict:
    """Run the full protocol tour; return the values for parity checking."""
    print(f"\n=== {label} ===")
    hello = client.hello()
    print(f"hello: protocol v{hello['protocol']}, "
          f"{len(hello['backends'])} backends, registry {hello['registry'][:4]}...")
    print(f"ping: {client.ping()}")

    opened = client.open_dataset("GrQc")
    print(f"open_dataset: {opened['num_nodes']} nodes, "
          f"{opened['num_edges']} edges")

    pair = client.single_pair("GrQc", 1, 2)
    print(f"s(1, 2) = {pair:.6f}")

    monolithic = client.single_source("GrQc", 0)
    streamed = client.single_source("GrQc", 0, chunk_size=8)
    assert streamed == monolithic, "chunking must not change the answer"
    print(f"single_source(0): {len(streamed.index)} of {streamed.n} scores "
          "nonzero (streamed in 8-nonzero chunks, reassembled exactly)")

    top = client.top_k("GrQc", 3, k=5)
    print("top-5 for node 3: "
          + ", ".join(f"{e['node']}:{e['score']:.4f}" for e in top))

    print(f"open sessions: {client.list_datasets()}")
    described = client.describe("GrQc")
    for key, engine in described["engines"].items():
        print(f"describe[{key}]: backend={engine['backend']} "
              f"cached={engine['cached_vectors']} "
              f"queries={engine['statistics']['total_queries']}")
    totals = client.stats()["totals"]
    print(f"stats: {totals['total_queries']} queries, "
          f"{totals['cache_hits']} cache hits")
    print(f"close_dataset: {client.close_dataset('GrQc')}")
    return {"pair": pair, "single_source": monolithic, "top": top}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset stand-in scale (default: 0.05)")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with SimRankClient.in_process(
        config=ServiceConfig(
            scale=args.scale,
            seed=args.seed,
            backend_config=BackendConfig(epsilon=args.epsilon, seed=args.seed),
        )
    ) as local:
        local_values = tour(local, "in-process transport")

    with SimRankClient.connect(
        scale=args.scale, epsilon=args.epsilon, seed=args.seed
    ) as remote:
        remote_values = tour(remote, "socket transport (repro serve --unix child)")

    assert local_values == remote_values, "transports diverged!"
    print("\nboth transports returned identical values — parity holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

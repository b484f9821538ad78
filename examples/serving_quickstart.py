#!/usr/bin/env python3
"""Quickstart: socket serving and the sharded multi-process router.

Two tours of the network layer (`repro.service.net`):

1. **socket transport** — ``SimRankClient.connect()`` spawns a private
   ``repro serve --unix`` child and speaks protocol v2 to it over a
   Unix-domain socket; a *second* client then attaches to the same server
   by address (``SimRankClient(address=...)``) and reads the warm state
   the first one created: one server, any number of clients.
2. **router** — a :class:`~repro.service.WorkerPool` of two real worker
   processes fronted by a :class:`~repro.service.Router`: each dataset is
   owned by one worker (consistent hashing, here overridden with pins),
   queries relay to the owner, and control-plane requests (``stats``,
   ``list_datasets``) fan out to every worker and merge — including
   latency percentiles recomputed across the fleet.

Run with:

    PYTHONPATH=src python examples/serving_quickstart.py [--scale 0.05]
"""

from __future__ import annotations

import argparse

from repro.service import Address, Router, SimRankClient, WorkerPool


def socket_tour(scale: float, epsilon: float, seed: int) -> None:
    print("=== socket transport (owned `repro serve --unix` child) ===")
    with SimRankClient.connect(
        scale=scale, epsilon=epsilon, seed=seed
    ) as owner:
        address = owner.address
        print(f"serving on {address}")
        print(f"ping: {owner.ping()}")
        opened = owner.open_dataset("GrQc")
        print(f"open_dataset: {opened['num_nodes']} nodes")
        print(f"s(1, 2) = {owner.single_pair('GrQc', 1, 2):.6f}")

        # A second client attaches to the same address and sees the same
        # warm service: the session the first client opened answers it.
        guest = SimRankClient(address=address)
        assert guest.list_datasets() == ["GrQc"]
        top = guest.top_k("GrQc", 3, k=5)
        print("top-5 for node 3 (second client, same server): "
              + ", ".join(f"{e['node']}:{e['score']:.4f}" for e in top))
        guest.close()  # disconnects; the owner's server keeps running
        print(f"still serving after guest left: {owner.ping()['pong']}")
    print("owner closed -> child reaped, socket unlinked\n")


def router_tour(scale: float, epsilon: float, seed: int) -> None:
    print("=== router (2 worker processes, per-dataset sharding) ===")
    serve_args = [
        "--scale", str(scale), "--epsilon", str(epsilon), "--seed", str(seed),
    ]
    pool = WorkerPool(2, serve_args=serve_args)
    pool.start()
    router = Router(
        pool,
        address=Address(family="tcp", host="127.0.0.1", port=0),
        pins={"GrQc": 0, "AS": 1},  # force the shards apart for the demo
    )
    router.start()
    try:
        client = SimRankClient(address=str(router.address))
        for name in ("GrQc", "AS"):
            client.open_dataset(name)
            print(f"{name} -> worker {router.shard_for(name)}")
        print(f"s_GrQc(1, 2) = {client.single_pair('GrQc', 1, 2):.6f}")
        print(f"s_AS(1, 2)   = {client.single_pair('AS', 1, 2):.6f}")

        # list/stats fan out to every worker and merge into one view.
        print(f"datasets across the fleet: {client.list_datasets()}")
        totals = client.stats()["totals"]
        print(f"merged stats: {totals['total_queries']} queries, "
              f"p99(single_pair) = "
              f"{totals['latency_percentiles']['single_pair']['p99']*1e3:.2f} ms")

        # One shutdown request stops the router and every worker.
        print(f"shutdown: {client.shutdown()}")
        client.close()
        router.wait(timeout=60)
        print(f"worker restarts while serving: {pool.restart_counts()}")
    finally:
        router.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset stand-in scale (default: 0.05)")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    socket_tour(args.scale, args.epsilon, args.seed)
    router_tour(args.scale, args.epsilon, args.seed)
    print("\nserving tour complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Dynamic graphs: mutate a live index while queries keep flowing.

The dynamic-graph subsystem keeps a SLING index serving while the graph
underneath it changes.  Edge deltas re-push only the affected targets and
re-pack the store, and re-sample only the changed heads' correction
factors; every answer in the staleness window carries the monotonic
``index_version`` it was computed against and a certified bound
``ε_stale`` on how far it can drift from a from-scratch rebuild; a
``refreeze`` re-estimates every correction factor, after which answers
have bitwise rebuild parity.

This example generates one mutation-bearing traffic stream (the same one
``repro workload --mutations`` emits) and replays it through a
:class:`~repro.service.SimRankClient` over an in-process sling-backed
service, checking along the way that

* every mutation ack advances ``index_version`` and certifies a bound,
* every query answered after a mutation echoes the acked version (the
  stream is serial, so a stale cached vector would break the echo),
* a final ``refreeze`` returns ``ε_stale`` to 0.0.

Run with:

    PYTHONPATH=src python examples/dynamic_graph.py [--queries 300]
"""

from __future__ import annotations

import argparse

from repro.engine import BackendConfig
from repro.evaluation.traffic import (
    TrafficPattern,
    generate_traffic,
    summarize_events,
)
from repro.graphs import generators
from repro.service import ServiceConfig, SimRankClient, SimRankService


def build_stream(num_nodes: int, queries: int, seed: int):
    pattern = TrafficPattern(
        num_queries=queries,
        seed=seed,
        zipf_exponent=1.2,
        hot_set_size=10,
        top_k_fraction=0.4,
        single_source_fraction=0.3,
        mutation_fraction=0.1,
        mutation_batch=2,
        mutation_refreeze_every=5,
    )
    return generate_traffic({"community": num_nodes}, pattern)


def replay(client: SimRankClient, events) -> dict:
    """Stream the events through the client; returns replay facts."""
    expected_version = None
    echo_ok = True
    acks = []
    queries = 0
    for event in events:
        result = client.execute(event.query)
        assert result.ok, f"{event.kind} failed: {result.error.message}"
        if event.kind == "mutate":
            ack = result.value
            acks.append(ack)
            expected_version = ack["index_version"]
            flavor = "refreeze" if ack["refrozen"] else "repair"
            print(
                f"  [{flavor:8s}] version {ack['index_version']:>2} "
                f"+{ack['edges_added']}/-{ack['edges_removed']} edges, "
                f"{ack['affected_targets']} targets repaired, "
                f"{ack['invalidated_vectors']} vectors invalidated, "
                f"eps_stale={ack['epsilon_stale']:.3f}"
            )
        else:
            queries += 1
            if expected_version is not None:
                # Serial stream: each answer must echo the acked version.
                echo_ok = echo_ok and result.index_version == expected_version
    return {
        "acks": acks,
        "queries": queries,
        "echo_ok": echo_ok,
        "final_version": expected_version,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--communities", type=int, default=3,
                        help="communities in the generated graph (default: 3)")
    parser.add_argument("--community-size", type=int, default=10,
                        help="nodes per community (default: 10)")
    parser.add_argument("--queries", type=int, default=300,
                        help="traffic events to stream (default: 300)")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    graph = generators.two_level_community(
        args.communities, args.community_size, seed=args.seed
    )
    events = build_stream(graph.num_nodes, args.queries, args.seed)
    summary = summarize_events(events)
    print(f"stream: {summary['num_queries']} events "
          f"({summary['by_kind'].get('mutate', 0)} mutations) over "
          f"{graph.num_nodes} nodes, kinds {summary['by_kind']}")

    service = SimRankService(
        ServiceConfig(
            backend="sling",
            backend_config=BackendConfig(epsilon=args.epsilon, seed=args.seed),
        )
    )
    service.open_dataset("community", graph=graph)
    with SimRankClient.in_process(service) as client:
        facts = replay(client, events)

        repairs = [a for a in facts["acks"] if not a["refrozen"]]
        refreezes = [a for a in facts["acks"] if a["refrozen"]]
        print(f"\n{facts['queries']} queries interleaved with "
              f"{len(repairs)} incremental repairs and "
              f"{len(refreezes)} re-freezes")
        versions = [a["index_version"] for a in facts["acks"]]
        assert versions == sorted(versions), "index_version must be monotonic"
        print(f"index_version advanced monotonically to "
              f"{facts['final_version']}")
        assert facts["echo_ok"], "a query echoed the wrong index_version!"
        print("every post-mutation answer echoed the acked index_version")

        # Compact whatever deltas are still outstanding: the certificate
        # returns to 0.0 and answers regain bitwise rebuild parity.
        final = client.mutate("community", refreeze=True)
        print(f"final refreeze: version {final['index_version']}, "
              f"eps_stale={final['epsilon_stale']:.3f}")
        assert final["epsilon_stale"] == 0.0

        totals = client.stats()["totals"]
        described = client.describe("community")
        print(f"stats: {totals['total_queries']} queries, "
              f"{totals['cache_hits']} cache hits, "
              f"{totals['cache_invalidations']} vectors invalidated, "
              f"serving index_version {described['index_version']}")
    print("dynamic graph tour complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

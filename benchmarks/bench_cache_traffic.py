#!/usr/bin/env python3
"""Caching under realistic traffic: hit rate and tail latency vs cache size.

``bench_serving`` proved the router scales; this benchmark proves the
**cache** earns its keep on traffic shaped like a real public service
(SkyServer-style: Zipf-skewed sources, a hot set that drifts, arrival
bursts, a uniform long tail — see ``repro.evaluation.traffic``).  One
seeded :class:`~repro.evaluation.traffic.TrafficPattern` generates a
single wire-ready event stream; the *same* stream then drives:

* an in-process :class:`~repro.service.SimRankService` at cache sizes
  0 / small / large (same saved SLING index attached read-only each
  time), and
* a 2-worker router front end at the large cache size — proving the
  stats plumbing and the cache behavior survive the multi-process path.

Before the timed drive, each configuration warms the cache with one
single-source sweep over the stream's distinct sources (at the large
size the per-dataset LRU covers every source, so the steady-state
hit rate is the pattern's cacheable fraction; at size 0 the sweep is a
no-op).  Hit rates come from service ``stats`` counter deltas — the
same ``cache_hits`` / ``cache_misses`` definition the engine, service,
and router all share.

``identical_values`` asserts the cache never changes answers: the
normalised value of every timed query (``bench_serving._normalise``: a
``single_source`` answer as its densified float64 bytes, the rest as
JSON) is byte-identical across the three local cache configurations, and ``router_identical_values``
extends that to the router run.  The stream keeps ``single_pair``
queries **cold** (canonical nodes outside the source region) and the
service runs with cross-kind admission disabled, because on the sling
backend a pair read from a cached vector and a pair estimated directly
agree only within the accuracy target — admission would leak cache
state into values, which is exactly what the guard forbids.  (Admission
correctness is covered by the engine unit tests against an exact
backend.)

Recorded guards: warm hit rate at the large cache >= ``--hit-target``
(default 0.5) and cacheable-query p99 at cache 0 at least
``--p99-target`` (default 2x) the large-cache p99.

    PYTHONPATH=src python benchmarks/bench_cache_traffic.py --smoke

``benchmarks/record.py`` records the payload as
``BENCH_cache_traffic.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

from _config import latency_ms_by_kind
from repro.engine import latency_quantiles
from repro.evaluation.traffic import (
    TrafficPattern,
    generate_traffic,
    summarize_events,
    traffic_sources,
)
from repro.service import (
    Address,
    Router,
    ServiceConfig,
    SimRankClient,
    SimRankService,
    SingleSourceQuery,
    WorkerPool,
)

from bench_serving import _normalise, prebuild_indexes

DEFAULT_HIT_TARGET = 0.5
DEFAULT_P99_TARGET = 2.0
DEFAULT_DATASETS = ("GrQc", "HepTh")
ROUTER_WORKERS = 2

#: Cache sizes under test: none, far smaller than the source set, and
#: large enough to cover every source a dataset's stream touches.
CACHE_SIZES = {"cache_0": 0, "cache_small": 16, "cache_large": 160}

#: Query kinds a single-source vector cache can serve.
CACHEABLE_KINDS = ("top_k", "single_source")


def build_pattern(
    *,
    num_queries: int,
    seed: int,
    source_span: int,
    hot_set_size: int,
    drift_every: int,
    drift_step: int,
    k: int,
) -> TrafficPattern:
    """The benchmark's traffic shape: skewed, drifting, bursty, pair-cold."""
    return TrafficPattern(
        num_queries=num_queries,
        seed=seed,
        zipf_exponent=1.2,
        hot_set_size=hot_set_size,
        drift_every=drift_every,
        drift_step=drift_step,
        burst_every=160,
        burst_length=32,
        burst_hot_bias=0.85,
        tail_fraction=0.08,
        top_k_fraction=0.70,
        single_source_fraction=0.15,
        k=k,
        source_span=source_span,
        pair_mode="cold",
    )


def _warm_sources(execute, sources: dict[str, list[int]]) -> None:
    """One single-source sweep per distinct (dataset, source): after this,
    every cacheable query of the stream has its vector resident (capacity
    permitting)."""
    for name, nodes in sources.items():
        for node in nodes:
            result = execute(SingleSourceQuery(dataset=name, node=node))
            if not result.ok:
                raise RuntimeError(
                    f"warm sweep failed on {name}/{node}: {result.error.message}"
                )


def _drive(execute, events, *, warmup: int) -> dict:
    """Run the stream; time and capture values from position ``warmup`` on."""
    values: list[str] = []
    samples: list[tuple[str, float]] = []
    timed_started = None
    for position, event in enumerate(events):
        if position == warmup:
            timed_started = time.perf_counter()
        begin = time.perf_counter()
        result = execute(event.query)
        elapsed = time.perf_counter() - begin
        if not result.ok:
            raise RuntimeError(
                f"{event.kind} @ {position} failed: {result.error.message}"
            )
        if timed_started is not None:
            samples.append((event.kind, elapsed))
            values.append(_normalise(result.value))
    seconds = time.perf_counter() - timed_started
    return {"values": values, "samples": samples, "seconds": seconds}


def _cell(label: str, cache_size: int, outcome: dict, delta: dict) -> dict:
    """One recorded cell: throughput, hit rate, overall + cacheable tails."""
    samples = outcome["samples"]
    seconds = outcome["seconds"]
    overall = latency_quantiles([elapsed for _, elapsed in samples])
    cacheable = latency_quantiles(
        [elapsed for kind, elapsed in samples if kind in CACHEABLE_KINDS]
    )
    looked_up = delta["cache_hits"] + delta["cache_misses"]
    return {
        "label": label,
        "cache_size": cache_size,
        "queries": len(samples),
        "seconds": seconds,
        "queries_per_second": len(samples) / seconds,
        "hit_rate": delta["cache_hits"] / looked_up if looked_up else 0.0,
        "cache_hits": delta["cache_hits"],
        "cache_misses": delta["cache_misses"],
        "p50_ms": 1e3 * overall["p50"],
        "p99_ms": 1e3 * overall["p99"],
        "cacheable_p50_ms": 1e3 * cacheable["p50"],
        "cacheable_p99_ms": 1e3 * cacheable["p99"],
        "latency_ms_by_kind": latency_ms_by_kind(samples),
    }


def _totals_delta(before: dict, after: dict) -> dict:
    return {
        key: after[key] - before[key] for key in ("cache_hits", "cache_misses")
    }


def run_local_config(
    label: str,
    cache_size: int,
    names: tuple[str, ...],
    events,
    sources: dict[str, list[int]],
    *,
    index_root: Path,
    scale: float,
    epsilon: float,
    seed: int,
    warmup: int,
) -> dict:
    """Drive the stream through one in-process service at ``cache_size``."""
    service = SimRankService(
        ServiceConfig(
            backend="auto",
            cache_size=cache_size,
            # No cross-kind admission: on sling, a pair served from a vector
            # differs from the scalar estimate within epsilon, and the
            # identical_values guard requires pair answers to be independent
            # of cache state.
            pair_admission_threshold=None,
            index_dir=str(index_root),
            scale=scale,
            seed=seed,
        )
    )
    try:
        for name in names:
            service.open_dataset(name)
        _warm_sources(service.execute, sources)
        before = service.statistics()["totals"]
        outcome = _drive(service.execute, events, warmup=warmup)
        after = service.statistics()["totals"]
    finally:
        service.close_all()
    return {
        "cell": _cell(label, cache_size, outcome, _totals_delta(before, after)),
        "values": outcome["values"],
    }


def run_router_config(
    label: str,
    cache_size: int,
    names: tuple[str, ...],
    events,
    sources: dict[str, list[int]],
    *,
    index_root: Path,
    scale: float,
    epsilon: float,
    seed: int,
    warmup: int,
) -> dict:
    """The same stream end-to-end: 2 serve processes behind a router."""
    serve_args = [
        "--scale", str(scale),
        "--epsilon", str(epsilon),
        "--seed", str(seed),
        "--backend", "sling-disk",
        "--index-dir", str(index_root),
        "--cache-size", str(cache_size),
        "--pair-admit-after", "0",
    ]
    pool = WorkerPool(ROUTER_WORKERS, serve_args=serve_args)
    pool.start()
    router = Router(
        pool,
        address=Address(family="tcp", host="127.0.0.1", port=0),
        pins={name: index % ROUTER_WORKERS for index, name in enumerate(names)},
    )
    router.start()
    try:
        client = SimRankClient(address=str(router.address))
        for name in names:
            client.open_dataset(name)
        _warm_sources(client.execute, sources)
        before = client.stats()["totals"]
        outcome = _drive(client.execute, events, warmup=warmup)
        after = client.stats()["totals"]
        client.close()
    finally:
        router.stop()
    return {
        "cell": _cell(label, cache_size, outcome, _totals_delta(before, after)),
        "values": outcome["values"],
    }


# --------------------------------------------------------------------------- #
def run_benchmark(
    *,
    dataset_names: tuple[str, ...] = DEFAULT_DATASETS,
    scale: float = 1.0,
    epsilon: float = 0.025,
    num_queries: int = 1200,
    warmup: int = 200,
    source_span: int = 96,
    hot_set_size: int = 48,
    drift_every: int = 150,
    drift_step: int = 3,
    cache_sizes: dict[str, int] | None = None,
    k: int = 10,
    seed: int = 0,
    hit_target: float = DEFAULT_HIT_TARGET,
    p99_target: float = DEFAULT_P99_TARGET,
) -> dict:
    """Hit rate and p50/p99 under skewed drifting traffic at three cache
    sizes, plus the same stream through a 2-worker router."""
    cache_sizes = dict(cache_sizes or CACHE_SIZES)
    root = Path(tempfile.mkdtemp(prefix="repro-bench-cache-traffic-"))
    try:
        sizes = prebuild_indexes(
            dataset_names, scale=scale, epsilon=epsilon, seed=seed, root=root
        )
        pattern = build_pattern(
            num_queries=num_queries,
            seed=seed,
            source_span=source_span,
            hot_set_size=hot_set_size,
            drift_every=drift_every,
            drift_step=drift_step,
            k=k,
        )
        events = generate_traffic(sizes, pattern)
        sources = traffic_sources(events)
        shared = dict(
            index_root=root,
            scale=scale,
            epsilon=epsilon,
            seed=seed,
            warmup=warmup,
        )
        cells: dict[str, dict] = {}
        local_streams: list[list[str]] = []
        for label, cache_size in cache_sizes.items():
            outcome = run_local_config(
                label, cache_size, dataset_names, events, sources, **shared
            )
            cells[label] = outcome["cell"]
            local_streams.append(outcome["values"])
        router_label = f"router_workers_{ROUTER_WORKERS}"
        router_outcome = run_router_config(
            router_label,
            cache_sizes["cache_large"],
            dataset_names,
            events,
            sources,
            **shared,
        )
        cells[router_label] = router_outcome["cell"]
    finally:
        shutil.rmtree(root, ignore_errors=True)

    identical_values = all(
        stream == local_streams[0] for stream in local_streams
    )
    router_identical_values = router_outcome["values"] == local_streams[0]
    base_qps = cells["cache_0"]["queries_per_second"]
    speedups = {
        name: cell["queries_per_second"] / base_qps
        for name, cell in cells.items()
    }
    warm_hit_rate = cells["cache_large"]["hit_rate"]
    p99_improvement = (
        cells["cache_0"]["cacheable_p99_ms"]
        / cells["cache_large"]["cacheable_p99_ms"]
    )
    return {
        "benchmark": "cache_traffic",
        "datasets": list(dataset_names),
        "num_nodes": sizes,
        "scale": scale,
        "epsilon": epsilon,
        "seed": seed,
        "pattern": pattern.as_dict(),
        "workload": summarize_events(events),
        "num_queries": num_queries,
        "warmup": warmup,
        "cache_sizes": cache_sizes,
        "router_workers": ROUTER_WORKERS,
        "cells": cells,
        "speedups": speedups,
        "warm_hit_rate": warm_hit_rate,
        "p99_improvement": p99_improvement,
        "identical_values": bool(identical_values),
        "router_identical_values": bool(router_identical_values),
        "hit_rate_ok": warm_hit_rate >= hit_target,
        "p99_ok": p99_improvement >= p99_target,
        "targets": {"warm_hit_rate": hit_target, "p99_improvement": p99_target},
        "meets_targets": {
            "warm_hit_rate": warm_hit_rate >= hit_target,
            "p99_improvement": p99_improvement >= p99_target,
        },
    }


SMOKE_OVERRIDES = {
    "dataset_names": ("GrQc", "HepTh"),
    "scale": 0.05,
    "epsilon": 0.05,
    "num_queries": 240,
    "warmup": 40,
    "source_span": 24,
    "hot_set_size": 12,
    "drift_every": 60,
    "drift_step": 2,
    "cache_sizes": {"cache_0": 0, "cache_small": 6, "cache_large": 48},
    "k": 5,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=0.025)
    parser.add_argument("--queries", type=int, default=1200)
    parser.add_argument("--warmup", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hit-target", type=float, default=DEFAULT_HIT_TARGET)
    parser.add_argument("--p99-target", type=float, default=DEFAULT_P99_TARGET)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fast configuration for CI schema checks",
    )
    args = parser.parse_args(argv)
    overrides = dict(SMOKE_OVERRIDES) if args.smoke else {}
    payload = run_benchmark(
        scale=overrides.get("scale", args.scale),
        epsilon=overrides.get("epsilon", args.epsilon),
        num_queries=overrides.get("num_queries", args.queries),
        warmup=overrides.get("warmup", args.warmup),
        seed=args.seed,
        hit_target=args.hit_target,
        p99_target=args.p99_target,
        **{
            key: value
            for key, value in overrides.items()
            if key in (
                "dataset_names", "source_span", "hot_set_size",
                "drift_every", "drift_step", "cache_sizes", "k",
            )
        },
    )
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface for the SLING reproduction.

The CLI wraps the experiment drivers so the paper's tables can be regenerated
without writing Python::

    repro table3
    repro figure1 --datasets GrQc AS --queries 100
    repro figure5 --datasets GrQc --runs 2
    repro query --dataset GrQc --source 3 --top 10
    repro query --dataset GrQc --source 3 --target 5 --json
    repro batch --input requests.jsonl
    repro batch --input requests.jsonl --workers 4
    printf '{"kind":"top_k","dataset":"GrQc","node":3,"k":5}\\n' | repro batch
    repro serve --workers 4 < requests.jsonl

(``python -m repro.cli`` works identically when the console script is not
installed.)  Every sub-command accepts ``--scale`` (stand-in graph size
multiplier), ``--epsilon`` and ``--seed``.

Queries go through the :class:`~repro.service.SimRankService` layer:
``query`` answers one ad-hoc request, ``batch`` streams JSONL request lines
(from stdin or ``--input``) through the service and emits one JSONL
:class:`~repro.service.QueryResult` envelope per line — malformed or
unanswerable requests become error envelopes, never tracebacks (with
``--input FILE`` the envelope carries the bad line's number in
``error.detail.line``), and the exit status is non-zero when any line
failed.  ``serve`` is the long-lived variant — a stdin/stdout JSONL loop
that keeps every touched dataset session open and exits 0 on EOF.  Both
run the one ordered connection pump every socket connection runs too
(:mod:`repro.service.net.pump`): responses in arrival order with up to
``--workers`` requests executing behind the head of the line.

Both JSONL commands speak **wire protocol v2** (see the README reference):
requests may wrap the v1 body with ``v``/``id``/``chunk_size`` envelope
keys, responses echo the ``id``, control-plane kinds (``ping``,
``open_dataset``, ``close_dataset``, ``list_datasets``, ``stats``,
``describe``, ``mutate``, ``shutdown``) ride alongside queries, the serve loop opens
with a ``hello`` frame, ``single_source`` and ``top_k`` values travel as
base64 columns, and chunked ``single_source`` results stream as
``partial``/``done`` frames.  Bare v1 query lines keep working unchanged.  ``--backend``
selects any registered backend (``auto`` is an alias of ``sling``, the
in-memory index; ``sling-disk`` serves it memory-mapped from disk), and
``--json`` switches ``query`` to machine-readable output including the
backend and engine statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from typing import Sequence

from .engine import PAIR_AMORTIZE_THRESHOLD, BackendConfig, backend_names
from .evaluation import experiments, reporting
from .evaluation.faults import slow_shard
from .evaluation.traffic import (
    CHAOS_TRAFFIC_PROFILES,
    TrafficPattern,
    chaos_pattern_overrides,
    generate_traffic,
    summarize_events,
)
from .exceptions import ParameterError
from .graphs import datasets
from .service import (
    MutateRequest,
    ParallelExecutor,
    QueryResult,
    Router,
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    SocketServer,
    TopKQuery,
    WorkerPool,
    parse_address,
)
from .service.net.channel import Address
from .service.net.pump import serve_stream

__all__ = ["main", "build_parser"]

_DEFAULT_METHODS = ("SLING", "Linearize", "MC")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="stand-in graph scale multiplier (default: 0.1)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.05,
        help="SLING / MC accuracy target (default: 0.05)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--mc-walks",
        type=int,
        default=200,
        help="Monte-Carlo walks per node (default: 200)",
    )


def _add_dataset_option(parser: argparse.ArgumentParser, default: Sequence[str]) -> None:
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=list(default),
        choices=datasets.dataset_names(),
        metavar="NAME",
        help=f"datasets to run on (default: {' '.join(default)})",
    )


def _add_method_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--methods",
        nargs="+",
        default=list(_DEFAULT_METHODS),
        choices=["SLING", "Linearize", "MC", "MC-sqrtc"],
        help="methods to compare",
    )


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker threads executing requests concurrently, up to 4 per "
        "worker in flight behind the head of the line (default: 1)",
    )


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by the service-backed sub-commands (query, batch)."""
    parser.add_argument(
        "--backend",
        default="sling",
        choices=["auto", *backend_names()],
        help="query backend (default: sling, the in-memory index; 'auto' is "
        "an alias of it, and 'sling-disk' serves it memory-mapped from disk)",
    )
    parser.add_argument(
        "--cache-size",
        type=_nonnegative_int,
        default=128,
        help="LRU capacity for single-source score vectors (0 disables)",
    )
    parser.add_argument(
        "--cache-budget",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="process-wide budget of cached single-source vectors, split "
        "across open datasets to sum to exactly N (caps --cache-size per "
        "dataset; 0 disables caching entirely; this is what makes sharding "
        "datasets across router workers multiply cache capacity per box)",
    )
    parser.add_argument(
        "--pair-admit-after",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="admit a source's vector to the cache after N standalone "
        "single-pair probes on it (0 disables cross-kind admission; "
        f"default: {PAIR_AMORTIZE_THRESHOLD})",
    )
    parser.add_argument(
        "--index-dir",
        default=None,
        metavar="DIR",
        help="root of prebuilt per-dataset index directories (DIR/<dataset>); "
        "sling/sling-disk sessions mmap a saved index from there instead of "
        "rebuilding, so many worker processes share one copy read-only",
    )
    parser.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="journal every acknowledged mutate to DIR/<dataset>.wal "
        "(fsync'd before the ack); each re-freeze saves the index to "
        "DIR/<dataset>.snapshots/ and cuts the log, and a reopened dataset "
        "loads the snapshot and replays the log, so acked mutations survive "
        "a crash/restart (default: mutations are in-memory only)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-sling",
        description="Reproduce the SLING (SIGMOD 2016) evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table3 = subparsers.add_parser("table3", help="print Table 3 (datasets)")
    _add_common_options(table3)

    figure1 = subparsers.add_parser("figure1", help="single-pair query cost")
    _add_common_options(figure1)
    _add_dataset_option(figure1, datasets.SMALL_DATASETS)
    _add_method_option(figure1)
    figure1.add_argument("--queries", type=int, default=100)

    figure2 = subparsers.add_parser("figure2", help="single-source query cost")
    _add_common_options(figure2)
    _add_dataset_option(figure2, datasets.SMALL_DATASETS)
    _add_method_option(figure2)
    figure2.add_argument("--queries", type=int, default=10)

    figure3 = subparsers.add_parser("figure3", help="preprocessing cost")
    _add_common_options(figure3)
    _add_dataset_option(figure3, datasets.SMALL_DATASETS)
    _add_method_option(figure3)

    figure4 = subparsers.add_parser("figure4", help="space consumption")
    _add_common_options(figure4)
    _add_dataset_option(figure4, datasets.SMALL_DATASETS)
    _add_method_option(figure4)

    figure5 = subparsers.add_parser("figure5", help="maximum error vs. ground truth")
    _add_common_options(figure5)
    _add_dataset_option(figure5, datasets.SMALL_DATASETS)
    _add_method_option(figure5)
    figure5.add_argument("--runs", type=int, default=1)

    figure6 = subparsers.add_parser("figure6", help="error per SimRank group")
    _add_common_options(figure6)
    _add_dataset_option(figure6, datasets.SMALL_DATASETS)
    _add_method_option(figure6)

    figure7 = subparsers.add_parser("figure7", help="top-k precision")
    _add_common_options(figure7)
    _add_dataset_option(figure7, datasets.SMALL_DATASETS)
    _add_method_option(figure7)
    figure7.add_argument("--k", nargs="+", type=int, default=[20, 40, 60, 80, 100])

    query = subparsers.add_parser("query", help="run ad-hoc SimRank queries")
    _add_common_options(query)
    query.add_argument("--dataset", default="GrQc", choices=datasets.dataset_names())
    query.add_argument("--source", type=int, required=True, help="query node id")
    query.add_argument("--target", type=int, help="second node for a single-pair query")
    query.add_argument("--top", type=int, default=10, help="top-k size")
    _add_service_options(query)
    query.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (results, backend, engine statistics)",
    )

    batch = subparsers.add_parser(
        "batch",
        help="stream JSONL requests through the service, one envelope per line",
    )
    _add_common_options(batch)
    _add_service_options(batch)
    batch.add_argument(
        "--input",
        default="-",
        metavar="FILE",
        help="JSONL request file; '-' reads stdin (default)",
    )
    batch.add_argument(
        "--output",
        default="-",
        metavar="FILE",
        help="where to write JSONL result envelopes; '-' writes stdout (default)",
    )
    batch.add_argument(
        "--stats",
        action="store_true",
        help="dump aggregate service statistics as JSON on stderr afterwards",
    )
    _add_workers_option(batch)

    serve = subparsers.add_parser(
        "serve",
        help="long-lived JSONL loop: requests on stdin, envelopes on stdout",
    )
    _add_common_options(serve)
    _add_service_options(serve)
    _add_workers_option(serve)
    serve.add_argument(
        "--stats",
        action="store_true",
        help="dump aggregate service statistics as JSON on stderr at shutdown "
        "(the same snapshot the 'stats' control request returns on demand)",
    )
    serve.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stream single_source results with more than N nonzeros as "
        "bounded partial frames when the request does not pick its own "
        "chunk_size (default: unchunked)",
    )
    serve.add_argument(
        "--no-hello",
        action="store_true",
        help="suppress the opening hello frame (for strictly-v1 consumers)",
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        metavar="N",
        help="bound on requests queued or executing at once; submissions "
        "past it are shed immediately with an 'overloaded' envelope "
        "(default: unbounded)",
    )
    serve_where = serve.add_mutually_exclusive_group()
    serve_where.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve over TCP instead of stdin/stdout (port 0 binds an "
        "ephemeral port; the bound address is announced on stdout as a "
        '{"frame":"listening",...} line)',
    )
    serve_where.add_argument(
        "--unix",
        default=None,
        metavar="PATH",
        help="serve over a Unix-domain socket at PATH instead of stdin/stdout",
    )

    workload = subparsers.add_parser(
        "workload",
        help="emit a deterministic, realistically-shaped JSONL request "
        "stream (Zipf skew, drifting hot set, bursts) for batch/serve/router",
    )
    workload.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="stand-in graph scale multiplier (default: 0.1); only used to "
        "size the per-dataset node ranges",
    )
    workload.add_argument("--seed", type=int, default=0, help="stream seed")
    _add_dataset_option(workload, ["GrQc"])
    workload.add_argument(
        "--queries", type=_nonnegative_int, default=1000,
        help="events to generate (default: 1000)",
    )
    workload.add_argument(
        "--zipf", type=_positive_float, default=1.2, metavar="S",
        help="Zipf exponent of source popularity (default: 1.2)",
    )
    workload.add_argument(
        "--hot-size", type=_positive_int, default=32, metavar="N",
        help="size of the burst-phase hot set in ranks (default: 32)",
    )
    workload.add_argument(
        "--drift-every", type=_nonnegative_int, default=200, metavar="N",
        help="queries between hot-set drifts; 0 disables (default: 200)",
    )
    workload.add_argument(
        "--drift-step", type=_nonnegative_int, default=1, metavar="N",
        help="permutation rotation per drift (default: 1)",
    )
    workload.add_argument(
        "--burst-every", type=_nonnegative_int, default=160, metavar="N",
        help="burst cycle period in queries; 0 disables (default: 160)",
    )
    workload.add_argument(
        "--burst-length", type=_nonnegative_int, default=32, metavar="N",
        help="burst-phase length per cycle (default: 32)",
    )
    workload.add_argument(
        "--tail", type=float, default=0.10, metavar="FRACTION",
        help="uniform long-tail fraction of draws (default: 0.10)",
    )
    workload.add_argument(
        "--top-k-fraction", type=float, default=0.65, metavar="FRACTION",
        help="fraction of events that are top_k queries (default: 0.65)",
    )
    workload.add_argument(
        "--source-fraction", type=float, default=0.15, metavar="FRACTION",
        help="fraction of events that are single_source queries "
        "(default: 0.15); the remainder is single_pair traffic",
    )
    workload.add_argument(
        "--pair-mode", choices=["hot", "cold"], default="hot",
        help="'hot' pairs target popular sources (cross-kind admission "
        "pressure); 'cold' pairs stay outside the source region so their "
        "answers never depend on cache state (default: hot)",
    )
    workload.add_argument(
        "--source-span", type=_positive_int, default=None, metavar="N",
        help="cap the per-dataset source region at N nodes (default: uncapped)",
    )
    workload.add_argument(
        "--k", type=_positive_int, default=10,
        help="k for generated top_k queries (default: 10)",
    )
    workload.add_argument(
        "--mutations", type=float, default=0.0, metavar="FRACTION",
        help="fraction of events that are 'mutate' control requests "
        "(default: 0.0 — pure read stream, byte-identical to pre-mutation "
        "streams at the same seed)",
    )
    workload.add_argument(
        "--mutation-batch", type=_positive_int, default=1, metavar="N",
        help="edges per mutation event (default: 1)",
    )
    workload.add_argument(
        "--refreeze-every", type=_nonnegative_int, default=0, metavar="N",
        help="every Nth mutation event also requests a re-freeze "
        "(default: 0 — never mid-stream)",
    )
    workload.add_argument(
        "--deadline-ms", type=_positive_float, default=None, metavar="MS",
        help="stamp every generated request with this end-to-end deadline "
        "budget; servers shed requests still queued when it expires with "
        "'deadline_exceeded' envelopes (default: no deadlines)",
    )
    workload.add_argument(
        "--chaos-profile", choices=sorted(CHAOS_TRAFFIC_PROFILES),
        default=None,
        help="shape the stream for a named fault drill (mutation-heavy, "
        "deadline-heavy, or mixed); the profile overrides the corresponding "
        "shape flags, but an explicit --deadline-ms still wins",
    )
    workload.add_argument(
        "--output", default="-", metavar="FILE",
        help="where to write the JSONL stream; '-' writes stdout (default)",
    )

    mutate = subparsers.add_parser(
        "mutate",
        help="apply an edge delta to a dataset's live index (incremental "
        "repair + version-scoped cache invalidation; optional re-freeze)",
    )
    _add_common_options(mutate)
    _add_service_options(mutate)
    mutate.add_argument(
        "--dataset", default="GrQc", choices=datasets.dataset_names(),
        help="dataset session to mutate (default: GrQc)",
    )
    mutate.add_argument(
        "--add", action="append", default=[], metavar="U,V",
        help="directed edge to add, as 'u,v' (repeatable)",
    )
    mutate.add_argument(
        "--remove", action="append", default=[], metavar="U,V",
        help="directed edge to remove, as 'u,v' (repeatable)",
    )
    mutate.add_argument(
        "--refreeze", action="store_true",
        help="re-estimate every correction factor after applying the "
        "delta (restores bitwise rebuild parity)",
    )

    router = subparsers.add_parser(
        "router",
        help="multi-process sharded serving: spawn N 'repro serve' workers "
        "and route protocol-v2 requests to them by dataset",
    )
    _add_common_options(router)
    _add_service_options(router)
    router.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        metavar="N",
        help="worker processes to spawn (default: 2); each dataset is "
        "served by exactly one worker",
    )
    router.add_argument(
        "--worker-threads",
        type=_positive_int,
        default=1,
        metavar="N",
        help="request threads inside each worker process (default: 1)",
    )
    router_where = router.add_mutually_exclusive_group()
    router_where.add_argument(
        "--listen",
        default="127.0.0.1:7077",
        metavar="HOST:PORT",
        help="front-end TCP address (default: 127.0.0.1:7077; port 0 binds "
        "an ephemeral port, announced on stdout)",
    )
    router_where.add_argument(
        "--unix",
        default=None,
        metavar="PATH",
        help="front-end Unix-domain socket instead of TCP",
    )
    router.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="workers' server-side streaming default (see 'serve')",
    )
    router.add_argument(
        "--health-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between worker health checks (default: 2)",
    )
    router.add_argument(
        "--request-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="per-request worker deadline before the router answers with an "
        "'unavailable' envelope (default: 120)",
    )
    router.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="DATASET=WORKER",
        help="pin a dataset to a worker index, overriding the hash ring "
        "(repeatable)",
    )
    router.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="directory for the workers' Unix sockets (default: a private "
        "temporary directory)",
    )
    router.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap concurrently forwarded requests per worker; requests past "
        "the cap are shed at the router with an 'overloaded' envelope "
        "(default: unbounded)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="seeded fault-injection drill against a live router/worker "
        "pool: worker SIGKILL mid-mutation, hostile frames, WAL disk-full, "
        "slow shards — asserts no lost acked mutation, no hang past "
        "deadline, typed errors only; prints a JSON report, exit 1 on any "
        "invariant breach",
    )
    chaos.add_argument("--seed", type=int, default=0, help="fault/traffic seed")
    chaos.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="worker processes behind the router (default: 2)",
    )
    chaos.add_argument(
        "--events", type=_positive_int, default=120, metavar="N",
        help="traffic events in the storm (default: 120)",
    )
    chaos.add_argument(
        "--scale", type=_positive_float, default=0.05,
        help="stand-in graph scale (default: 0.05 — chaos measures "
        "resilience, not index build time)",
    )
    chaos.add_argument(
        "--epsilon", type=_positive_float, default=0.05,
        help="SLING accuracy target for workers and the recovery reference",
    )
    chaos.add_argument(
        "--deadline-ms", type=_positive_float, default=20000.0, metavar="MS",
        help="end-to-end budget per storm request (default: 20000; must "
        "absorb a worker restart)",
    )
    chaos.add_argument(
        "--traffic-profile", choices=sorted(CHAOS_TRAFFIC_PROFILES),
        default="mixed-faults",
        help="traffic shape for the storm (default: mixed-faults)",
    )
    chaos.add_argument(
        "--no-kill", action="store_true",
        help="skip the worker SIGKILL (fault-free baseline storm)",
    )
    chaos.add_argument(
        "--no-hostile", action="store_true",
        help="skip the hostile-frames drill",
    )
    chaos.add_argument(
        "--no-disk-full", action="store_true",
        help="skip the WAL disk-full drill",
    )
    chaos.add_argument(
        "--no-slow-shard", action="store_true",
        help="skip the slow-shard / overload-shedding drill",
    )
    chaos.add_argument(
        "--no-wal", action="store_true",
        help="run workers without a WAL (lossy storm; durability "
        "invariants are skipped)",
    )

    return parser


def _config(args: argparse.Namespace) -> BackendConfig:
    return BackendConfig(
        epsilon=args.epsilon, seed=args.seed, mc_num_walks=args.mc_walks
    )


def _service(args: argparse.Namespace) -> SimRankService:
    """A service configured from the shared CLI options."""
    # --pair-admit-after: unset keeps the engine default, 0 means "never".
    if args.pair_admit_after is None:
        admit: int | None = PAIR_AMORTIZE_THRESHOLD
    elif args.pair_admit_after == 0:
        admit = None
    else:
        admit = args.pair_admit_after
    service = SimRankService(
        ServiceConfig(
            backend=args.backend,
            cache_size=args.cache_size,
            cache_budget_vectors=args.cache_budget,
            pair_admission_threshold=admit,
            index_dir=args.index_dir,
            wal_dir=args.wal_dir,
            scale=args.scale,
            seed=args.seed,
            backend_config=_config(args),
        )
    )
    # Armed only by the fault drills' environment (REPRO_FAULT_SLOW_MS).
    return slow_shard(service)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    # workload has no accuracy options — it never computes a score.
    if args.command == "workload":
        return _run_workload(args)

    # chaos assembles its own ChaosProfile (no --mc-walks etc.).
    if args.command == "chaos":
        return _run_chaos(args)

    config = _config(args)

    if args.command == "table3":
        print(datasets.table3(scale=args.scale, seed=args.seed))
        return 0

    if args.command == "figure1":
        rows = experiments.single_pair_experiment(
            args.datasets,
            methods=args.methods,
            num_queries=args.queries,
            scale=args.scale,
            config=config,
        )
        print(reporting.render_query_costs(rows, title="Figure 1: single-pair query cost"))
        return 0

    if args.command == "figure2":
        rows = experiments.single_source_experiment(
            args.datasets,
            methods=args.methods,
            num_queries=args.queries,
            scale=args.scale,
            config=config,
        )
        print(reporting.render_query_costs(rows, title="Figure 2: single-source query cost"))
        return 0

    if args.command == "figure3":
        rows = experiments.preprocessing_experiment(
            args.datasets, methods=args.methods, scale=args.scale, config=config
        )
        print(reporting.render_preprocessing(rows))
        return 0

    if args.command == "figure4":
        rows = experiments.space_experiment(
            args.datasets, methods=args.methods, scale=args.scale, config=config
        )
        print(reporting.render_space(rows))
        return 0

    if args.command == "figure5":
        rows = experiments.accuracy_experiment(
            args.datasets,
            methods=args.methods,
            num_runs=args.runs,
            scale=args.scale,
            config=config,
        )
        print(reporting.render_accuracy(rows))
        return 0

    if args.command == "figure6":
        rows = experiments.grouped_error_experiment(
            args.datasets, methods=args.methods, scale=args.scale, config=config
        )
        print(reporting.render_grouped_errors(rows))
        return 0

    if args.command == "figure7":
        rows = experiments.top_k_experiment(
            args.datasets,
            methods=args.methods,
            k_values=args.k,
            scale=args.scale,
            config=config,
        )
        print(reporting.render_top_k(rows))
        return 0

    if args.command == "query":
        return _run_query(args)

    if args.command == "mutate":
        return _run_mutate(args)

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "router":
        return _run_router(args)

    return 1  # pragma: no cover - unreachable with required=True


def _detach_stdout_after_broken_pipe() -> None:
    """Point the stdout file descriptor at /dev/null after a broken pipe so
    the interpreter-exit flush cannot raise a second time (best effort —
    a no-op under test harnesses whose stdout has no real descriptor)."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    except Exception:  # noqa: BLE001 - shutdown path, nothing to do
        pass


def _report_output_failure(
    command: str, exc: BaseException, *, stdout_target: bool
) -> None:
    """One shutdown path for a pump whose output consumer went away,
    shared by ``batch`` and ``serve`` so their behavior cannot diverge."""
    if stdout_target and isinstance(exc, BrokenPipeError):
        _detach_stdout_after_broken_pipe()
    print(
        f"{command}: output stream failed ({type(exc).__name__}: {exc}); "
        "shutting down",
        file=sys.stderr,
    )


def _fail_loudly(result: QueryResult) -> int:
    """Report one error envelope on stderr (the interactive query path)."""
    assert result.error is not None
    print(f"error [{result.error.code}]: {result.error.message}", file=sys.stderr)
    return 1


def _run_query(args: argparse.Namespace) -> int:
    """The ``query`` sub-command: one ad-hoc request through the service."""
    service = _service(args)
    session = service.open_dataset(args.dataset)
    graph = session.graph
    source = args.source % graph.num_nodes
    pair_result = None
    target = None
    if args.target is not None:
        target = args.target % graph.num_nodes
        pair_result = service.execute(
            SinglePairQuery(dataset=args.dataset, node_u=source, node_v=target)
        )
        if not pair_result.ok:
            return _fail_loudly(pair_result)
    top_result = service.execute(
        TopKQuery(dataset=args.dataset, node=source, k=args.top)
    )
    if not top_result.ok:
        return _fail_loudly(top_result)
    statistics = session.engine().statistics

    if args.json:
        payload = {
            "dataset": args.dataset,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "source": source,
            "backend": top_result.backend,
            "top_k": top_result.value,
            "statistics": statistics.as_dict(),
        }
        if pair_result is not None:
            payload["single_pair"] = {
                "source": source,
                "target": target,
                "score": pair_result.value,
            }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"backend: {top_result.backend}")
    if pair_result is not None:
        print(f"s({source}, {target}) = {pair_result.value:.6f}")
    print(f"top-{args.top} nodes most similar to {source}:")
    for entry in top_result.value:
        print(
            f"  #{entry['rank']:2d}  node {entry['node']:6d}  "
            f"score {entry['score']:.6f}"
        )
    print(f"engine: {statistics.summary()}")
    return 0


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(f"edge must be 'u,v', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParameterError(f"edge endpoints must be integers, got {text!r}")


def _run_mutate(args: argparse.Namespace) -> int:
    """The ``mutate`` sub-command: one edge delta through the control plane.

    Prints the mutation ack as JSON — the new ``index_version``, the
    certified ``epsilon_stale``, and the affected/invalidated set sizes —
    so scripts can chain ``repro mutate`` with queries and assert versions.
    """
    service = _service(args)
    try:
        add = [_parse_edge(text) for text in args.add]
        remove = [_parse_edge(text) for text in args.remove]
        request = MutateRequest(
            dataset=args.dataset,
            add=tuple(add),
            remove=tuple(remove),
            refreeze=args.refreeze,
        )
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = service.execute_control(request)
    if not result.ok:
        return _fail_loudly(result)
    print(json.dumps(result.value, indent=2))
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    """The ``batch`` sub-command: JSONL requests in, JSONL responses out.

    Every input line yields exactly one response (monolithic, or
    ``partial``/``done`` frames when the request set a ``chunk_size``), in
    input order; lines that cannot be parsed or answered become error
    envelopes — with ``--input FILE``, decode failures carry the offending
    1-based line number in ``error.detail.line``.  The lines run through the
    same ordered pump as ``repro serve`` (up to ``--workers`` requests in
    flight), so control requests and ``deadline_ms`` work exactly as there;
    an acknowledged ``shutdown`` stops the batch after its response.
    Returns 0 when every request succeeded, 1 otherwise (a summary goes to
    stderr either way).
    """
    service = _service(args)
    try:
        input_stream = (
            sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
        )
    except OSError as exc:
        print(f"error: cannot read --input {args.input!r}: {exc}", file=sys.stderr)
        return 1
    try:
        try:
            output_stream = (
                sys.stdout
                if args.output == "-"
                else open(args.output, "w", encoding="utf-8")
            )
        except OSError as exc:
            print(
                f"error: cannot write --output {args.output!r}: {exc}",
                file=sys.stderr,
            )
            return 1
        try:
            with ParallelExecutor(service, workers=args.workers) as executor:
                pump = serve_stream(
                    executor,
                    input_stream,
                    output_stream,
                    number_lines=input_stream is not sys.stdin,
                )
        finally:
            if output_stream is not sys.stdout:
                output_stream.close()
    finally:
        if input_stream is not sys.stdin:
            input_stream.close()

    if pump.write_error is not None:
        _report_output_failure(
            "batch", pump.write_error, stdout_target=output_stream is sys.stdout
        )
        return 1
    total = pump.ok_count + pump.error_count
    print(
        f"batch: {pump.ok_count}/{total} ok, {pump.error_count} error(s); "
        f"datasets: {', '.join(service.list_datasets()) or 'none'}",
        file=sys.stderr,
    )
    if args.stats:
        print(json.dumps(service.statistics(), indent=2), file=sys.stderr)
    return 0 if pump.error_count == 0 else 1


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` sub-command: a long-lived stdin/stdout JSONL loop.

    The loop opens with a ``hello`` frame advertising the protocol version,
    available backends, and open datasets (suppress with ``--no-hello``).
    Requests then stream in one JSONL line at a time — bare v1 query lines
    or v2 envelopes, data plane and control plane alike; every request gets
    exactly one response, **in arrival order**, flushed as soon as it is
    ready, echoing the request's ``id``.  Large ``single_source`` answers
    stream as bounded ``partial``/``done`` frames when the request (or
    ``--chunk-size``) asks for it.  Up to ``--workers``
    requests execute concurrently behind the head of the line, and every
    dataset session touched stays open for the life of the process, so
    requests against different datasets interleave freely on one warm
    service.  EOF — or an acknowledged ``shutdown`` control request —
    drains the in-flight requests and exits 0 (this is a server loop —
    client errors become envelopes, not exit codes); the summary and
    optional ``--stats`` dump go to stderr.
    """
    if args.listen is not None or args.unix is not None:
        return _run_serve_socket(args)
    service = _service(args)
    with ParallelExecutor(
        service, workers=args.workers, max_pending=args.max_pending
    ) as executor:
        pump = serve_stream(
            executor,
            sys.stdin,
            sys.stdout,
            chunk_size=args.chunk_size,
            hello=None if args.no_hello else service.hello_payload(),
        )

    if pump.write_error is not None:
        _report_output_failure("serve", pump.write_error, stdout_target=True)
        return 1

    total = pump.ok_count + pump.error_count
    print(
        f"serve: {pump.ok_count}/{total} ok, {pump.error_count} error(s); "
        f"workers: {args.workers}; "
        f"datasets: {', '.join(service.list_datasets()) or 'none'}",
        file=sys.stderr,
    )
    if args.stats:
        print(json.dumps(service.statistics(), indent=2), file=sys.stderr)
    return 0


def _front_address(args: argparse.Namespace) -> Address:
    """The socket endpoint picked by ``--unix`` / ``--listen``."""
    if args.unix is not None:
        return Address(family="unix", path=args.unix)
    return parse_address(args.listen)


def _stop_on_signals(stop) -> None:
    """Run ``stop`` (on a fresh thread — it joins others) on SIGINT/SIGTERM,
    so a supervisor's TERM produces the same clean drain as Ctrl-C."""
    def handler(*_: object) -> None:
        threading.Thread(target=stop, name="repro-signal-stop", daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass


def _announce_listening(address: Address, **extra: object) -> None:
    """The machine-readable ready line socket servers print on stdout."""
    payload = {"frame": "listening", "address": str(address), **extra}
    try:
        print(json.dumps(payload, separators=(",", ":")), flush=True)
    except OSError:  # pragma: no cover - stdout already gone; keep serving
        pass


def _run_serve_socket(args: argparse.Namespace) -> int:
    """``repro serve --listen/--unix``: the serve loop over a socket.

    Identical protocol and semantics to the stdin/stdout loop — hello frame
    per connection, ordered responses, chunked streaming, shutdown control
    request — but any number of clients share the one warm service.  Prints
    a ``{"frame":"listening","address":...}`` line on stdout once bound
    (how spawning parents learn an ephemeral port), then serves until a
    client's acknowledged ``shutdown``, SIGTERM, or SIGINT.
    """
    service = _service(args)
    address = _front_address(args)
    try:
        server = SocketServer(
            ParallelExecutor(
                service, workers=args.workers, max_pending=args.max_pending
            ),
            address=address,
            chunk_size=args.chunk_size,
            hello=not args.no_hello,
        )
    except OSError as exc:
        print(f"error: cannot listen on {address}: {exc}", file=sys.stderr)
        return 1
    _announce_listening(server.address)
    _stop_on_signals(server.stop)
    try:
        server.serve_forever()
    finally:
        server.stop()
        if address.family == "unix":
            try:
                os.unlink(address.path)
            except OSError:
                pass
    print(
        f"serve: stopped listening on {server.address}; "
        f"datasets: {', '.join(service.list_datasets()) or 'none'}",
        file=sys.stderr,
    )
    if args.stats:
        print(json.dumps(service.statistics(), indent=2), file=sys.stderr)
    return 0


def _run_workload(args: argparse.Namespace) -> int:
    """The ``workload`` sub-command: a wire-ready JSONL request stream.

    Emits one protocol-v2 envelope per line — pipe it straight into
    ``repro batch``, ``repro serve``, or a router front end.  The stream is
    fully determined by the options (one seeded RNG drives every choice),
    so two runs with the same flags produce byte-identical output; a shape
    summary goes to stderr.  Node ranges come from the dataset specs at
    ``--scale``, matching what service commands at the same scale serve.
    """
    node_counts = {
        name: max(16, int(datasets.DATASETS[name].standin_nodes * args.scale))
        for name in args.datasets
    }
    try:
        pattern_kwargs = dict(
            num_queries=args.queries,
            seed=args.seed,
            zipf_exponent=args.zipf,
            hot_set_size=args.hot_size,
            drift_every=args.drift_every,
            drift_step=args.drift_step,
            burst_every=args.burst_every,
            burst_length=args.burst_length,
            tail_fraction=args.tail,
            top_k_fraction=args.top_k_fraction,
            single_source_fraction=args.source_fraction,
            k=args.k,
            source_span=args.source_span,
            pair_mode=args.pair_mode,
            mutation_fraction=args.mutations,
            mutation_batch=args.mutation_batch,
            mutation_refreeze_every=args.refreeze_every,
            deadline_ms=args.deadline_ms,
        )
        if args.chaos_profile is not None:
            pattern_kwargs.update(chaos_pattern_overrides(args.chaos_profile))
            if args.deadline_ms is not None:  # an explicit budget wins
                pattern_kwargs["deadline_ms"] = args.deadline_ms
        pattern = TrafficPattern(**pattern_kwargs)
        events = generate_traffic(node_counts, pattern)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        output_stream = (
            sys.stdout
            if args.output == "-"
            else open(args.output, "w", encoding="utf-8")
        )
    except OSError as exc:
        print(
            f"error: cannot write --output {args.output!r}: {exc}",
            file=sys.stderr,
        )
        return 1
    try:
        for event in events:
            print(
                json.dumps(event.to_wire(), separators=(",", ":")),
                file=output_stream,
            )
        output_stream.flush()
    except BrokenPipeError:
        _detach_stdout_after_broken_pipe()
        print("workload: output stream closed early", file=sys.stderr)
        return 1
    finally:
        if output_stream is not sys.stdout:
            output_stream.close()
    print(
        f"workload: {json.dumps(summarize_events(events))}", file=sys.stderr
    )
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """The ``chaos`` sub-command: the seeded fault-injection drill.

    Builds a :class:`~repro.evaluation.faults.ChaosProfile` from the flags,
    runs the full suite (storm with mid-mutation worker SIGKILL, hostile
    frames, WAL disk-full, slow shard), prints the JSON report on stdout,
    and exits 1 if any invariant — no lost acked mutation, no hang past
    deadline, typed errors only — was breached.
    """
    from .evaluation.faults import ChaosProfile, run_chaos

    try:
        profile = ChaosProfile(
            seed=args.seed,
            workers=args.workers,
            events=args.events,
            scale=args.scale,
            epsilon=args.epsilon,
            deadline_ms=args.deadline_ms,
            traffic_profile=args.traffic_profile,
            kill_worker=not args.no_kill,
            hostile_frames=not args.no_hostile,
            disk_full=not args.no_disk_full,
            slow_shard=not args.no_slow_shard,
            wal=not args.no_wal,
        )
        report = run_chaos(profile)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["ok"]:
        failed = sorted(
            name for name, held in report["invariants"].items() if not held
        )
        print(f"chaos: invariants breached: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("chaos: all invariants held", file=sys.stderr)
    return 0


def _worker_serve_args(args: argparse.Namespace) -> list[str]:
    """The ``serve`` argv a router worker needs: every shared common and
    service option of the router's command line, plus ``--chunk-size``, with
    ``--worker-threads`` passed on as the worker's ``--workers``."""
    serve_args = [
        "--scale", str(args.scale),
        "--epsilon", str(args.epsilon),
        "--seed", str(args.seed),
        "--mc-walks", str(args.mc_walks),
        "--backend", args.backend,
        "--cache-size", str(args.cache_size),
        "--workers", str(args.worker_threads),
    ]
    if args.cache_budget is not None:
        serve_args += ["--cache-budget", str(args.cache_budget)]
    if args.pair_admit_after is not None:
        serve_args += ["--pair-admit-after", str(args.pair_admit_after)]
    if args.index_dir is not None:
        serve_args += ["--index-dir", args.index_dir]
    if args.wal_dir is not None:
        serve_args += ["--wal-dir", args.wal_dir]
    if args.chunk_size is not None:
        serve_args += ["--chunk-size", str(args.chunk_size)]
    return serve_args


def _run_router(args: argparse.Namespace) -> int:
    """The ``router`` sub-command: multi-process sharded serving.

    Spawns ``--workers`` ``repro serve --unix`` processes (each configured
    with the forwarded service options), then routes protocol-v2 requests
    to them by dataset: one worker owns each dataset (consistent hashing,
    ``--pin`` to override), ``list_datasets``/``stats`` fan out and merge,
    and dead workers are health-checked, restarted, and re-warmed — clients
    with requests in flight get ``unavailable`` error envelopes, never a
    hang.  Stops on a client's ``shutdown``, SIGTERM, or SIGINT.
    """
    serve_args = _worker_serve_args(args)
    pins: dict[str, int] = {}
    for spec in args.pin:
        name, sep, index = spec.partition("=")
        if not sep or not name or not index.isdigit():
            print(
                f"error: --pin expects DATASET=WORKER, got {spec!r}",
                file=sys.stderr,
            )
            return 2
        pins[name] = int(index)
    address = _front_address(args)
    pool = WorkerPool(
        args.workers,
        serve_args=serve_args,
        run_dir=args.run_dir,
        health_interval=args.health_interval,
    )
    try:
        pool.start()
    except (RuntimeError, OSError) as exc:
        print(f"error: worker pool failed to start: {exc}", file=sys.stderr)
        pool.stop()
        return 1
    try:
        router = Router(
            pool,
            address=address,
            pins=pins,
            request_timeout=args.request_timeout,
            max_inflight=args.max_inflight,
            durable=args.wal_dir is not None,
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot listen on {address}: {exc}", file=sys.stderr)
        pool.stop()
        return 1
    _announce_listening(router.address, workers=pool.count)
    _stop_on_signals(router.stop)
    try:
        router.serve_forever()
    finally:
        router.stop()
        if address.family == "unix":
            try:
                os.unlink(address.path)
            except OSError:
                pass
    restarts = pool.restart_counts()
    print(
        f"router: stopped listening on {router.address}; "
        f"workers: {pool.count}; restarts: {sum(restarts)}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

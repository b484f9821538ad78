"""The traced run: one seeded read stream replayed down a ladder of layers.

Each rung calls one layer's public entry point and records a span (request
id, rung, kind, start, end) around every call:

========  ==========================================================
kernel    ``SlingIndex.top_k / single_source / single_pair``
engine    ``QueryEngine`` (fresh, the workload's cache size)
service   ``SimRankService.execute``
wire      request line -> ``decode_envelope_line`` -> service ->
          ``response_frames`` -> ``json.loads`` -> ``result_from_frames``
executor  the wire rung with ``ParallelExecutor.submit().result()``
net       ``SimRankClient.execute`` over a Unix socket to ``repro serve``
router    the same through ``repro router --workers 1``
========  ==========================================================

Every rung starts from empty caches and replays the same untimed warm
prefix, so all rungs see the same cache history; the client's garbage
collector is off while a rung is timed.  The rungs from kernel to net have
stacks of their own (the service, wire and executor rungs each a service
that built the same seeded index, net a ``repro serve`` worker) and are
replayed interleaved, request by request, so host drift cannot reorder
them; the router rung runs after them.  A rung's self time is its p50
minus the p50 of the rung below.  Build phases, stats scrapes and
the mutation path (dynamic repair, re-freeze, service ``mutate``, WAL
append) are timed the same way, in-process, after the read rungs.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import replace

import numpy as np

from repro.engine import BackendConfig, QueryEngine
from repro.graphs import datasets
from repro.service import (
    PROTOCOL_VERSION,
    MutateRequest,
    MutationWAL,
    ParallelExecutor,
    PingRequest,
    QueryResult,
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    StatsRequest,
    decode_envelope_line,
    encode_frame,
    encode_response,
    response_frames,
    result_from_frames,
)
from repro.sling import (
    DynamicSlingIndex,
    PackedHittingStore,
    SlingParameters,
    SqrtCWalker,
    build_hitting_sets,
    estimate_all_correction_factors,
    estimate_correction_factor,
)

import gate
from e2e import Outcome, start_worker
from harness import Server, Tally, host_calibration_ms, median, new_run_dir
from workloads import GRAPH_SEED, READ_KINDS, Workload

#: Read rungs bottom-up, with the metric prefix each reports under.
RUNGS = {
    "kernel": "sling",
    "engine": "engine",
    "service": "service",
    "wire": "wire",
    "executor": "executor",
    "net": "net",
    "router": "router",
}


def _layer_units() -> dict:
    units = {
        "graphs.load_s": "s",
        "sling.correction_s": "s",
        "sling.correction_trials_per_node": "count",
        "sling.hitting_s": "s",
        "sling.pack_s": "s",
        "sling.index_entries": "count",
        "sling.resident_mb": "MB",
    }
    units.update({f"sling.{kind}_ms": "ms" for kind in READ_KINDS})
    for prefix in list(RUNGS.values())[1:]:
        for kind in READ_KINDS:
            units[f"{prefix}.{kind}_ms"] = "ms"
            units[f"{prefix}.{kind}_self_ms"] = "ms"
    units.update({
        "engine.cache_hit_rate": "ratio",
        "engine.cache_evictions": "count",
        "engine.cache_invalidations": "count",
        "service.stats_ms": "ms",
        "service.stats_bytes": "B",
        "wire.stats_encode_ms": "ms",
        "net.ping_ms": "ms",
        "net.spawn_s": "s",
        "dynamic.repair_ms": "ms",
        "dynamic.refreeze_s": "s",
        "dynamic.overlay_entries": "count",
        "service.mutate_ms": "ms",
        "wal.append_ms": "ms",
        "wal.bytes_per_mutation": "B",
        "worker.cpu_ms_per_request": "ms",
        "host.calib_ms": "ms",
        "drift.p50_ratio": "ratio",
        "trace.overhead_ms": "ms",
        "ladder.inversions": "count",
    })
    return units


#: Per-layer metric name -> unit, in report order.
LAYER_UNITS = _layer_units()

#: WAL records appended by the ``wal.append_ms`` rung.
WAL_APPENDS = 40


class Tracer:
    """Spans kept in memory: ``(request_id, rung, kind, start, end)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def call(self, request_id: int, rung: str, kind: str, fn):
        start = time.perf_counter()
        value = fn()
        self.spans.append((request_id, rung, kind, start, time.perf_counter()))
        return value

    def p50_ms(self, rung: str, kind: str | None = None) -> float:
        return 1000.0 * median([
            end - start for _, name, span_kind, start, end in self.spans
            if name == rung and (kind is None or span_kind == kind)
        ])


def _index_call(target, query):
    """The query against a ``SlingIndex`` or ``QueryEngine`` (same method
    names, the served methods)."""
    if query.kind == "top_k":
        return target.top_k(query.node, query.k)
    if query.kind == "single_source":
        return target.single_source(query.node)
    return target.single_pair(query.node_u, query.node_v)


def wire_roundtrip(execute, query, request_id: int) -> QueryResult:
    """One request through the in-process wire codec, as the serve loop and
    the client library do it around ``execute``."""
    line = encode_frame({"v": PROTOCOL_VERSION, "id": request_id, **query.to_wire()})
    envelope = decode_envelope_line(line)
    result = execute(envelope)
    frames = [
        json.loads(frame)
        for frame in response_frames(
            result, id=envelope.id, chunk_size=envelope.chunk_size
        )
    ]
    return result_from_frames(frames)


class _Direct:
    """Adapts an in-process ``execute`` callable to the client interface
    :class:`~harness.Tally` drives."""

    def __init__(self, execute) -> None:
        self.execute = execute


class _Replay:
    """Runs the warm prefix untimed and the events traced, per rung."""

    def __init__(self, tracer: Tracer, warm, events, keep: set) -> None:
        self.tracer = tracer
        self.warm = warm
        self.events = events
        self.keep = keep
        self.tally = Tally()
        self.kept: list = []

    def rungs(self, calls: dict) -> None:
        """Replay through one or more independent stacks (rung name ->
        call).  Several are interleaved request by request, so a slow spell
        of the host lands on all of them alike, in an order shuffled per
        request: which rung runs right after one sharing its index (and so
        finds it in the CPU caches) must not be the same rung every time."""
        for query in self.warm:
            for call in calls.values():
                self._count(call(query))
        order = list(calls.items())
        shuffle = random.Random(len(self.events)).shuffle
        gc.collect()
        gc.disable()
        try:
            for index, query in enumerate(self.events):
                shuffle(order)
                for name, call in order:
                    out = self.tracer.call(
                        index, name, query.kind, lambda: call(query)
                    )
                    self._count(out)
                    if name == "net" and index in self.keep and out.ok:
                        self.kept.append((query, out.value))
        finally:
            gc.enable()

    def _count(self, out) -> None:
        self.tally.attempted += 1
        if isinstance(out, QueryResult) and not out.ok:
            self.tally.record_failure(out.error.code if out.error else "error")


def _build_breakdown(w: Workload, graph, seed: int) -> dict:
    """The three build phases of the primary dataset, each timed at its
    public entry point, plus correction trials per node on a sample."""
    params = SlingParameters.from_accuracy_target(
        num_nodes=graph.num_nodes, c=gate.DECAY, epsilon=w.epsilon
    )
    start = time.perf_counter()
    estimate_all_correction_factors(
        SqrtCWalker(graph, params.c, seed=GRAPH_SEED),
        params.epsilon_d, params.delta_d,
    )
    correction_s = time.perf_counter() - start
    start = time.perf_counter()
    hitting = build_hitting_sets(graph, params.sqrt_c, params.theta)
    hitting_s = time.perf_counter() - start
    start = time.perf_counter()
    PackedHittingStore.from_hitting_sets(hitting)
    pack_s = time.perf_counter() - start
    walker = SqrtCWalker(graph, params.c, seed=GRAPH_SEED)
    nodes = random.Random(seed).sample(range(graph.num_nodes), min(64, graph.num_nodes))
    trials = [
        estimate_correction_factor(walker, node, params.epsilon_d, params.delta_d).num_samples
        for node in nodes
    ]
    return {
        "sling.correction_s": correction_s,
        "sling.correction_trials_per_node": float(np.mean(trials)),
        "sling.hitting_s": hitting_s,
        "sling.pack_s": pack_s,
    }


def _mutation_requests(w: Workload, graphs: dict) -> list:
    """The edge deltas the mutation rungs apply (no re-freeze flags)."""
    if w.writes:
        writes = w.write_stream(graphs, 4 * w.ladder_mutations)
        return [replace(m, refreeze=False) for m in writes][: w.ladder_mutations]
    graph = graphs[w.primary]
    return [
        MutateRequest(w.primary, add=(edge,))
        for edge in w.probe_edges if not graph.has_edge(*edge)
    ][: w.ladder_mutations]


def _mutation_rungs(w, service, index, mutations, run_dir) -> tuple[dict, Tally]:
    """Repair and re-freeze on a dynamic index over the built one, the
    same deltas through ``SimRankService.execute_control``, and raw WAL
    appends; returns the metrics and a tally of the service mutations."""
    dynamic = DynamicSlingIndex.from_index(index)
    repair = []
    for request in mutations:
        start = time.perf_counter()
        if request.add:
            dynamic.add_edges(request.add)
        else:
            dynamic.remove_edges(request.remove)
        repair.append(time.perf_counter() - start)
    overlay = dynamic.statistics()["overlay_entries"]
    start = time.perf_counter()
    dynamic.refreeze()
    refreeze_s = time.perf_counter() - start

    tally = Tally()
    for request in mutations:
        tally.run(_Direct(service.execute_control), request)
    invalidations = (
        service.open_dataset(w.primary).engine().statistics_snapshot().cache_invalidations
    )

    appends = []
    with MutationWAL(run_dir / "wal-append", "bench") as wal:
        for number in range(WAL_APPENDS):
            request = mutations[number % len(mutations)]
            start = time.perf_counter()
            wal.append(
                add=request.add, remove=request.remove, refreeze=False,
                mutation_id=None, ack={},
            )
            appends.append(time.perf_counter() - start)
        wal_bytes = wal.log_path.stat().st_size
    return {
        "dynamic.repair_ms": 1000.0 * median(repair),
        "dynamic.refreeze_s": refreeze_s,
        "dynamic.overlay_entries": overlay,
        "service.mutate_ms": tally.ms("mutate", 50),
        "engine.cache_invalidations": invalidations,
        "wal.append_ms": 1000.0 * median(appends),
        "wal.bytes_per_mutation": wal_bytes / WAL_APPENDS,
    }, tally


def _router_args(w: Workload) -> list[str]:
    return [
        "--workers", "1",
        "--worker-threads", str(w.worker_threads),
        "--scale", repr(w.scale),
        "--epsilon", repr(w.epsilon),
        "--seed", str(GRAPH_SEED),
        "--cache-size", str(w.cache_size),
    ]


def _self_times(metrics: dict, tracer: Tracer, cache_on: bool) -> int:
    """Fill per-rung p50s and self times; returns how many rungs from
    engine up to net read faster than the rung under them.

    Rungs are compared request by request (the median of the paired
    differences, which host drift cannot tilt).  The kernel → engine step
    is skipped when the engine cache is on: hits are meant to be faster
    than the kernel.
    """
    durations: dict = {}
    for request_id, rung, kind, start, end in tracer.spans:
        durations.setdefault((rung, kind), {})[request_id] = end - start
    inversions = 0
    names = list(RUNGS)
    for kind in READ_KINDS:
        for position, rung in enumerate(names):
            metrics[f"{RUNGS[rung]}.{kind}_ms"] = tracer.p50_ms(rung, kind)
            if position == 0:
                continue
            below = names[position - 1]
            delta = tracer.p50_ms(rung, kind) - tracer.p50_ms(below, kind)
            metrics[f"{RUNGS[rung]}.{kind}_self_ms"] = delta
            if rung == "router" or (rung == "engine" and cache_on):
                continue
            upper = durations.get((rung, kind), {})
            lower = durations.get((below, kind), {})
            paired = median([upper[i] - lower[i] for i in upper.keys() & lower.keys()])
            inversions += paired < 0
    return inversions


def run(w: Workload, seed: int, reference) -> Outcome:
    metrics: dict = {"host.calib_ms": host_calibration_ms(reference)}
    loads = []
    for _ in range(3):
        start = time.perf_counter()
        graphs = {
            name: datasets.load_dataset(name, scale=w.scale, seed=GRAPH_SEED)
            for name in w.datasets
        }
        loads.append(time.perf_counter() - start)
    metrics["graphs.load_s"] = median(loads)
    metrics.update(_build_breakdown(w, graphs[w.primary], seed))

    stream = w.read_stream(graphs, seed, w.ladder_warm + w.ladder_events)
    warm, events = stream[: w.ladder_warm], stream[w.ladder_warm:]
    keep = set(random.Random(seed).sample(range(len(events)), min(w.gate_sample, len(events))))
    tracer = Tracer()
    replay = _Replay(tracer, warm, events, keep)
    run_dir = new_run_dir(f"ladder-{w.name}")

    # One service per in-process rung, each building the same seeded index,
    # so the five in-process rungs have stacks (and caches) of their own and
    # can be replayed interleaved.
    services = {
        rung: SimRankService(ServiceConfig(
            scale=w.scale, seed=GRAPH_SEED, cache_size=w.cache_size,
            wal_dir=str(run_dir / f"wal-{rung}"),
            backend_config=BackendConfig(epsilon=w.epsilon, seed=GRAPH_SEED),
        ))
        for rung in ("service", "wire", "executor")
    }
    for rung_service in services.values():
        for name in w.datasets:
            rung_service.execute(SinglePairQuery(name, 0, 1))
            rung_service.open_dataset(name).engine().clear_cache()
    service = services["service"]
    backends = {
        name: service.open_dataset(name).engine().backend for name in w.datasets
    }
    indexes = {name: backend.index for name, backend in backends.items()}
    metrics["sling.index_entries"] = sum(i.packed_store.num_entries for i in indexes.values())
    metrics["sling.resident_mb"] = sum(i.resident_bytes() for i in indexes.values()) / 2**20

    rung_engines = {
        name: QueryEngine(backend, cache_size=w.cache_size)
        for name, backend in backends.items()
    }
    server = start_worker(w, run_dir / "net", run_dir / "wal-net")
    try:
        metrics["net.spawn_s"] = server.spawn_seconds
        with server.client() as client:
            with ParallelExecutor(services["executor"], workers=w.worker_threads) as executor:
                replay.rungs({
                    "kernel": lambda q: _index_call(indexes[q.dataset], q),
                    "engine": lambda q: _index_call(rung_engines[q.dataset], q),
                    "service": service.execute,
                    "wire": lambda q: wire_roundtrip(
                        lambda envelope: services["wire"].execute_request(envelope.request),
                        q, 0,
                    ),
                    "executor": lambda q: wire_roundtrip(
                        lambda envelope: executor.submit(envelope).result(), q, 0
                    ),
                    "net": client.execute,
                })
            pings = Tally()
            for _ in range(50):
                pings.run(client, PingRequest())
            metrics["net.ping_ms"] = pings.ms("ping", 50)
            untraced = Tally()
            gc.collect()
            gc.disable()
            cpu_before = server.cpu_seconds()
            try:
                for query in events:
                    untraced.run(client, query)
            finally:
                gc.enable()
            cpu_used = server.cpu_seconds() - cpu_before
        replay.tally.merge(pings)
        replay.tally.merge(untraced)
        metrics["worker.cpu_ms_per_request"] = 1000.0 * cpu_used / max(1, untraced.attempted)
        metrics["drift.p50_ratio"] = untraced.drift_ratio(READ_KINDS)
        metrics["trace.overhead_ms"] = tracer.p50_ms("net") - 1000.0 * median(
            [seconds for _, _, seconds in untraced.timeline]
        )
    finally:
        server.stop()
    snapshots = [engine.statistics_snapshot() for engine in rung_engines.values()]
    hits = sum(s.cache_hits for s in snapshots)
    lookups = hits + sum(s.cache_misses for s in snapshots)
    metrics["engine.cache_hit_rate"] = hits / lookups if lookups else 0.0
    metrics["engine.cache_evictions"] = sum(s.cache_evictions for s in snapshots)


    stats_ms, encode_ms = [], []
    for _ in range(15):
        start = time.perf_counter()
        stats = service.execute_control(StatsRequest())
        stats_ms.append(time.perf_counter() - start)
        start = time.perf_counter()
        "".join(response_frames(stats))
        encode_ms.append(time.perf_counter() - start)
    metrics["service.stats_ms"] = 1000.0 * median(stats_ms)
    metrics["service.stats_bytes"] = len(encode_response(stats).encode("utf-8"))
    metrics["wire.stats_encode_ms"] = 1000.0 * median(encode_ms)

    router = Server(run_dir / "router", "router", _router_args(w))
    try:
        with router.client() as client:
            for name in w.datasets:
                client.open_dataset(name)
                client.execute(SinglePairQuery(name, 0, 1))
            replay.rungs({"router": client.execute})
    finally:
        router.stop()

    metrics["ladder.inversions"] = _self_times(metrics, tracer, w.cache_size > 0)
    mutation_metrics, mutation_tally = _mutation_rungs(
        w, service, indexes[w.primary], _mutation_requests(w, graphs), run_dir
    )
    metrics.update(mutation_metrics)
    replay.tally.merge(mutation_tally)
    for rung_service in services.values():
        rung_service.close_all()

    if w.gate == "power":
        truth, bound = gate.PowerTruth(graphs), w.epsilon
    else:
        truth, bound = gate.ReferenceTruth(indexes=indexes), 0.0
    breaches = gate.breaches(replay.kept, truth, bound)
    if not replay.kept:
        breaches.append("no served answer was sampled for the gate")
    return Outcome(
        correct=not breaches,
        attempted=replay.tally.attempted,
        failed=replay.tally.failed,
        metrics={name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()},
        context={
            "errors": replay.tally.errors,
            "gate_checked": len(replay.kept),
            "breaches": breaches,
            "spans": len(tracer.spans),
        },
    )

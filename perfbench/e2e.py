"""The end-to-end run: one ``repro serve --unix`` worker, driven closed-loop.

Phases, in order:

1. ``setup_s`` — spawn the worker, open every dataset and send one query per
   dataset so the lazy index build finishes; repeated ``SETUP_REPEATS`` times
   (a fresh worker and empty WAL each time), median reported, last worker
   kept.
2. warm-up — the stream's first ``warm_events`` reads, untimed, so engine
   caches and the recent-latency windows are full before timing.
3. timed phase — one reader connection sends the rest of the stream, with a
   ``stats`` scrape every ``stats_every`` reads.  In ``mutate_mix`` a writer
   connection also sends one durable ``mutate`` per ``reads_per_mutate``
   reads, the ``refreeze_every``-th carrying ``refreeze``; the phase ends on
   the first re-freeze ack after ``seconds`` (and at least ``min_cycles``
   re-freezes), so every run covers whole write cycles.  Otherwise it ends
   after ``seconds``.
4. correctness gate (see :mod:`gate`), then, on read-only workloads, the
   write probe: the workload's fixed ``probe_edges`` added one durable
   ``mutate`` at a time.

Every time reported is host-normalised (:class:`harness.HostSpeed`): a
probe thread stops the worker every ``PROBE_EVERY_S`` through each set-up,
the timed phase and the write probe, and times round trips to the
reference server on the CPU every process of the run shares; a phase's
times are scaled by nominal over its median probe.  The raw figures go to
the context line.
"""

from __future__ import annotations

import gc
import math
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.service import (
    MutateRequest,
    MutationWAL,
    SinglePairQuery,
    StatsRequest,
)

import gate
from harness import (
    ROOT, HostSpeed, Server, Tally, host_calibration_ms, median, new_run_dir,
)
from workloads import GRAPH_SEED, READ_KINDS, SETUP_REPEATS, Workload

#: End-to-end metric name -> unit, in report order.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "top_k_p50_ms": "ms",
    "top_k_p90_ms": "ms",
    "single_source_p50_ms": "ms",
    "single_source_p90_ms": "ms",
    "single_pair_p50_ms": "ms",
    "single_pair_p90_ms": "ms",
    "stats_p50_ms": "ms",
    "mutate_p50_ms": "ms",
    "mutate_p90_ms": "ms",
    "worker_rss_mb": "MB",
}

#: Events generated per second of timed phase (the stream wraps if a run is
#: faster than this).
EVENTS_PER_SECOND = 4000


@dataclass
class Outcome:
    """What one run reports: the result line plus a context line."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    context: dict = field(default_factory=dict)


def start_worker(w: Workload, run_dir, wal_dir,
                 speed: HostSpeed | None = None) -> Server:
    """Spawn a worker and finish its lazy builds.  With ``speed``, the
    worker is paused for a reference probe every ``PROBE_EVERY_S`` once it
    listens."""
    server = Server(
        run_dir, "serve",
        w.serve_args() + ["--wal-dir", str(wal_dir.relative_to(ROOT))],
    )
    try:
        with speed.probing(server.process.pid) if speed else nullcontext():
            with server.client() as client:
                for dataset in w.datasets:
                    client.open_dataset(dataset)
                    result = client.execute(SinglePairQuery(dataset, 0, 1))
                    if not result.ok:
                        raise RuntimeError(f"warm-up query failed: {result.error}")
    except BaseException:
        server.kill()
        raise
    return server


class _Progress:
    """Reader progress the writer paces itself by."""

    def __init__(self) -> None:
        self.reads = 0
        self.target = 0
        self.reached = threading.Event()
        self.stop = threading.Event()

    def advance(self) -> None:
        self.reads += 1
        if self.reads >= self.target:
            self.reached.set()

    def wait_for(self, target: int, reader: threading.Thread) -> None:
        self.target = target
        self.reached.clear()
        while self.reads < target and reader.is_alive():
            self.reached.wait(0.5)


def read_loop(client, stream, w: Workload, keep: set, kept: dict,
              should_stop, progress: _Progress | None = None) -> Tally:
    """The closed-loop reader: one request in flight, a ``stats`` scrape
    every ``stats_every`` reads; answers at positions in ``keep`` are saved
    to ``kept`` for the gate."""
    tally = Tally()
    position = 0
    while not should_stop():
        query = stream[position % len(stream)]
        result = tally.run(client, query)
        if position in keep and result is not None and result.ok:
            kept[position] = (query, result.value)
        position += 1
        if progress is not None:
            progress.advance()
        if position % w.stats_every == 0:
            tally.run(client, StatsRequest())
    return tally


def _mutated_graph(base, acks):
    graph = base
    for request in acks:
        graph = graph.with_edges(request.add, request.remove)
    return graph


def _timed_mixed(w, server, stream, writes, keep, kept, seconds):
    """mutate_mix's timed phase: reader + paced writer on two connections."""
    progress = _Progress()
    reader_tally: list[Tally] = []
    acked: list = []
    sent = 0
    refreezes = 0
    writer_tally = Tally()
    with server.client() as reader_client, server.client() as writer_client:
        reader = threading.Thread(
            target=lambda: reader_tally.append(
                read_loop(reader_client, stream, w, keep, kept,
                          progress.stop.is_set, progress)
            ),
            name="bench-reader",
        )
        start = time.perf_counter()
        reader.start()
        try:
            for index, request in enumerate(writes):
                progress.wait_for((index + 1) * w.reads_per_mutate, reader)
                if not reader.is_alive():
                    break
                result = writer_tally.run(writer_client, request)
                sent += 1
                if result is not None and result.ok:
                    acked.append(request)
                if not request.refreeze:
                    continue
                refreezes += 1
                if (
                    refreezes >= w.min_cycles
                    and time.perf_counter() - start >= seconds
                ):
                    break
        finally:
            progress.stop.set()
            reader.join()
    if not reader_tally:
        raise RuntimeError("the reader thread died; see its traceback above")
    return reader_tally[0], writer_tally, acked, writes[sent:]


#: How far a WAL-recovered worker's answers may be from the live worker's
#: once both are re-frozen: they are rebuilds of one graph with one seed.
RECOVERY_TOLERANCE = 1e-6


def _answers(client, queries, found: list, label: str) -> list:
    """``(query, value)`` for each query answered; failures go to ``found``."""
    answers = []
    for query in queries:
        result = client.execute(query)
        if result.ok:
            answers.append((query, result.value))
        else:
            found.append(f"{label} probe failed: {result.error}")
    return answers


def _mutate_gate(w, run_dir, server, graphs, stream, unsent, acked,
                 wal_dir, rng) -> list[str]:
    """Dirty-state and WAL-recovery checks for mutate_mix.

    1. One more (non-refreeze) mutate leaves the index dirty; a probe
       sample is checked against the power method on the mutated graph
       within the acked ``epsilon_stale`` (ε if that mutate changed
       nothing and the index stayed clean).
    2. A bare ``refreeze`` mutate compacts it; the sample is checked again,
       within ε, and those answers are kept as the live ones.
    3. The worker is SIGKILLed.  Every acked ``mutation_id`` must be in the
       WAL on disk, and a worker reopened on it must answer the sample as
       the live one did, within ``RECOVERY_TOLERANCE``: both are re-frozen
       rebuilds of one graph and seed, so a mutation lost in recovery
       changes the answers far beyond it."""
    found: list[str] = []
    extra = next(request for request in unsent if not request.refreeze)
    compact = MutateRequest(w.primary, refreeze=True, mutation_id="bench-gate-refreeze")
    probe = [stream[i] for i in rng.sample(range(len(stream)), w.gate_sample)]
    with server.client() as client:
        ack = client.execute(extra)
        if not ack.ok:
            return [f"gate mutate failed: {ack.error}"]
        acked = [*acked, extra]
        truth = gate.PowerTruth({w.primary: _mutated_graph(graphs[w.primary], acked)})
        dirty_bound = float(ack.value["epsilon_stale"]) or w.epsilon
        found += gate.breaches(_answers(client, probe, found, "dirty"), truth, dirty_bound)
        ack = client.execute(compact)
        if not ack.ok:
            return found + [f"gate refreeze failed: {ack.error}"]
        acked.append(compact)
        live = _answers(client, probe, found, "live")
    found += gate.breaches(live, truth, w.epsilon)
    server.kill()
    with MutationWAL(wal_dir, w.primary) as wal:
        missing = [r.mutation_id for r in acked if not wal.known(r.mutation_id)]
    if missing:
        found.append(f"{len(missing)} acked mutates missing from the WAL: {missing[:5]}")
    reopened = start_worker(w, run_dir / "reopened", wal_dir)
    try:
        with reopened.client() as client:
            for query, live_value in live:
                result = client.execute(query)
                if not result.ok:
                    found.append(f"recovered probe failed: {result.error}")
                    continue
                distance = gate.answer_distance(query, result.value, live_value)
                if not distance <= RECOVERY_TOLERANCE:
                    found.append(
                        f"recovered {query.to_wire()} differs from live by "
                        f"{distance:.3g} (tolerance {RECOVERY_TOLERANCE:g})"
                    )
    finally:
        reopened.stop()
    return found


def _setup(w, reference, run_dir, setups):
    """``setups`` fresh workers, one after another; returns the last (still
    running) worker, its WAL directory, and the raw and host-normalised
    seconds each took to become able to answer."""
    raw, normalised = [], []
    server = None
    for attempt in range(setups):
        if server is not None:
            server.stop()
        speed = HostSpeed(reference)
        speed.probe()
        wal_dir = run_dir / f"wal{attempt}"
        server = start_worker(
            w, run_dir / f"setup{attempt}", wal_dir, speed
        )
        speed.probe()
        raw.append(speed.active_seconds())
        normalised.append(speed.nominal_seconds())
    return server, wal_dir, raw, normalised


def run(w: Workload, seed: int, seconds: float, reference,
        setups: int = SETUP_REPEATS) -> Outcome:
    calib_ms = host_calibration_ms(reference)
    graphs = w.graphs()
    stream = w.read_stream(
        graphs, seed, w.warm_events + int(seconds * EVENTS_PER_SECOND) + 1
    )
    warm, timed = stream[: w.warm_events], stream[w.warm_events:]
    writes = [
        replace(request, mutation_id=f"bench-{position}")
        for position, request in enumerate(w.write_stream(graphs, 4096))
    ] if w.writes else []
    rng = random.Random(seed)
    # Positions in the timed stream whose answers the gate checks
    # (mutate_mix checks its own probe after the timed phase instead).
    keep = set() if w.writes else set(rng.sample(range(20 * w.gate_sample), w.gate_sample))
    run_dir = new_run_dir(f"e2e-{w.name}")

    server, wal_dir, raw_setup, setup_seconds = _setup(w, reference, run_dir, setups)
    try:
        with server.client() as client:
            warm_tally = Tally()
            for query in warm:
                warm_tally.run(client, query)

        kept: dict = {}
        speed = HostSpeed(reference)
        gc.collect()
        gc.disable()
        cpu_before = server.cpu_seconds()
        speed.probe()
        try:
            with speed.probing(server.process.pid):
                if w.writes:
                    reads, mutates, acked, unsent = _timed_mixed(
                        w, server, timed, writes, keep, kept, seconds
                    )
                else:
                    with server.client() as client:
                        deadline = time.perf_counter() + seconds
                        reads = read_loop(
                            client, timed, w, keep, kept,
                            lambda: time.perf_counter() >= deadline,
                        )
                    mutates, acked = Tally(), []
        finally:
            speed.probe()
            gc.enable()
        cpu_ms_per_request = 1000.0 * (server.cpu_seconds() - cpu_before) / max(
            1, reads.attempted + mutates.attempted
        )
        rss_mb = server.rss_mb()

        if w.writes:
            breaches = _mutate_gate(
                w, run_dir, server, graphs, timed, unsent, acked,
                wal_dir, rng,
            )
            write_speed = speed
        else:
            if w.gate == "power":
                truth = gate.PowerTruth(graphs)
            else:
                truth = gate.ReferenceTruth(
                    graphs=graphs, epsilon=w.epsilon, seed=GRAPH_SEED
                )
            bound = w.epsilon if w.gate == "power" else 0.0
            breaches = gate.breaches(kept.values(), truth, bound)
            if not kept:
                breaches.append("no served answer was sampled for the gate")
            write_speed = HostSpeed(reference)
            write_speed.probe()
            with server.client() as client, write_speed.probing(server.process.pid):
                for edge in w.probe_edges:
                    if not graphs[w.primary].has_edge(*edge):
                        mutates.run(client, MutateRequest(w.primary, add=(edge,)))
                        mutates.run(client, MutateRequest(w.primary, remove=(edge,)))
            write_speed.probe()
    finally:
        server.stop()

    total = Tally()
    for part in (warm_tally, reads, mutates):
        total.merge(part)
    served_reads = reads.normalised(speed)
    served_mutates = mutates.normalised(write_speed)
    successful_reads = sum(len(reads.latencies.get(kind, ())) for kind in READ_KINDS)
    read_seconds = speed.active_seconds()
    metrics = {
        "setup_s": median(setup_seconds),
        "throughput_qps": successful_reads / speed.nominal_seconds(),
        **{
            f"{kind}_p{q}_ms": served_reads.ms(kind, q)
            for kind in READ_KINDS for q in (50, 90)
        },
        "stats_p50_ms": served_reads.ms("stats", 50),
        "mutate_p50_ms": served_mutates.ms("mutate", 50),
        "mutate_p90_ms": served_mutates.ms("mutate", 90),
        "worker_rss_mb": rss_mb,
    }
    breaches += [
        f"{name} was not measured" for name, value in metrics.items()
        if not math.isfinite(value) or value <= 0
    ]
    context = {
        "setup_samples_s": setup_seconds,
        "raw_setup_samples_s": raw_setup,
        "timed_seconds": read_seconds,
        "host.readings": {
            "timed": speed.median_reading(), "writes": write_speed.median_reading(),
        },
        "raw": {
            "throughput_qps": successful_reads / read_seconds,
            **{f"{kind}_p50_ms": reads.ms(kind, 50) for kind in (*READ_KINDS, "stats")},
            "mutate_p50_ms": mutates.ms("mutate", 50),
        },
        "probes": len(speed.points),
        "requests": {kind: len(v) for kind, v in reads.latencies.items()},
        "mutates": len(mutates.latencies.get("mutate", ())),
        "errors": total.errors,
        "host.calib_ms": calib_ms,
        "worker.cpu_ms_per_request": cpu_ms_per_request,
        "drift.p50_ratio": reads.drift_ratio(READ_KINDS),
        "gate_checked": len(kept) if not w.writes else w.gate_sample,
        "breaches": breaches,
    }
    return Outcome(
        correct=not breaches,
        attempted=total.attempted,
        failed=total.failed,
        metrics={name: (metrics[name], unit) for name, unit in E2E_UNITS.items()},
        context=context,
    )

"""Deterministic fault injection against the serving stack.

The robustness claims this repo makes — durable mutations, bounded
latency under faults, typed error envelopes instead of hangs — are only
claims until something actively tries to break them.  This module is that
something: a seeded harness that drives the *existing* traffic generator
(:mod:`repro.evaluation.traffic`) through a real ``repro router`` worker
pool while injecting the faults production serving actually sees, and
asserts the contract held:

* **no lost acked mutation** — every mutation the client saw acknowledged
  is present in the worker's WAL, and a fresh service recovered from that
  WAL answers within tolerance of the live pre-shutdown service;
* **no hang past the deadline** — every request resolves (success or typed
  error) within its end-to-end budget plus transport slack;
* **no wrong kind of failure** — every error envelope carries a code from
  the documented taxonomy (``unavailable`` / ``overloaded`` /
  ``deadline_exceeded`` / ``timeout``), never a raw disconnect, a bare
  traceback, or silence.

Fault repertoire (each seeded, each optional via :class:`ChaosProfile`):

* ``SIGKILL`` of the worker owning the dataset, fired milliseconds into an
  in-flight ``mutate`` — the crash-recovery drill (client retries carry a
  ``mutation_id``, so the replayed mutate deduplicates instead of applying
  twice);
* hostile frames on a raw connection — garbage lines, truncated JSON,
  half-frames followed by an abrupt disconnect, and a stalled reader that
  never sends — the router must answer typed envelopes and keep serving
  everyone else;
* disk-full on WAL append (:func:`disk_full` wraps the WAL's log file
  with a byte budget) —
  the mutation must fail *retryably*, roll back in memory, and leave the
  log replayable;
* a slow shard (:func:`slow_shard` stalls the service's data plane)
  under tight deadlines and a bounded executor — queued work must shed with
  ``deadline_exceeded`` / ``overloaded`` instead of queueing unboundedly.

``repro chaos`` is the CLI face of :func:`run_chaos`;
``benchmarks/bench_resilience.py`` runs the storm with and without faults
to record the latency cost of surviving them.
"""

from __future__ import annotations

import errno
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..engine import BackendConfig, latency_quantiles
from ..exceptions import ParameterError
from ..graphs import datasets
from ..service import ServiceConfig, SimRankService
from ..service.client import RetryPolicy, SimRankClient
from ..service.control import MutateRequest, OpenDatasetRequest
from ..service.net.channel import Address, LineChannel
from ..service.net.router import Router, WorkerPool
from ..service.queries import SingleSourceQuery
from ..service.results import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ERROR_UNAVAILABLE,
    SparseScores,
)
from ..service.wal import MutationWAL
from .traffic import TrafficPattern, chaos_pattern_overrides, generate_traffic

__all__ = ["ChaosProfile", "disk_full", "run_chaos", "run_storm", "slow_shard"]

#: Environment variable that arms :func:`slow_shard` with a per-query stall
#: in milliseconds.  The CLI reads it when it builds a service (``repro
#: serve``, ``repro batch``, ...), so a drill arms a spawned worker through
#: its environment.
SLOW_SHARD_ENV = "REPRO_FAULT_SLOW_MS"


def slow_shard(service: SimRankService) -> SimRankService:
    """Make ``service`` a slow shard when :data:`SLOW_SHARD_ENV` is set:
    every data-plane query (``execute``) stalls that many milliseconds
    before it runs.  The control plane (``execute_control``: ``ping``,
    ``stats``, ``mutate``) is untouched, so the router's health checks stay
    honest.  Returns ``service``."""
    try:
        stall = float(os.environ.get(SLOW_SHARD_ENV, 0)) / 1000.0
    except ValueError:
        stall = 0.0
    if stall > 0:
        execute = service.execute

        def stalled(query, **kwargs):
            time.sleep(stall)
            return execute(query, **kwargs)

        service.execute = stalled
    return service


@contextmanager
def disk_full(wal: MutationWAL, limit: int):
    """Within the block, appends to ``wal`` fail with ``ENOSPC`` once its
    log would grow past ``limit`` bytes — the disk-full fault, injected by
    wrapping the WAL's log file."""
    log = wal.log_file

    class Full:
        def write(self, data: bytes) -> int:
            if log.tell() + len(data) > limit:
                raise OSError(errno.ENOSPC, "injected disk-full on WAL append")
            return log.write(data)

        def __getattr__(self, name: str):
            return getattr(log, name)

    wal.log_file = Full()
    try:
        yield wal
    finally:
        if isinstance(wal.log_file, Full):
            wal.log_file = log


#: Error codes a fault drill is *allowed* to produce.  Anything else —
#: ``bad_request``, ``internal_error``, a raw exception — is a bug in the
#: stack (or the harness) and fails the run.
_EXPECTED_FAULT_CODES = frozenset(
    {ERROR_UNAVAILABLE, ERROR_OVERLOADED, ERROR_DEADLINE_EXCEEDED, ERROR_TIMEOUT}
)


@dataclass(frozen=True)
class ChaosProfile:
    """Every knob of one chaos run — the seed pins the fault schedule."""

    #: Seed for traffic, retry jitter, and the fault schedule.
    seed: int = 0
    #: Worker processes behind the router.
    workers: int = 2
    #: Traffic events in the storm.
    events: int = 120
    #: Stand-in graph scale (kept small: chaos measures resilience, not
    #: index build time).
    scale: float = 0.05
    #: SLING accuracy target shared by workers and the reference service.
    epsilon: float = 0.05
    #: Monte-Carlo walks (kept low for run time; unused by sling queries).
    mc_walks: int = 50
    #: The dataset the storm targets (one dataset -> one owning worker ->
    #: one deterministic kill target).
    dataset: str = "GrQc"
    #: Named :data:`~repro.evaluation.traffic.CHAOS_TRAFFIC_PROFILES` shape.
    traffic_profile: str = "mixed-faults"
    #: End-to-end budget stamped on every storm request, in ms.  Generous:
    #: it must absorb a worker restart, or recovery itself would breach it.
    deadline_ms: float = 20000.0
    #: Fire a SIGKILL into the dataset's owning worker mid-mutate.
    kill_worker: bool = True
    #: Send garbage/truncated/stalled frames on raw side connections.
    hostile_frames: bool = True
    #: Run the disk-full-on-WAL-append drill.
    disk_full: bool = True
    #: Run the slow-shard / overload-shedding drill.
    slow_shard: bool = True
    #: Injected per-query stall for the slow-shard drill, in ms.
    slow_ms: float = 300.0
    #: Deadline for slow-shard requests, in ms (well under ``slow_ms`` so
    #: queued requests expire before dispatch).
    slow_deadline_ms: float = 150.0
    #: Worker health-check interval (small: recovery time is measured).
    health_interval: float = 0.3
    #: Workers journal mutations to a WAL (the durable configuration the
    #: acceptance invariants assume); ``False`` runs a lossy storm for
    #: comparison and skips the durability invariants.
    wal: bool = True

    def __post_init__(self) -> None:
        if self.events < 1:
            raise ParameterError(f"events must be >= 1, got {self.events}")
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        if self.deadline_ms <= 0 or self.slow_deadline_ms <= 0:
            raise ParameterError("deadlines must be positive")


def _serve_args(profile: ChaosProfile, wal_dir: str | None) -> list[str]:
    args = [
        "--scale", str(profile.scale),
        "--epsilon", str(profile.epsilon),
        "--seed", str(profile.seed),
        "--mc-walks", str(profile.mc_walks),
        "--backend", "sling",
        "--workers", "1",
    ]
    if wal_dir is not None:
        args += ["--wal-dir", wal_dir]
    return args


def _node_count(profile: ChaosProfile) -> int:
    spec = datasets.DATASETS[profile.dataset]
    return max(16, int(spec.standin_nodes * profile.scale))


def _storm_pattern(profile: ChaosProfile) -> TrafficPattern:
    overrides = chaos_pattern_overrides(profile.traffic_profile)
    # The harness stamps deadlines itself (per attempt, through the
    # client); a pattern-level stamp would be dead weight here.
    overrides.pop("deadline_ms", None)
    return TrafficPattern(
        num_queries=profile.events, seed=profile.seed, **overrides
    )


def _latency_summary(seconds: list[float]) -> dict:
    """Nearest-rank quantiles (:func:`~repro.engine.latency_quantiles`, the
    one sample-quantile rule) in milliseconds, plus the mean and the max."""
    quantiles = latency_quantiles(seconds)
    count = quantiles.pop("count")
    return {
        "count": count,
        "mean_ms": sum(seconds) / count * 1000.0 if count else 0.0,
        **{f"{name}_ms": value * 1000.0 for name, value in quantiles.items()},
        "max_ms": max(seconds, default=0.0) * 1000.0,
    }


def _kill_mid_request(pid: int, delay_seconds: float = 0.005) -> threading.Thread:
    """SIGKILL ``pid`` shortly after return — so the shot lands while the
    caller's next request is in flight, the genuinely ugly moment."""

    def fire() -> None:
        time.sleep(delay_seconds)
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:  # pragma: no cover - already gone
            pass

    thread = threading.Thread(target=fire, name="repro-chaos-kill", daemon=True)
    thread.start()
    return thread


def _hostile_frames(address, timeout: float = 10.0) -> dict:
    """Garbage, truncation, and stalls on raw connections; every complete
    line must be answered with a JSON envelope and the endpoint must keep
    serving afterwards."""
    report = {"lines_sent": 0, "envelopes": 0, "ping_ok": False, "survived": False}

    def converse(lines: list[str], *, abrupt: bool) -> list[str]:
        sock = address.connect(timeout=timeout)
        channel = LineChannel(sock)
        responses: list[str] = []
        try:
            channel.settimeout(timeout)
            channel.read_line()  # hello
            for line in lines:
                channel.send_line(line)
                response = channel.read_line()
                if response is not None:
                    responses.append(response)
            if abrupt:
                # A half-frame then a hard disconnect: the server must
                # drop the connection without taking anything else down.
                try:
                    sock = channel._sock  # type: ignore[attr-defined]
                    sock.sendall(b'{"v":2,"id":')
                except (OSError, AttributeError):
                    pass
        except (OSError, socket.timeout):
            pass
        finally:
            channel.close()
        return responses

    garbage = [
        "this is not json",
        '{"v":2,"id":7,"kind":"no_such_kind"}',
        '{"v":2,"id":8',
        "[1,2,3]",
    ]
    responses = converse(garbage, abrupt=True)
    report["lines_sent"] = len(garbage)
    report["envelopes"] = sum(
        1 for line in responses if line.lstrip().startswith("{")
    )
    # A stalled reader: connect, say nothing, hold, hang up.
    try:
        stall = address.connect(timeout=timeout)
        time.sleep(0.2)
        stall.close()
    except OSError:
        pass
    # The endpoint must still answer a clean ping after all of the above.
    pong = converse(['{"v":2,"id":"after","kind":"ping"}'], abrupt=False)
    report["ping_ok"] = any('"pong":true' in line for line in pong)
    report["survived"] = report["envelopes"] == len(garbage) and report["ping_ok"]
    return report


def run_storm(
    profile: ChaosProfile | None = None, *, inject_kill: bool | None = None
) -> dict:
    """The main drill: seeded traffic through a router-fronted worker pool,
    with (or, for baselines, without) a mid-mutation worker SIGKILL.

    Returns a report dict; see the module docstring for the invariants it
    evaluates.  ``inject_kill`` overrides ``profile.kill_worker`` so the
    resilience benchmark can run the identical storm fault-free.
    """
    profile = profile or ChaosProfile()
    if inject_kill is None:
        inject_kill = profile.kill_worker
    started = time.perf_counter()
    run_dir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    wal_dir = str(run_dir / "wal") if profile.wal else None
    if wal_dir is not None:
        Path(wal_dir).mkdir()

    events = generate_traffic(
        {profile.dataset: _node_count(profile)}, _storm_pattern(profile)
    )
    expected_mutations = sum(
        1 for event in events if isinstance(event.query, MutateRequest)
    )
    kill_after = max(1, expected_mutations // 3) if inject_kill else None

    pool = WorkerPool(
        profile.workers,
        serve_args=_serve_args(profile, wal_dir),
        run_dir=run_dir / "sockets",
        health_interval=profile.health_interval,
        ping_timeout=2.0,
        ping_retries=1,
    )
    outcomes: dict[str, int] = {}
    latencies: list[float] = []
    hang_budget = profile.deadline_ms / 1000.0 + 10.0
    hang_violations = 0
    acked: list[str] = []
    deduplicated = 0
    failed_mutations: list[MutateRequest] = []
    killed_at: float | None = None
    recovery_seconds: float | None = None
    failed_after_kill = False
    hostile: dict | None = None
    report: dict = {"wal": profile.wal, "killed": False, "events": len(events)}

    def record(code: str, seconds: float) -> None:
        nonlocal hang_violations
        outcomes[code] = outcomes.get(code, 0) + 1
        latencies.append(seconds)
        if seconds > hang_budget:
            hang_violations += 1

    try:
        pool.start()
        router = Router(
            pool,
            address=Address(family="unix", path=str(run_dir / "router.sock")),
            request_timeout=30.0,
            durable=profile.wal,
        )
        router.start()
        try:
            client = SimRankClient(
                address=router.address,
                timeout=10.0,
                retry=RetryPolicy(
                    max_attempts=6,
                    base_delay=0.1,
                    max_delay=1.0,
                    seed=profile.seed,
                ),
                deadline_ms=profile.deadline_ms,
            )
            client.execute(OpenDatasetRequest(profile.dataset))
            acked_mutations = 0
            for event in events:
                request = event.query
                if isinstance(request, MutateRequest):
                    request = replace(
                        request,
                        mutation_id=f"chaos-{profile.seed}-{event.index}",
                    )
                    if (
                        kill_after is not None
                        and killed_at is None
                        and acked_mutations >= kill_after
                    ):
                        pid = pool.worker_pid(
                            router.shard_for(profile.dataset)
                        )
                        if pid is not None:
                            _kill_mid_request(pid)
                            killed_at = time.monotonic()
                            report["killed"] = True
                t0 = time.monotonic()
                result = client.execute(request)
                elapsed = time.monotonic() - t0
                code = "ok" if result.ok else (
                    result.error.code if result.error else "unknown"
                )
                record(code, elapsed)
                if killed_at is not None and recovery_seconds is None:
                    if not result.ok:
                        failed_after_kill = True
                    elif failed_after_kill:
                        recovery_seconds = time.monotonic() - killed_at
                if isinstance(request, MutateRequest):
                    if result.ok:
                        acked_mutations += 1
                        acked.append(request.mutation_id)
                        if isinstance(result.value, dict) and result.value.get(
                            "deduplicated"
                        ):
                            deduplicated += 1
                    else:
                        failed_mutations.append(request)
            # Kill observed but traffic never failed/recovered in-stream:
            # recovery was faster than the next request landed.
            if killed_at is not None and recovery_seconds is None:
                recovery_seconds = time.monotonic() - killed_at

            # Settle every still-unacked mutation: the mutation_id makes
            # re-sending idempotent, so this converges the storm to a
            # fully-acknowledged history the durability check can pin.
            still_failed: list[str] = []
            for request in failed_mutations:
                for _ in range(40):
                    result = client.execute(request)
                    if result.ok:
                        acked.append(request.mutation_id)
                        break
                    time.sleep(0.25)
                else:
                    still_failed.append(request.mutation_id)

            if profile.hostile_frames:
                hostile = _hostile_frames(router.address)

            # Compact before probing: a re-freeze restores rebuild-parity
            # answers, so the recovered reference below must match the live
            # probes almost bitwise — any daylight is a lost mutation.
            final_refreeze = MutateRequest(
                dataset=profile.dataset,
                refreeze=True,
                mutation_id=f"chaos-{profile.seed}-final",
            )
            refreeze_result = client.execute(final_refreeze)
            if refreeze_result.ok:
                acked.append(final_refreeze.mutation_id)
            probe_nodes = _probe_nodes(events, _node_count(profile))
            probes: dict[int, SparseScores] = {}
            for node in probe_nodes:
                result = client.execute(
                    SingleSourceQuery(dataset=profile.dataset, node=node)
                )
                if result.ok:
                    probes[node] = result.value
            client.close()
        finally:
            router.stop()  # stops the pool too
        if profile.wal:
            durability, recovery_match = _verify_wal(
                profile, wal_dir, acked, probes
            )
            report["durability"] = durability
            report["recovery_match"] = recovery_match
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report.update(
        {
            "outcomes": dict(sorted(outcomes.items())),
            "unexpected_codes": sorted(
                code
                for code in outcomes
                if code not in _EXPECTED_FAULT_CODES and code != "ok"
            ),
            "latency": _latency_summary(latencies),
            "hang_budget_seconds": hang_budget,
            "hang_violations": hang_violations,
            "recovery_seconds": recovery_seconds,
            "restarts": pool.restart_counts(),
            "mutations": {
                "expected": expected_mutations,
                "acked": len(acked),
                "unacked": len(still_failed),
                "deduplicated": deduplicated,
            },
            "hostile": hostile,
        }
    )

    report["no_lost_mutations"] = (
        not profile.wal
        or (
            report["durability"]["missing_from_wal"] == []
            and report["recovery_match"]["ok"]
        )
    )
    report["seconds"] = time.perf_counter() - started
    return report


def _probe_nodes(events, num_nodes: int) -> list[int]:
    """A handful of distinct query sources from the storm, plus node 0 —
    the fixed points the live-vs-recovered comparison reads."""
    nodes: list[int] = []
    for event in events:
        node = getattr(event.query, "node", None)
        if node is not None and node not in nodes and node < num_nodes:
            nodes.append(node)
        if len(nodes) >= 5:
            break
    if 0 not in nodes:
        nodes.append(0)
    return nodes


def _verify_wal(
    profile: ChaosProfile,
    wal_dir: str,
    acked: list[str],
    probes: dict[int, SparseScores],
) -> tuple[dict, dict]:
    """The two durability invariants, evaluated against the WAL on disk.

    (1) Every acked ``mutation_id`` is in the WAL (snapshot or tail) —
    the literal "no lost acked mutation".  (2) A fresh service recovered
    from that WAL answers the storm's probe queries within a hair of the
    live (re-frozen) service — recovery reproduces state, not just ids.
    """
    wal = MutationWAL(wal_dir, profile.dataset)
    try:
        missing = sorted(
            mutation_id for mutation_id in acked if not wal.known(mutation_id)
        )
        stats = wal.stats()
    finally:
        wal.close()
    durability = {
        "acked": len(acked),
        "missing_from_wal": missing,
        "wal": stats,
    }
    reference = SimRankService(
        ServiceConfig(
            backend="sling",
            scale=profile.scale,
            seed=profile.seed,
            wal_dir=wal_dir,
            backend_config=BackendConfig(
                epsilon=profile.epsilon,
                seed=profile.seed,
                mc_num_walks=profile.mc_walks,
            ),
        )
    )
    max_diff = 0.0
    compared = 0
    try:
        for node, live_vector in probes.items():
            result = reference.execute(
                SingleSourceQuery(dataset=profile.dataset, node=node)
            )
            if not result.ok:
                max_diff = float("inf")
                continue
            compared += 1
            diff = np.abs(np.asarray(live_vector) - np.asarray(result.value))
            max_diff = max(max_diff, float(diff.max(initial=0.0)))
    finally:
        reference.close_all()
    # Both sides are re-frozen stores over (what must be) the same graph
    # and seed, so agreement is essentially bitwise; the certified bound
    # ``eps_stale`` would only apply had the re-freeze been skipped.
    tolerance = 1e-6
    recovery_match = {
        "probes": compared,
        "max_abs_diff": max_diff,
        "tolerance": tolerance,
        "ok": compared == len(probes) and max_diff <= tolerance,
    }
    return durability, recovery_match


def run_disk_full(profile: ChaosProfile | None = None) -> dict:
    """Disk-full on WAL append: the mutation must fail with a *retryable*
    typed error, roll back in memory, and leave both the live service and
    the on-disk log consistent — then succeed once space returns."""
    profile = profile or ChaosProfile()
    run_dir = tempfile.mkdtemp(prefix="repro-chaos-df-")
    report: dict = {}
    service = SimRankService(
        ServiceConfig(
            backend="sling",
            scale=profile.scale,
            seed=profile.seed,
            wal_dir=run_dir,
            backend_config=BackendConfig(
                epsilon=profile.epsilon,
                seed=profile.seed,
                mc_num_walks=profile.mc_walks,
            ),
        )
    )
    try:
        dataset = profile.dataset
        service.open_dataset(dataset)
        first = service.execute_control(
            MutateRequest(dataset=dataset, add=((1, 2),), mutation_id="df-1")
        )
        report["first_mutation_ok"] = first.ok
        before = service.execute(SingleSourceQuery(dataset=dataset, node=1))
        wal = service.wal_for(dataset)
        with disk_full(wal, wal.stats()["bytes"] + 8):
            full = service.execute_control(
                MutateRequest(
                    dataset=dataset, add=((2, 3),), mutation_id="df-2"
                )
            )
        report["disk_full_code"] = (
            full.error.code if full.error else ("ok" if full.ok else "unknown")
        )
        report["disk_full_retryable"] = (
            not full.ok and full.error is not None
            and full.error.code == ERROR_UNAVAILABLE
        )
        after = service.execute(SingleSourceQuery(dataset=dataset, node=1))
        # The failed mutate rolled back: reads still answer, within the
        # staleness the extra apply+rollback layer is certified to cost.
        drift = float(
            np.max(np.abs(np.asarray(before.value) - np.asarray(after.value)))
        ) if before.ok and after.ok else float("inf")
        report["reads_survive"] = after.ok
        report["rollback_drift"] = drift
        retried = service.execute_control(
            MutateRequest(dataset=dataset, add=((2, 3),), mutation_id="df-2")
        )
        report["retry_after_space_ok"] = retried.ok and not (
            isinstance(retried.value, dict)
            and retried.value.get("deduplicated")
        )
        service.close_all()
        # Recovery must replay exactly the two appends that were acked.
        recovered = SimRankService(
            ServiceConfig(
                backend="sling",
                scale=profile.scale,
                seed=profile.seed,
                wal_dir=run_dir,
                backend_config=BackendConfig(
                    epsilon=profile.epsilon,
                    seed=profile.seed,
                    mc_num_walks=profile.mc_walks,
                ),
            )
        )
        try:
            recovered.open_dataset(dataset)
            wal = recovered.wal_for(dataset)
            report["recovered_ids"] = sorted(
                mutation_id
                for mutation_id in ("df-1", "df-2")
                if wal.known(mutation_id)
            )
        finally:
            recovered.close_all()
        report["ok"] = (
            report["first_mutation_ok"]
            and report["disk_full_retryable"]
            and report["reads_survive"]
            and report["retry_after_space_ok"]
            and report["recovered_ids"] == ["df-1", "df-2"]
        )
    finally:
        service.close_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    return report


def run_slow_shard(profile: ChaosProfile | None = None) -> dict:
    """A slow shard under tight deadlines and a bounded executor: queued
    requests must shed (``deadline_exceeded`` / ``overloaded``), nothing
    may hang, and the worker must stay health-check-responsive (its control
    plane is unaffected by the data-plane stall)."""
    profile = profile or ChaosProfile()
    run_dir = Path(tempfile.mkdtemp(prefix="repro-chaos-slow-"))
    outcomes: dict[str, int] = {}
    max_seconds = 0.0
    lock = threading.Lock()
    os.environ[SLOW_SHARD_ENV] = str(profile.slow_ms)
    try:
        pool = WorkerPool(
            1,
            serve_args=_serve_args(profile, None) + ["--max-pending", "2"],
            run_dir=run_dir,
            health_interval=profile.health_interval,
            ping_timeout=2.0,
            ping_retries=1,
        )
        pool.start()
        try:
            address = pool.worker_address(0)
            with SimRankClient(address=address, timeout=10.0) as opener:
                opener.execute(OpenDatasetRequest(profile.dataset))

            def hammer(offset: int) -> None:
                nonlocal max_seconds
                with SimRankClient(
                    address=address,
                    timeout=10.0,
                    deadline_ms=profile.slow_deadline_ms,
                ) as client:
                    for step in range(4):
                        t0 = time.monotonic()
                        result = client.execute(
                            SingleSourceQuery(
                                dataset=profile.dataset,
                                node=(offset * 4 + step)
                                % _node_count(profile),
                            )
                        )
                        elapsed = time.monotonic() - t0
                        code = "ok" if result.ok else (
                            result.error.code if result.error else "unknown"
                        )
                        with lock:
                            outcomes[code] = outcomes.get(code, 0) + 1
                            max_seconds = max(max_seconds, elapsed)

            threads = [
                threading.Thread(
                    target=hammer, args=(offset,), name=f"repro-chaos-slow-{offset}"
                )
                for offset in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            pool.stop()
    finally:
        os.environ.pop(SLOW_SHARD_ENV, None)
        shutil.rmtree(run_dir, ignore_errors=True)
    shed_codes = {ERROR_DEADLINE_EXCEEDED, ERROR_OVERLOADED, ERROR_TIMEOUT}
    unexpected = sorted(
        code for code in outcomes if code != "ok" and code not in shed_codes
    )
    bound = profile.slow_ms / 1000.0 + profile.slow_deadline_ms / 1000.0 + 5.0
    return {
        "outcomes": dict(sorted(outcomes.items())),
        "shed_observed": any(code in outcomes for code in shed_codes),
        "unexpected_codes": unexpected,
        "max_request_seconds": max_seconds,
        "bounded": max_seconds <= bound,
        "ok": not unexpected
        and any(code in outcomes for code in shed_codes)
        and max_seconds <= bound,
    }


def run_chaos(profile: ChaosProfile | None = None) -> dict:
    """The full fault suite; see the module docstring.  The returned
    report's ``ok`` aggregates every invariant — ``repro chaos`` turns it
    into the exit code, and CI's chaos-smoke job runs exactly this."""
    profile = profile or ChaosProfile()
    report: dict = {"profile": asdict(profile), "scenarios": {}}
    storm = run_storm(profile)
    report["scenarios"]["storm"] = storm
    invariants = {
        "no_lost_mutations": bool(storm.get("no_lost_mutations")),
        "no_hangs": storm["hang_violations"] == 0,
        "typed_errors_only": storm["unexpected_codes"] == [],
        "mutations_all_acked": storm["mutations"]["unacked"] == 0,
        "recovered": (
            not storm["killed"] or storm["recovery_seconds"] is not None
        ),
        "survived_hostile_frames": (
            not profile.hostile_frames
            or bool((storm.get("hostile") or {}).get("survived"))
        ),
    }
    if profile.disk_full:
        disk = run_disk_full(profile)
        report["scenarios"]["disk_full"] = disk
        invariants["disk_full_contained"] = bool(disk.get("ok"))
    if profile.slow_shard:
        slow = run_slow_shard(profile)
        report["scenarios"]["slow_shard"] = slow
        invariants["slow_shard_shed"] = bool(slow.get("ok"))
    report["invariants"] = invariants
    report["ok"] = all(invariants.values())
    return report

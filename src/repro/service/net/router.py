"""Multi-process sharded serving: a worker pool and the router in front.

The scale-out model: ``N`` worker processes, each a ``repro serve --unix``
child over its own Unix socket, all configured identically (same scale,
seed, backend knobs — and ideally the same prebuilt ``--index-dir``, so
every worker mmaps one shared packed index read-only).  The
:class:`Router` serves the public address through the same
:class:`~repro.service.net.SocketServer` accept loop and
:class:`~repro.service.net.pump.Pump` every serving process runs, so a
router connection behaves like any other: an opening ``hello``, ordered
pipelined responses (up to ``4 * workers`` in flight), ``id`` echo,
``bad_request`` for garbage and over-cap lines, ``ping`` answered ahead of
the queue (by the router itself: worker health is the pool's job).  Where
a worker process hands its pump a
:class:`~repro.service.ParallelExecutor`, the router hands it a routing
dispatcher, which forwards

* **data-plane queries** to one worker per dataset — a consistent hash over
  the (lower-cased) dataset name, optionally overridden per dataset with
  explicit pins — so each dataset's engine, index, and single-source cache
  live in exactly one process and stay hot;
* **targeted control** (``open_dataset`` / ``close_dataset`` /
  ``describe(dataset)`` / ``mutate``) to that same shard;
* **fan-out control** (``list_datasets``, ``stats``) to every worker, with
  the responses merged into one envelope shaped exactly like a single
  server's (statistics totals are summed, latency percentiles recomputed
  from the merged samples);
* ``shutdown`` as a broadcast — acknowledging the client, stopping every
  worker, then the router itself.

Requests travel to workers over the client library's socket transport, one
lockstep request per connection from a per-worker pool of idle ones.  A
dataset's request is written to its worker the moment the pump submits it
and its reply is read when the pump is ready to write it, so no thread
sits between the two.  Each request is re-encoded from its decoded
envelope, its ``deadline_ms`` charged with the time it spent at the router
(a spent budget is shed here with ``deadline_exceeded``); it then takes
one of its worker's ``max_inflight`` slots (past the cap it is answered
``overloaded`` without queueing).  Every reply is decoded — and so
checked — into a :class:`~repro.service.results.QueryResult`; the pump
relays a forwarded reply's own lines and encodes only what the router
merged or patched.

Failure semantics — the reason this layer exists: the :class:`WorkerPool`
health-checks each worker (process liveness plus a ``ping`` with timeout
and retries) and restarts dead ones, **replaying their open-dataset state**
so the replacement is warm before traffic returns.  A client whose request
is in flight when its worker dies receives a structured ``unavailable``
error envelope — never a hang — and the very same connection succeeds again
once the replacement worker is up (worker sockets rebind the same path).
"""

from __future__ import annotations

import bisect
import hashlib
import subprocess
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from ...engine import merge_statistics_totals
from ...exceptions import ParameterError, ReproError
from ..client import _SocketTransport
from ..control import PingRequest
from ..results import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_UNAVAILABLE,
    QueryResult,
)
from ..wire import PROTOCOL_VERSION, RequestEnvelope
from .channel import DEFAULT_MAX_LINE_BYTES, Address
from .socket_server import SocketServer
from .spawn import spawn_serve, wait_for_hello

__all__ = ["HashRing", "WorkerPool", "Router"]

#: Budget for reaching a worker and reading its hello, in seconds.
_CONNECT_SECONDS = 5.0


def _exchange(address: Address, payload: dict, *, timeout: float) -> QueryResult | None:
    """One request to a worker over a fresh connection; ``None`` when the
    worker cannot be reached or answers with something that is not a
    response."""
    try:
        transport = _SocketTransport(
            address, connect_timeout=timeout, timeout=timeout
        )
        try:
            return transport.roundtrip(payload)
        finally:
            transport.close()
    except (ReproError, ValueError):
        return None


class HashRing:
    """Consistent hashing of dataset names onto worker indexes.

    Virtual nodes are keyed by worker *index*, so the mapping is stable
    across worker restarts (a replacement worker keeps its predecessor's
    shard) and across router restarts with the same worker count.
    """

    def __init__(self, worker_count: int, *, replicas: int = 64) -> None:
        if worker_count < 1:
            raise ParameterError(f"worker_count must be >= 1, got {worker_count}")
        points = []
        for worker in range(worker_count):
            for replica in range(replicas):
                points.append((self._hash(f"worker-{worker}#{replica}"), worker))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]
        self.worker_count = worker_count

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
        )

    def lookup(self, key: str) -> int:
        """The worker owning ``key`` (case-insensitive)."""
        position = bisect.bisect_right(self._hashes, self._hash(key.lower()))
        return self._owners[position % len(self._owners)]

    def assignments(self, keys: Sequence[str]) -> dict[str, int]:
        """Owner per key — handy for capacity planning and the benchmarks."""
        return {key: self.lookup(key) for key in keys}


class _Worker:
    """One pool slot: its stable Unix-socket address and current process."""

    def __init__(self, index: int, address: Address) -> None:
        self.index = index
        self.address = address
        self.process: subprocess.Popen | None = None
        self.generation = 0
        self.restarts = 0


class WorkerPool:
    """Spawn, health-check, and restart ``repro serve --unix`` children.

    Each worker binds a stable per-index socket path under ``run_dir``, so
    a restarted worker is reachable at the same address and clients (the
    router's transports) simply reconnect.  Health checking is
    two-layered: a cheap ``poll()`` catches crashed processes immediately,
    and a ``ping`` round-trip with ``ping_timeout`` / ``ping_retries``
    catches wedged-but-alive ones.  ``on_restart(index)`` fires after a
    replacement is ready — the router uses it to replay open datasets.
    """

    def __init__(
        self,
        count: int,
        *,
        serve_args: Sequence[str] = (),
        run_dir: str | Path | None = None,
        health_interval: float = 2.0,
        ping_timeout: float = 5.0,
        ping_retries: int = 2,
        spawn_timeout: float = 120.0,
    ) -> None:
        if count < 1:
            raise ParameterError(f"worker count must be >= 1, got {count}")
        self._owns_run_dir = run_dir is None
        self._run_dir = Path(
            run_dir if run_dir is not None
            else tempfile.mkdtemp(prefix="repro-router-")
        )
        self._run_dir.mkdir(parents=True, exist_ok=True)
        self._serve_args = list(serve_args)
        self._health_interval = health_interval
        self._ping_timeout = ping_timeout
        self._ping_retries = ping_retries
        self._spawn_timeout = spawn_timeout
        self._workers = [
            _Worker(
                index,
                Address(
                    family="unix",
                    path=str(self._run_dir / f"worker-{index}.sock"),
                ),
            )
            for index in range(count)
        ]
        self._lock = threading.RLock()
        self._stopping = threading.Event()
        self._health_thread: threading.Thread | None = None
        #: Called with the worker index after a successful restart.
        self.on_restart: Callable[[int], None] | None = None

    @property
    def count(self) -> int:
        """Number of worker slots."""
        return len(self._workers)

    def worker_address(self, index: int) -> Address:
        """The stable socket address of worker ``index``."""
        return self._workers[index].address

    @property
    def chunk_size(self) -> int | None:
        """The workers' server-side streaming default (their
        ``--chunk-size``), which the router's connections apply too."""
        args = self._serve_args
        for flag, value in zip(args, args[1:]):
            if flag == "--chunk-size":
                return int(value)
        return None

    def restart_counts(self) -> list[int]:
        """Restarts per worker so far (observability / tests)."""
        return [worker.restarts for worker in self._workers]

    def worker_pid(self, index: int) -> int | None:
        """The OS pid of worker ``index``'s current process (``None`` before
        spawn) — the handle the fault-injection harness kills through."""
        process = self._workers[index].process
        return process.pid if process is not None else None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn every worker, wait until all are ready, begin health checks."""
        for worker in self._workers:
            self._spawn(worker)
        for worker in self._workers:
            self._wait_ready(worker)
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-pool-health", daemon=True
        )
        self._health_thread.start()

    def _spawn(self, worker: _Worker) -> None:
        worker.process = spawn_serve(worker.address.path, self._serve_args)
        worker.generation += 1

    def _wait_ready(self, worker: _Worker) -> None:
        """Block until the worker accepts a connection and says hello."""
        wait_for_hello(
            worker.process,
            worker.address,
            timeout=self._spawn_timeout,
            name=f"worker {worker.index}",
        )

    # ------------------------------------------------------------------ #
    def _ping(self, worker: _Worker) -> bool:
        """One ping round-trip over a fresh connection; ``True`` if healthy."""
        result = _exchange(
            worker.address,
            {"v": 2, "id": "health", "kind": "ping"},
            timeout=self._ping_timeout,
        )
        return result is not None and result.ok and result.kind == "ping"

    def _health_loop(self) -> None:
        while not self._stopping.wait(self._health_interval):
            for worker in self._workers:
                if self._stopping.is_set():
                    return
                process = worker.process
                if process is not None and process.poll() is not None:
                    if process.returncode == 0:
                        # A clean exit is deliberate — an acknowledged
                        # shutdown broadcast racing this health pass, not a
                        # failure to heal.  Respawning here would churn a
                        # worker that pool.stop() is about to reap anyway.
                        continue
                    self._restart(worker)
                    continue
                healthy = False
                for _ in range(self._ping_retries + 1):
                    if self._ping(worker):
                        healthy = True
                        break
                    if self._stopping.is_set():
                        return
                if not healthy:
                    self._restart(worker)

    def _restart(self, worker: _Worker) -> None:
        with self._lock:
            if self._stopping.is_set():
                return
            process = worker.process
            if process is not None:
                try:
                    process.kill()
                except OSError:
                    pass
                process.wait()
            self._spawn(worker)
            try:
                self._wait_ready(worker)
            except RuntimeError:
                # The replacement failed to come up; the next health pass
                # will try again rather than crash the pool.
                return
            worker.restarts += 1
        if self.on_restart is not None:
            try:
                self.on_restart(worker.index)
            except Exception:  # noqa: BLE001 - replay is best-effort warming
                pass

    def restart_worker(self, index: int) -> None:
        """Restart one worker now (the health loop's path, callable in tests)."""
        self._restart(self._workers[index])

    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Stop health checking, then every worker (shutdown request, then
        escalating to terminate/kill), and clean up the run directory."""
        self._stopping.set()
        if self._health_thread is not None:
            self._health_thread.join()
        with self._lock:
            for worker in self._workers:
                process = worker.process
                if process is None or process.poll() is not None:
                    continue
                _exchange(
                    worker.address,
                    {"v": 2, "id": "stop", "kind": "shutdown"},
                    timeout=2.0,
                )
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    try:
                        process.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
            for worker in self._workers:
                try:
                    Path(worker.address.path).unlink()
                except OSError:
                    pass
        if self._owns_run_dir:
            try:
                self._run_dir.rmdir()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class Router:
    """The wire-protocol-v2 front end over a :class:`WorkerPool`.

    A :class:`~repro.service.net.SocketServer` whose connections run the
    shared pump over a :class:`_RoutingDispatcher` instead of a
    :class:`~repro.service.ParallelExecutor`; see the module docstring for
    the routing and failure semantics.
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        address: Address,
        pins: dict[str, int] | None = None,
        request_timeout: float = 120.0,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        max_inflight: int | None = None,
        durable: bool = False,
    ) -> None:
        """``max_inflight`` caps concurrently forwarded requests *per
        worker*: a request that would exceed it is shed at the router with an
        ``overloaded`` envelope instead of queueing behind the worker
        (``None`` keeps forwarding unbounded).  ``durable`` declares that the
        workers persist mutations in a WAL (``--wal-dir``), so a restarted
        worker's replayed datasets recover their mutations; without it the
        router stamps such datasets ``recovered_without_mutations`` in merged
        ``stats`` so clients can tell their acked writes were lost."""
        self._pool = pool
        self._dispatcher = _RoutingDispatcher(
            pool,
            pins=pins,
            request_timeout=request_timeout,
            max_inflight=max_inflight,
            durable=durable,
            on_shutdown=self.stop,
        )
        self._server = SocketServer(
            self._dispatcher,
            address=address,
            chunk_size=pool.chunk_size,
            max_line_bytes=max_line_bytes,
        )
        #: The bound endpoint (with the real port when TCP port 0 was asked).
        self.address = self._server.address
        self._stopped = threading.Event()
        self._stop_lock = threading.Lock()
        pool.on_restart = self._dispatcher.replay_open_datasets

    def shard_for(self, dataset: str) -> int:
        """The worker index owning ``dataset`` (pins win over the ring)."""
        return self._dispatcher.shard_for(dataset)

    def start(self) -> None:
        """Fetch the hello template and begin accepting connections."""
        self._dispatcher.fetch_hello()
        self._server.start()

    def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or a client's ``shutdown``)."""
        self.start()
        self._stopped.wait()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the router has fully stopped; ``True`` if it has."""
        return self._stopped.wait(timeout)

    def stop(self, *, stop_pool: bool = True) -> None:
        """Stop the pool (unless ``stop_pool`` is false), then the socket
        server, which drains every connection.  The pool goes first so that
        a request in flight to a wedged worker fails once the pool kills
        it, instead of holding the drain for its whole request timeout.
        Idempotent and thread-safe."""
        with self._stop_lock:
            if self._stopped.is_set():
                return
            if stop_pool:
                self._pool.stop()
            self._server.stop()
            self._stopped.set()

    def __enter__(self) -> "Router":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Router(address={str(self.address)!r}, "
            f"workers={self._pool.count})"
        )


#: An answer and the worker's lines it arrived as (none if the router's own).
_Outcome = tuple[QueryResult, list[str]]


class _Answer:
    """The router's answer to one request, as the pump's future: ``compute``
    runs on the first :meth:`result` call — the pump's writer, in arrival
    order — and its outcome is kept.  Never raises.

    An answer that is a worker's reply keeps the worker's frame lines in
    :attr:`lines`, and the pump relays them as they are: the worker was
    sent this request's ``id`` and chunking, so they are the very lines
    the pump would encode."""

    def __init__(self, compute: Callable[[], _Outcome]) -> None:
        self._compute: Callable[[], _Outcome] | None = compute
        self._result: QueryResult | None = None
        self.lines: list[str] | None = None
        self._lock = threading.Lock()

    def result(self) -> QueryResult:
        with self._lock:
            if self._compute is not None:
                try:
                    self._result, lines = self._compute()
                    self.lines = lines or None
                except Exception as exc:  # noqa: BLE001 - pump futures must not raise
                    self._result = QueryResult.failure(
                        ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
                    )
                self._compute = None
            return self._result


class _RoutingDispatcher:
    """The router's :class:`~repro.service.net.pump.Dispatcher`: answers
    each decoded request by forwarding it to the worker(s) that own it.

    A dataset's request is written to its worker as soon as the pump
    submits it, and the reply is read when the pump asks for the answer —
    so a connection's pipelined requests overlap on the workers, no thread
    sits between the pump and a worker, and a wedged worker holds up only
    the connections waiting on it.  Each worker has a pool of idle client
    transports: lockstep connections that check the hello, gather
    ``partial`` frames, verify the echoed ``id`` and turn a dead peer into
    an envelope.  A request is re-encoded from its envelope, with the
    deadline budget it has left, and the worker's reply comes back checked,
    as a :class:`QueryResult` with the lines it arrived as.
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        pins: dict[str, int] | None,
        request_timeout: float,
        max_inflight: int | None,
        durable: bool,
        on_shutdown: Callable[[], None],
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ParameterError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._pins = {
            name.lower(): index for name, index in (pins or {}).items()
        }
        for name, index in self._pins.items():
            if not 0 <= index < pool.count:
                raise ParameterError(
                    f"pin {name!r}={index} is outside the worker range "
                    f"[0, {pool.count})"
                )
        self._pool = pool
        self._ring = HashRing(pool.count)
        self._request_timeout = request_timeout
        self._max_inflight = max_inflight
        self._durable = durable
        self._on_shutdown = on_shutdown
        self._hello: dict = {}
        self._lock = threading.Lock()
        self._inflight = [0] * pool.count
        self._idle: list[list[_SocketTransport]] = [[] for _ in range(pool.count)]
        #: lower-cased name -> canonical name, in first-open order; the
        #: source of truth for list/stat merge order, hello patching, and
        #: restart replay.
        self._open: "OrderedDict[str, str]" = OrderedDict()
        #: lower-cased names of datasets with at least one acked mutate —
        #: the ones whose state a non-durable worker restart actually loses.
        self._mutated: set[str] = set()
        #: lower-cased names replayed onto a restarted worker *without* WAL
        #: recovery after acked mutations — flagged in merged ``stats``.
        self._lossy_recovered: set[str] = set()

    # ------------------------------------------------------------------ #
    # The dispatcher surface the pump and the socket server use
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        return self._pool.count

    def hello_payload(self) -> dict:
        """Worker 0's hello, advertising the router-wide open datasets."""
        return {**self._hello, "datasets": self.open_datasets()}

    def answer_ping(self, request: PingRequest) -> QueryResult:
        """The router answers ``ping`` itself: it probes the front door,
        while worker health is the pool's job."""
        return QueryResult.success(
            kind=request.kind,
            dataset=None,
            value={"pong": True, "protocol": PROTOCOL_VERSION},
            backend=None,
            seconds=0.0,
            cache_hit=None,
        )

    def submit(self, envelope: RequestEnvelope) -> _Answer:
        """Forward a dataset's request now; the fan-outs and the
        service-wide kinds (answered by worker 0) run when their answer is
        asked for."""
        request = envelope.request
        dataset = getattr(request, "dataset", None)
        if request.kind in ("list_datasets", "stats"):
            handler = self._fan_out
        elif request.kind == "shutdown":
            handler = self._shutdown
        elif dataset is None:
            handler = self._describe_service
        else:
            return self._forward(envelope, self.shard_for(dataset))
        return _Answer(partial(self._control, handler, envelope))

    def close(self) -> None:
        """Close every idle transport (the pumps have settled every answer)."""
        for index in range(self._pool.count):
            self._drop_idle(index)

    # ------------------------------------------------------------------ #
    def shard_for(self, dataset: str) -> int:
        lowered = dataset.lower()
        pinned = self._pins.get(lowered)
        return pinned if pinned is not None else self._ring.lookup(lowered)

    def fetch_hello(self) -> None:
        """Read worker 0's hello — every worker advertises identically — and
        keep the connection as worker 0's first idle transport."""
        try:
            transport = self._connect(0)
        except (ReproError, ValueError) as exc:
            raise RuntimeError(f"worker 0 did not say hello: {exc}") from None
        self._hello = transport.hello()
        self._checkin(0, transport)

    # ------------------------------------------------------------------ #
    # Worker round trips
    # ------------------------------------------------------------------ #
    def _connect(self, worker: int) -> _SocketTransport:
        return _SocketTransport(
            self._pool.worker_address(worker),
            connect_timeout=_CONNECT_SECONDS,
            timeout=self._request_timeout,
        )

    def _checkin(self, worker: int, transport: _SocketTransport) -> None:
        if transport.closed:
            return
        with self._lock:
            self._idle[worker].append(transport)

    def _drop_idle(self, worker: int) -> None:
        with self._lock:
            idle, self._idle[worker] = self._idle[worker], []
        for transport in idle:
            transport.close()

    def _unavailable(
        self, worker: int, transport: _SocketTransport | None, request: object
    ) -> QueryResult:
        """Any failure of a worker — unreachable, timed out, hung up,
        answered garbage — is answered ``unavailable``.  The failed
        transport is closed with the worker's idle ones: they were most
        likely cut by the same crash."""
        if transport is not None:
            transport.close()
        self._drop_idle(worker)
        return QueryResult.failure(
            ERROR_UNAVAILABLE,
            f"worker {worker} is unavailable (the router is replacing it); "
            "retry shortly",
            kind=getattr(request, "kind", None),
            dataset=getattr(request, "dataset", None),
        )

    def _send(
        self, worker: int, payload: dict, request: object
    ) -> tuple[_SocketTransport | None, QueryResult | None]:
        """Write ``payload`` to ``worker`` over an idle (or new) transport:
        the transport to read the reply from, or the failure answering
        the request."""
        with self._lock:
            idle = self._idle[worker]
            transport = idle.pop() if idle else None
        try:
            if transport is None:
                transport = self._connect(worker)
            if transport.send(payload) is None:
                return transport, None
        except (ReproError, ValueError):
            pass
        return None, self._unavailable(worker, transport, request)

    def _receive(
        self, worker: int, transport: _SocketTransport, payload: dict,
        request: object,
    ) -> _Outcome:
        """Read the reply to what :meth:`_send` wrote — checked, and with
        its lines — and give the transport back to the idle pool."""
        try:
            result, lines = transport.receive(payload)
        except (ReproError, ValueError):  # a reply that is not a response
            result, lines = None, []
        if not lines:  # no reply: the worker is gone or timed out
            return self._unavailable(worker, transport, request), []
        self._checkin(worker, transport)
        return result, lines

    def _call(self, worker: int, payload: dict, request: object) -> QueryResult:
        """One round trip to ``worker``."""
        transport, failure = self._send(worker, payload, request)
        if failure is not None:
            return failure
        return self._receive(worker, transport, payload, request)[0]

    @staticmethod
    def _payload(envelope: RequestEnvelope) -> dict | None:
        """The request re-encoded for a worker, charged with the time it
        spent at the router: ``deadline_ms`` is what is left of the budget
        now — ``None`` when nothing is left."""
        payload: dict = {"v": envelope.v, "id": envelope.id}
        if envelope.chunk_size is not None:
            payload["chunk_size"] = envelope.chunk_size
        if envelope.deadline is not None:
            remaining_ms = (envelope.deadline - time.monotonic()) * 1000.0
            if remaining_ms <= 0:
                return None
            payload["deadline_ms"] = remaining_ms
        payload.update(envelope.request.to_wire())
        return payload

    @staticmethod
    def _expired(request: object) -> QueryResult:
        return QueryResult.failure(
            ERROR_DEADLINE_EXCEEDED,
            "deadline expired at the router before forwarding",
            kind=request.kind,
            dataset=getattr(request, "dataset", None),
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _forward(self, envelope: RequestEnvelope, worker: int) -> _Answer:
        """Send a dataset's request to the worker that owns the dataset,
        unless its deadline is spent or that worker is at its in-flight
        cap; the slot it takes is given back once the reply is read, before
        the answer is published."""
        request = envelope.request
        payload = self._payload(envelope)
        if payload is None:
            return _Answer(lambda: (self._expired(request), []))
        with self._lock:
            shed = self._inflight[worker] == self._max_inflight
            if not shed:
                self._inflight[worker] += 1
        if shed:
            overloaded = QueryResult.failure(
                ERROR_OVERLOADED,
                f"worker {worker} is at its in-flight cap "
                f"({self._max_inflight}); back off and retry",
                kind=request.kind,
                dataset=request.dataset,
            )
            return _Answer(lambda: (overloaded, []))
        transport, failure = self._send(worker, payload, request)
        if failure is not None:
            self._release(worker)
            return _Answer(lambda: (failure, []))
        return _Answer(
            partial(self._settle, worker, transport, payload, request)
        )

    def _settle(
        self, worker: int, transport: _SocketTransport, payload: dict,
        request: object,
    ) -> _Outcome:
        try:
            outcome = self._receive(worker, transport, payload, request)
        finally:
            self._release(worker)
        if outcome[0].ok:
            self._track(request, outcome[0])
        return outcome

    def _release(self, worker: int) -> None:
        with self._lock:
            self._inflight[worker] -= 1

    def _control(
        self, handler: Callable[..., QueryResult], envelope: RequestEnvelope
    ) -> _Outcome:
        """Run a fan-out or service-wide request, unless its deadline budget
        is spent; the pump encodes its (merged or patched) answer."""
        payload = self._payload(envelope)
        if payload is None:
            return self._expired(envelope.request), []
        return handler(envelope.request, payload), []

    def _track(self, request: object, result: QueryResult) -> None:
        """Follow open/close/mutate state on the cold paths only: control
        responses, and the first successful touch of a dataset (a worker
        names the dataset by its canonical spelling)."""
        kind, dataset = request.kind, request.dataset
        if kind == "close_dataset":
            self._record_close(dataset)
        elif result.dataset is not None and (
            kind in ("open_dataset", "mutate") or not self._is_known_open(dataset)
        ):
            self.record_open(result.dataset)
            if kind == "mutate":
                self._record_mutated(result.dataset)

    def _describe_service(self, request: object, payload: dict) -> QueryResult:
        """Worker 0's self-description, listing the router-wide open set."""
        result = self._call(0, payload, request)
        if result.ok:
            result = replace(
                result, value={**result.value, "datasets": self.open_datasets()}
            )
        return result

    def _fan_out(self, request: object, payload: dict) -> QueryResult:
        """``list_datasets`` / ``stats`` from every worker, merged into one
        envelope shaped like a single server's.  The first worker that
        fails or refuses answers for all, as one server would have."""
        results = []
        for worker in range(self._pool.count):
            result = self._call(worker, payload, request)
            if not result.ok:
                return result
            results.append(result)
        values = [result.value for result in results]
        if request.kind == "list_datasets":
            merged = {
                "datasets": self._merge_dataset_lists(
                    [value.get("datasets", []) for value in values]
                )
            }
        else:
            merged = self._merge_stats(values)
        return replace(results[0], value=merged)

    def _shutdown(self, request: object, payload: dict) -> QueryResult:
        """Broadcast ``shutdown`` to every worker, answer with the first
        acknowledgement, and stop the router (which drains every
        connection, so the pump still writes that answer)."""
        results = [
            self._call(worker, payload, request)
            for worker in range(self._pool.count)
        ]
        threading.Thread(
            target=self._on_shutdown, name="repro-router-stop", daemon=True
        ).start()
        return next((result for result in results if result.ok), results[0])

    # ------------------------------------------------------------------ #
    # Open-dataset tracking (merge order, hello patching, restart replay)
    # ------------------------------------------------------------------ #
    def record_open(self, canonical: str) -> None:
        with self._lock:
            self._open.setdefault(canonical.lower(), canonical)

    def _record_close(self, name: str) -> None:
        with self._lock:
            self._open.pop(name.lower(), None)
            self._mutated.discard(name.lower())
            self._lossy_recovered.discard(name.lower())

    def _record_mutated(self, name: str) -> None:
        with self._lock:
            self._mutated.add(name.lower())
            # Fresh acked mutations supersede the lossy-recovery flag: the
            # client has a new, live baseline to reason from.
            self._lossy_recovered.discard(name.lower())

    def open_datasets(self) -> list[str]:
        with self._lock:
            return list(self._open.values())

    def _is_known_open(self, dataset: str) -> bool:
        with self._lock:
            return dataset.lower() in self._open

    def replay_open_datasets(self, index: int) -> None:
        """Re-open a restarted worker's datasets so it is warm before the
        next query lands (the pool calls this after a restart).

        With durable (WAL-backed) workers, re-opening a dataset replays its
        mutation log, so the replacement answers within the certified
        ``eps_stale`` of the crashed worker.  Without a WAL the replacement
        serves the *pristine* dataset — any acked mutations are gone — so
        such datasets are flagged ``recovered_without_mutations``.  Each
        dataset is best-effort: one failing to open does not stop the
        rest."""
        self._drop_idle(index)  # connections to the process that died
        for name in self.open_datasets():
            if self.shard_for(name) != index:
                continue
            if not self._durable:
                with self._lock:
                    if name.lower() in self._mutated:
                        self._mutated.discard(name.lower())
                        self._lossy_recovered.add(name.lower())
            _exchange(
                self._pool.worker_address(index),
                {"v": 2, "id": "replay", "kind": "open_dataset", "dataset": name},
                timeout=self._request_timeout,
            )

    # ------------------------------------------------------------------ #
    # Fan-out merges
    # ------------------------------------------------------------------ #
    def _merge_dataset_lists(self, per_worker: list[list[str]]) -> list[str]:
        """Union of the workers' open-dataset lists, ordered by the router's
        first-open order (the same order one process would report)."""
        present: dict[str, str] = {}
        for names in per_worker:
            for name in names:
                present.setdefault(name.lower(), name)
        with self._lock:
            open_order = list(self._open)
        ordered = [present.pop(lowered) for lowered in open_order if lowered in present]
        ordered.extend(present.values())
        return ordered

    def _merge_stats(self, values: list[dict]) -> dict:
        """One ``stats`` value from many: per-dataset entries are disjoint
        across workers (sharding) so they merge by union; totals come from
        :func:`merge_statistics_totals` — the same definition a single
        server uses, so fan-out cannot under-report any counter."""
        per_dataset: dict[str, dict] = {}
        for value in values:
            per_dataset.update(value.get("datasets", {}))
        ordered = self._merge_dataset_lists([list(per_dataset)])
        datasets = {name: per_dataset[name] for name in ordered}
        with self._lock:
            lossy = set(self._lossy_recovered)
        if lossy:
            datasets = {
                name: (
                    {**detail, "recovered_without_mutations": True}
                    if name.lower() in lossy
                    else detail
                )
                for name, detail in datasets.items()
            }
        engine_dicts = [
            engine_stats
            for detail in datasets.values()
            for engine_stats in detail.get("engines", {}).values()
        ]
        return {
            "datasets": datasets,
            "totals": merge_statistics_totals(engine_dicts),
        }

"""Multi-process sharded serving: a worker pool and the router in front.

The scale-out model: ``N`` worker processes, each a ``repro serve --unix``
child over its own Unix socket, all configured identically (same scale,
seed, backend knobs — and ideally the same prebuilt ``--index-dir``, so
every worker mmaps one shared packed index read-only).  The
:class:`Router` listens on the public address, speaks the same wire
protocol v2 as any single server, and forwards:

* **data-plane queries** to one worker per dataset — a consistent hash over
  the (lower-cased) dataset name, optionally overridden per dataset with
  explicit pins — so each dataset's engine, index, and single-source cache
  live in exactly one process and stay hot;
* **targeted control** (``open_dataset`` / ``close_dataset`` /
  ``describe(dataset)``) to that same shard;
* **fan-out control** (``list_datasets``, ``stats``) to every worker, with
  the responses merged into one envelope shaped exactly like a single
  server's (statistics totals are summed, latency percentiles recomputed
  from the merged samples);
* ``ping`` round-robin, and ``shutdown`` broadcast — acknowledging the
  client, stopping every worker, then the router itself.

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
import json
import math
import socket
import subprocess
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Sequence

from ...engine import merge_statistics_totals
from ...exceptions import ParameterError
from ..results import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_OVERLOADED,
    ERROR_UNAVAILABLE,
    QueryResult,
)
from ..wire import decode_envelope_line, encode_frame, response_frames
from .channel import DEFAULT_MAX_LINE_BYTES, Address, LineChannel, OversizedLineError
from .spawn import spawn_serve, wait_for_hello

__all__ = ["HashRing", "WorkerPool", "Router"]

#: How often blocked loops wake up to notice a stop request, in seconds.
_POLL_SECONDS = 0.2

#: Worker response lines opening with this are mid-stream ``partial`` frames
#: (the server's compact encoder emits keys in this exact order), so the
#: router keeps forwarding until a line that is not one — the terminal frame.
_PARTIAL_PREFIX = '{"v":2,"frame":"partial"'


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
    router's connection links) simply reconnect.  Health checking is
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
        try:
            sock = worker.address.connect(timeout=self._ping_timeout)
        except OSError:
            return False
        channel = LineChannel(sock)
        try:
            channel.settimeout(self._ping_timeout)
            if channel.read_line() is None:  # hello
                return False
            channel.send_line('{"v":2,"id":"health","kind":"ping"}')
            response = channel.read_line()
            return bool(response) and '"pong":true' in response
        except OSError:
            return False
        finally:
            channel.close()

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
                try:
                    sock = worker.address.connect(timeout=1.0)
                    channel = LineChannel(sock)
                    try:
                        channel.settimeout(2.0)
                        channel.read_line()  # hello
                        channel.send_line('{"v":2,"id":"stop","kind":"shutdown"}')
                        channel.read_line()  # acknowledgement
                    finally:
                        channel.close()
                except OSError:
                    pass
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

    One listening socket; per-client-connection threads; per-connection
    lazy links to each worker (so responses need no id remapping and one
    slow query never blocks another client's).  See the module docstring
    for the routing and failure semantics.
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
        if max_inflight is not None and max_inflight < 1:
            raise ParameterError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._pool = pool
        self._ring = HashRing(pool.count)
        self._pins = {
            name.lower(): index for name, index in (pins or {}).items()
        }
        for name, index in self._pins.items():
            if not 0 <= index < pool.count:
                raise ParameterError(
                    f"pin {name!r}={index} is outside the worker range "
                    f"[0, {pool.count})"
                )
        self._request_timeout = request_timeout
        self._max_line_bytes = max_line_bytes
        self._listener = address.listen()
        #: The bound endpoint (with the real port when TCP port 0 was asked).
        self.address = address.resolved(self._listener)
        self._hello_template: dict = {}
        #: lower-cased name -> canonical name, in first-open order; the
        #: source of truth for list/stat merge order, hello patching, and
        #: restart replay.
        self._open: "OrderedDict[str, str]" = OrderedDict()
        self._state_lock = threading.Lock()
        self._rr = 0
        self._max_inflight = max_inflight
        self._inflight = [0] * pool.count
        self._inflight_lock = threading.Lock()
        self._durable = durable
        #: lower-cased names of datasets with at least one acked mutate —
        #: the ones whose state a non-durable worker restart actually loses.
        self._mutated: set[str] = set()
        #: lower-cased names replayed onto a restarted worker *without* WAL
        #: recovery after acked mutations — flagged in merged ``stats``.
        self._lossy_recovered: set[str] = set()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._stop_lock = threading.Lock()
        pool.on_restart = self._replay_open_datasets

    # ------------------------------------------------------------------ #
    def shard_for(self, dataset: str) -> int:
        """The worker index owning ``dataset`` (pins win over the ring)."""
        lowered = dataset.lower()
        pinned = self._pins.get(lowered)
        return pinned if pinned is not None else self._ring.lookup(lowered)

    def start(self) -> None:
        """Fetch the hello template and begin accepting connections."""
        if self._accept_thread is not None:
            return
        self._hello_template = self._fetch_hello()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-router-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or a client's ``shutdown``)."""
        self.start()
        self._stopped.wait()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the router has fully stopped; ``True`` if it has."""
        return self._stopped.wait(timeout)

    def stop(self, *, stop_pool: bool = True) -> None:
        """Close the listener and client connections; optionally stop the
        pool too.  Idempotent and thread-safe."""
        with self._stop_lock:
            if self._stopped.is_set():
                return
            self._stopping.set()
            try:
                self._listener.close()
            except OSError:
                pass
            if self._accept_thread is not None:
                self._accept_thread.join()
            if stop_pool:
                self._pool.stop()
            self._stopped.set()

    def _fetch_hello(self) -> dict:
        """Worker 0's hello frame — every worker advertises identically, so
        one fetch at startup is the router's template (its ``datasets`` list
        is patched per connection with the router-wide open set)."""
        sock = self._pool.worker_address(0).connect(timeout=10.0)
        channel = LineChannel(sock)
        try:
            channel.settimeout(10.0)
            line = channel.read_line()
        finally:
            channel.close()
        if not line:
            raise RuntimeError("worker 0 closed the connection before hello")
        payload = json.loads(line)
        if payload.get("frame") != "hello":
            raise RuntimeError(f"expected a hello frame from worker 0, got {line!r}")
        return payload

    def _accept_loop(self) -> None:
        try:
            self._listener.settimeout(_POLL_SECONDS)
        except OSError:  # stop() closed the listener before we started
            return
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._serve_client,
                args=(sock,),
                name="repro-router-client",
                daemon=True,
            ).start()

    # ------------------------------------------------------------------ #
    # Open-dataset tracking (merge order, hello patching, restart replay)
    # ------------------------------------------------------------------ #
    def _record_open(self, canonical: str) -> None:
        with self._state_lock:
            self._open.setdefault(canonical.lower(), canonical)

    def _record_close(self, name: str) -> None:
        with self._state_lock:
            self._open.pop(name.lower(), None)
            self._mutated.discard(name.lower())
            self._lossy_recovered.discard(name.lower())

    def _record_mutated(self, name: str) -> None:
        with self._state_lock:
            self._mutated.add(name.lower())
            # Fresh acked mutations supersede the lossy-recovery flag: the
            # client has a new, live baseline to reason from.
            self._lossy_recovered.discard(name.lower())

    def _acquire_slot(self, worker: int) -> bool:
        """Claim an in-flight slot on ``worker``; ``False`` means shed."""
        if self._max_inflight is None:
            return True
        with self._inflight_lock:
            if self._inflight[worker] >= self._max_inflight:
                return False
            self._inflight[worker] += 1
            return True

    def _release_slot(self, worker: int) -> None:
        if self._max_inflight is None:
            return
        with self._inflight_lock:
            self._inflight[worker] -= 1

    def _open_datasets(self) -> list[str]:
        with self._state_lock:
            return list(self._open.values())

    def _is_known_open(self, dataset: str) -> bool:
        with self._state_lock:
            return dataset.lower() in self._open

    def _replay_open_datasets(self, index: int) -> None:
        """Re-open a restarted worker's datasets so it is warm before the
        next query lands (the pool calls this after a restart).

        With durable (WAL-backed) workers, re-opening a dataset replays its
        mutation log, so the replacement answers within the certified
        ``eps_stale`` of the crashed worker.  Without a WAL the replacement
        serves the *pristine* dataset — any acked mutations are gone — so
        such datasets are flagged ``recovered_without_mutations``."""
        for name in self._open_datasets():
            if self.shard_for(name) != index:
                continue
            if not self._durable:
                with self._state_lock:
                    if name.lower() in self._mutated:
                        self._mutated.discard(name.lower())
                        self._lossy_recovered.add(name.lower())
            try:
                sock = self._pool.worker_address(index).connect(timeout=5.0)
            except OSError:
                continue  # best-effort: keep warming the remaining datasets
            channel = LineChannel(sock)
            try:
                channel.settimeout(self._request_timeout)
                channel.read_line()  # hello
                channel.send_line(encode_frame(
                    {"v": 2, "id": "replay", "kind": "open_dataset",
                     "dataset": name}
                ))
                channel.read_line()
            except OSError:
                continue
            finally:
                channel.close()

    # ------------------------------------------------------------------ #
    # Per-client-connection serving
    # ------------------------------------------------------------------ #
    def _serve_client(self, sock: socket.socket) -> None:
        session = _ClientSession(self, sock)
        try:
            session.run()
        finally:
            session.close()

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


class _ClientSession:
    """One accepted client connection: lockstep request routing with lazy
    per-worker links (each link is this connection's private socket to one
    worker, reconnected on demand after a failure)."""

    def __init__(self, router: Router, sock: socket.socket) -> None:
        self._router = router
        self._channel = LineChannel(sock, max_line_bytes=router._max_line_bytes)
        self._links: dict[int, LineChannel] = {}

    def close(self) -> None:
        for link in self._links.values():
            link.close()
        self._links.clear()
        self._channel.close()

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        router = self._router
        hello = dict(router._hello_template)
        hello["datasets"] = router._open_datasets()
        try:
            self._channel.send_line(encode_frame(hello))
        except OSError:
            return
        self._channel.settimeout(_POLL_SECONDS)
        while not router._stopping.is_set():
            try:
                line = self._channel.read_line()
            except socket.timeout:
                continue
            except OversizedLineError as exc:
                if not self._answer(QueryResult.failure(
                    ERROR_BAD_REQUEST, str(exc)
                ), request_id=None):
                    return
                continue
            except OSError:
                return
            if line is None:
                return
            if not line.strip():
                continue
            try:
                if not self._route(line):
                    return
            except OSError:  # the client went away mid-response
                return

    def _answer(self, result: QueryResult, *, request_id: object,
                chunk_size: int | None = None) -> bool:
        """Send a router-generated envelope; ``False`` when the client is
        gone."""
        try:
            for frame in response_frames(
                result, id=request_id, chunk_size=chunk_size
            ):
                self._channel.send_line(frame)
        except OSError:
            return False
        return True

    def _answer_local(self, raw_line: str) -> bool:
        """Answer a line the router cannot (or must not) forward, shaped by
        the same envelope decoder every server uses — so a garbage line gets
        a byte-identical ``bad_request`` envelope from router and worker
        alike."""
        envelope = decode_envelope_line(raw_line)
        request = envelope.request
        if not isinstance(request, QueryResult):  # pragma: no cover - guard
            request = QueryResult.failure(
                ERROR_BAD_REQUEST, "the router cannot route this request"
            )
        return self._answer(
            request, request_id=envelope.id, chunk_size=envelope.chunk_size
        )

    def _unavailable(self, worker: int, payload: dict) -> bool:
        kind = payload.get("kind")
        dataset = payload.get("dataset")
        return self._answer(
            QueryResult.failure(
                ERROR_UNAVAILABLE,
                f"worker {worker} is unavailable (the router is replacing "
                "it); retry shortly",
                kind=kind if isinstance(kind, str) else None,
                dataset=dataset if isinstance(dataset, str) else None,
            ),
            request_id=payload.get("id"),
        )

    # ------------------------------------------------------------------ #
    def _route(self, line: str) -> bool:
        """Dispatch one request line; ``False`` when the client is gone."""
        arrival = time.monotonic()
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return self._answer_local(line)
        if not isinstance(payload, dict):
            return self._answer_local(line)
        kind = payload.get("kind")
        dataset = payload.get("dataset")
        if kind == "shutdown":
            return self._shutdown(line, payload)
        if kind in ("list_datasets", "stats"):
            return self._fan_out(line, payload)
        if kind == "ping":
            router = self._router
            with router._state_lock:
                worker = router._rr % router._pool.count
                router._rr += 1
            return self._forward(worker, line, payload) is not _GONE
        if kind == "describe" and dataset is None:
            return self._describe_service(line, payload)
        if isinstance(dataset, str) and dataset:
            return self._forward_sharded(line, payload, dataset, arrival)
        # No routable dataset: let the envelope decoder shape the error.
        return self._answer_local(line)

    def _restamp(
        self, line: str, payload: dict, arrival: float
    ) -> tuple[str, dict] | None:
        """Charge router-side latency against the request's deadline budget.

        A ``deadline_ms`` on the envelope is the *remaining* budget when the
        hop received it, so before forwarding the router subtracts the time
        the request spent here and re-encodes; the worker then sees only
        what is genuinely left.  ``None`` means the budget is already spent —
        the caller sheds locally with ``deadline_exceeded`` instead of
        forwarding work whose answer nobody is waiting for."""
        deadline_ms = payload.get("deadline_ms")
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(deadline_ms)
            or deadline_ms <= 0
        ):
            return line, payload  # absent or malformed: the worker decides
        remaining = deadline_ms - (time.monotonic() - arrival) * 1000.0
        if remaining <= 0:
            return None
        payload = {**payload, "deadline_ms": remaining}
        return encode_frame(payload), payload

    def _link(self, worker: int) -> LineChannel:
        link = self._links.get(worker)
        if link is not None:
            return link
        sock = self._router._pool.worker_address(worker).connect(timeout=10.0)
        link = LineChannel(sock)
        link.settimeout(self._router._request_timeout)
        try:
            if link.read_line() is None:  # the worker's hello frame
                raise ConnectionError(f"worker {worker} closed the connection")
        except OSError:
            link.close()
            raise
        self._links[worker] = link
        return link

    def _drop_link(self, worker: int) -> None:
        link = self._links.pop(worker, None)
        if link is not None:
            link.close()

    def _forward(self, worker: int, line: str, payload: dict) -> str | None:
        """Forward ``line`` to ``worker``, relay every response frame to the
        client, and return the terminal frame — or ``None`` after answering
        the client with an ``unavailable`` envelope, or :data:`_GONE` when
        the *client* went away."""
        try:
            link = self._link(worker)
            link.send_line(line)
            while True:
                frame = link.read_line()
                if frame is None:
                    raise ConnectionError(f"worker {worker} hung up")
                self._channel.send_line(frame)  # OSError -> client gone
                if not frame.startswith(_PARTIAL_PREFIX):
                    return frame
        except OSError as exc:
            self._drop_link(worker)
            if exc.args and exc.args[0] is _CLIENT_GONE:
                return _GONE  # pragma: no cover - defensive
            # Distinguish "worker died" from "client died": a send to the
            # client raises through _channel, whose failure we surface by
            # attempting the unavailable answer — if the client is gone too,
            # that attempt reports it.
            if not self._unavailable(worker, payload):
                return _GONE
            return None
        except ConnectionError:
            self._drop_link(worker)
            if not self._unavailable(worker, payload):
                return _GONE
            return None

    def _forward_sharded(
        self, line: str, payload: dict, dataset: str, arrival: float
    ) -> bool:
        router = self._router
        worker = router.shard_for(dataset)
        stamped = self._restamp(line, payload, arrival)
        if stamped is None:
            return self._answer(
                QueryResult.failure(
                    ERROR_DEADLINE_EXCEEDED,
                    "deadline expired at the router before forwarding",
                    kind=payload.get("kind") if isinstance(payload.get("kind"), str) else None,
                    dataset=dataset,
                ),
                request_id=payload.get("id"),
            )
        line, payload = stamped
        if not router._acquire_slot(worker):
            return self._answer(
                QueryResult.failure(
                    ERROR_OVERLOADED,
                    f"worker {worker} is at its in-flight cap "
                    f"({router._max_inflight}); back off and retry",
                    kind=payload.get("kind") if isinstance(payload.get("kind"), str) else None,
                    dataset=dataset,
                ),
                request_id=payload.get("id"),
            )
        try:
            terminal = self._forward(worker, line, payload)
        finally:
            router._release_slot(worker)
        if terminal is _GONE:
            return False
        if terminal is None:
            return True  # unavailable envelope already sent
        kind = payload.get("kind")
        # Track open/close/mutate state on the cold paths only: control
        # responses, and the first successful data-plane touch of a dataset.
        if kind in (
            "open_dataset", "close_dataset", "mutate"
        ) or not router._is_known_open(
            dataset
        ):
            try:
                frame = json.loads(terminal)
            except json.JSONDecodeError:  # pragma: no cover - worker bug
                return True
            if frame.get("ok") is True:
                if kind == "close_dataset":
                    closed = (frame.get("value") or {}).get("dataset")
                    router._record_close(str(closed or dataset))
                else:
                    opened = frame.get("dataset")
                    if kind == "open_dataset":
                        opened = (frame.get("value") or {}).get("dataset", opened)
                    if isinstance(opened, str):
                        router._record_open(opened)
                        if kind == "mutate":
                            router._record_mutated(opened)
        return True

    # ------------------------------------------------------------------ #
    def _collect(self, line: str, payload: dict) -> list[dict] | None:
        """Forward ``line`` to every worker *without* relaying, returning
        the decoded single-line responses in worker order; answers the
        client with ``unavailable`` (returning ``None``) if any worker is
        down, and raises ``OSError`` if the client is."""
        responses: list[dict] = []
        for worker in range(self._router._pool.count):
            try:
                link = self._link(worker)
                link.send_line(line)
                frame = link.read_line()
                if frame is None:
                    raise ConnectionError(f"worker {worker} hung up")
                responses.append(json.loads(frame))
            except (OSError, ConnectionError, json.JSONDecodeError):
                self._drop_link(worker)
                if not self._unavailable(worker, payload):
                    raise OSError(_CLIENT_GONE) from None
                return None
        return responses

    def _merge_dataset_lists(self, per_worker: list[list[str]]) -> list[str]:
        """Union of the workers' open-dataset lists, ordered by the router's
        first-open order (the same order one process would report)."""
        present: dict[str, str] = {}
        for names in per_worker:
            for name in names:
                present.setdefault(name.lower(), name)
        ordered: list[str] = []
        with self._router._state_lock:
            open_order = list(self._router._open)
        for lowered in open_order:
            if lowered in present:
                ordered.append(present.pop(lowered))
        ordered.extend(present.values())
        return ordered

    def _fan_out(self, line: str, payload: dict) -> bool:
        responses = self._collect(line, payload)
        if responses is None:
            return True
        failed = next((r for r in responses if r.get("ok") is not True), None)
        if failed is not None:
            # A worker refused (e.g. malformed request): its envelope is the
            # answer, identical to what one server would have said.
            try:
                self._channel.send_line(encode_frame(failed))
            except OSError:
                return False
            return True
        template = dict(responses[0])
        if payload.get("kind") == "list_datasets":
            template["value"] = {
                "datasets": self._merge_dataset_lists(
                    [r.get("value", {}).get("datasets", []) for r in responses]
                )
            }
        else:
            template["value"] = self._merge_stats(
                [r.get("value", {}) for r in responses]
            )
        try:
            self._channel.send_line(encode_frame(template))
        except OSError:
            return False
        return True

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
        with self._router._state_lock:
            lossy = set(self._router._lossy_recovered)
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

    def _describe_service(self, line: str, payload: dict) -> bool:
        terminal = self._forward_collect_one(0, line, payload)
        if terminal is None:
            return True
        if terminal is _GONE:
            return False
        if terminal.get("ok") is True and isinstance(terminal.get("value"), dict):
            terminal = dict(terminal)
            value = dict(terminal["value"])
            value["datasets"] = self._router._open_datasets()
            terminal["value"] = value
        try:
            self._channel.send_line(encode_frame(terminal))
        except OSError:
            return False
        return True

    def _forward_collect_one(
        self, worker: int, line: str, payload: dict
    ) -> dict | None:
        """Round-trip one single-line request to one worker without
        relaying; ``None`` after an ``unavailable`` answer, :data:`_GONE`
        if the client died."""
        try:
            link = self._link(worker)
            link.send_line(line)
            frame = link.read_line()
            if frame is None:
                raise ConnectionError(f"worker {worker} hung up")
            return json.loads(frame)
        except (OSError, ConnectionError, json.JSONDecodeError):
            self._drop_link(worker)
            if not self._unavailable(worker, payload):
                return _GONE
            return None

    def _shutdown(self, line: str, payload: dict) -> bool:
        """Broadcast shutdown to every worker, acknowledge the client with
        the first worker's envelope, then stop the router itself."""
        router = self._router
        acknowledgement: dict | None = None
        for worker in range(router._pool.count):
            response = self._forward_collect_one(worker, line, payload)
            if response is not None and response is not _GONE:
                acknowledgement = acknowledgement or response
        sent = False
        if acknowledgement is not None:
            try:
                self._channel.send_line(encode_frame(acknowledgement))
                sent = True
            except OSError:
                sent = False
        threading.Thread(
            target=router.stop, name="repro-router-stop", daemon=True
        ).start()
        return sent and False  # the connection's work is done either way


#: Sentinels distinguishing "client went away" from ordinary outcomes.
_GONE = object()
_CLIENT_GONE = "repro-router-client-gone"

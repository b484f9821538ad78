"""`SimRankClient`: the typed client library for protocol v2.

One client surface, two transports:

* **in-process** — wraps a :class:`~repro.service.SimRankService` directly.
  Zero-copy of the service's guarantees, but requests still round-trip
  through the same envelope decode / frame encode / reassembly code the
  wire uses, so the transports cannot drift apart behaviourally;
* **socket** — speaks v2 JSONL over TCP or a Unix-domain socket: reads the
  opening ``hello`` frame, assigns a monotonically increasing ``id`` to
  every request, and verifies the echo.  The peer is either a private
  ``repro serve --unix`` child the client spawned
  (:meth:`SimRankClient.connect`) or a shared ``repro serve
  --listen/--unix`` server or ``repro router``
  (``SimRankClient(address=...)``).

Typical use::

    from repro.service import SimRankClient

    with SimRankClient.in_process(scale=0.1) as client:
        # single_source answers its nonzeros as read-only NumPy columns
        # (.index int32 ids, .value float64 scores); np.asarray densifies.
        scores = np.asarray(client.single_source("GrQc", 3, chunk_size=512))
        top = client.top_k("GrQc", 3, k=5)
        print(client.list_datasets(), client.stats()["totals"])

    with SimRankClient.connect(scale=0.1) as client:   # spawns repro serve --unix
        print(client.hello()["protocol"])              # -> 2
        print(client.single_pair("GrQc", 1, 2))

    with SimRankClient(address="127.0.0.1:7077") as client:  # shared server
        print(client.top_k("GrQc", 3, k=5))

Value-returning helpers (``single_pair`` ... ``shutdown``) raise
:class:`ServiceError` on error envelopes; :meth:`SimRankClient.execute`
returns the raw :class:`~repro.service.results.QueryResult` for callers
that want to inspect envelopes themselves.  A transport whose server dies
*mid-request* never hangs and never raises a bare pipe error: the request
resolves to a structured ``unavailable`` error envelope and the dead child
process (if the client spawned one) is reaped.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import subprocess
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..exceptions import ParameterError, ReproError, WireFormatError
from .net.channel import Address, LineChannel, parse_address
from .net.spawn import spawn_serve, wait_for_hello
from .control import (
    CloseDatasetRequest,
    ControlRequest,
    DescribeRequest,
    ListDatasetsRequest,
    MutateRequest,
    OpenDatasetRequest,
    PingRequest,
    ShutdownRequest,
    StatsRequest,
)
from .queries import (
    Query,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)
from .results import (
    ERROR_TIMEOUT,
    ERROR_UNAVAILABLE,
    RETRYABLE_ERROR_CODES,
    QueryResult,
    SparseScores,
)
from .service import ServiceConfig, SimRankService
from .wire import (
    PROTOCOL_VERSION,
    decode_envelope,
    encode_frame,
    response_frames,
    result_from_frames,
)

__all__ = ["RetryPolicy", "ServiceError", "SimRankClient"]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry with exponential backoff and jitter.

    Retrying is safe because queries are idempotent and ``mutate`` requests
    carry a ``mutation_id`` the worker's WAL deduplicates — the client
    auto-generates one when a retry policy is active, so a retried mutate
    that actually landed the first time answers with the original ack.
    Only the codes in :attr:`retry_codes` are retried: ``unavailable``
    (worker died — the router restarts it), ``overloaded`` (shed — back
    off), and ``timeout`` (the client's own read timeout).
    """

    #: Total attempts, the first included; 1 disables retrying.
    max_attempts: int = 3
    #: First backoff, in seconds; doubles each retry.
    base_delay: float = 0.05
    #: Backoff ceiling, in seconds.
    max_delay: float = 2.0
    #: Uniform jitter fraction added to each delay (0.5 = up to +50%),
    #: de-synchronising retry storms from many clients.
    jitter: float = 0.5
    #: Error codes worth retrying.
    retry_codes: frozenset = RETRYABLE_ERROR_CODES
    #: Optional seed for reproducible jitter (the chaos harness pins one).
    seed: int | None = None
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
        return base * (1.0 + self.jitter * self._rng.random())

    def should_retry(self, result: QueryResult, attempt: int) -> bool:
        """Whether ``result`` (attempt ``attempt``, 1-based) warrants another."""
        if result.ok or result.error is None:
            return False
        if attempt >= self.max_attempts:
            return False
        return result.error.code in self.retry_codes


class ServiceError(ReproError):
    """A value-returning client helper received an error envelope."""

    def __init__(self, result: QueryResult) -> None:
        error = result.error
        code = error.code if error else "unknown"
        message = error.message if error else "unknown error"
        super().__init__(f"[{code}] {message}")
        #: The full error envelope, for callers that need the detail.
        self.result = result
        self.code = code


class _InProcessTransport:
    """Round-trip requests through a wrapped service, via the wire codecs.

    The request payload is decoded with the same envelope decoder and the
    result is re-encoded into frames and reassembled with the same
    functions the serve loop and the socket transport use — so
    chunking, id echo, and error shaping are *proven* identical rather
    than merely similar.
    """

    def __init__(self, service: SimRankService, *, owns_service: bool) -> None:
        self._service = service
        #: Whether the client created the service (and so may tear it down
        #: on close) or merely wraps one the caller still owns.
        self._owns_service = owns_service
        self._shut_down = False
        # Snapshot hello at connect time, exactly like the socket
        # transport reading the serve loop's opening frame — hello is the
        # handshake, not a live status endpoint (that is ``describe``).
        self._hello = service.hello_payload()

    @property
    def service(self) -> SimRankService:
        return self._service

    @property
    def owns_service(self) -> bool:
        return self._owns_service

    def hello(self) -> dict:
        return self._hello

    def roundtrip(self, payload: dict) -> QueryResult:
        if self._shut_down:
            # Mirror the socket transport: a server that acknowledged
            # shutdown answers nothing further.
            raise ServiceError(
                QueryResult.failure("server_gone", "server has shut down")
            )
        envelope = decode_envelope(payload)
        result = self._service.execute_request(envelope.request)
        if result.ok and result.kind == "shutdown":
            # Mirror the serve loop: after an acknowledged shutdown the
            # sessions are gone and no further requests are served.
            self._shut_down = True
            self._service.close_all()
        frames = [
            json.loads(line)
            for line in response_frames(
                result, id=envelope.id, chunk_size=envelope.chunk_size
            )
        ]
        reassembled = result_from_frames(frames)
        _check_echo(frames, payload.get("id"))
        return reassembled

    @property
    def closed(self) -> bool:
        return self._shut_down

    def close(self) -> None:
        if self._owns_service:
            self._service.close_all()


class _TransportGone(Exception):
    """Internal: the server's stream ended where a frame was expected."""


def _transport_failure(payload: dict, code: str, message: str) -> QueryResult:
    """The envelope a transport answers with when no reply came, echoing
    the request's kind/dataset where they were present."""
    kind = payload.get("kind")
    dataset = payload.get("dataset")
    return QueryResult.failure(
        code,
        message,
        kind=kind if isinstance(kind, str) else None,
        dataset=dataset if isinstance(dataset, str) else None,
    )


class _SocketTransport:
    """Speak v2 JSONL over TCP or a Unix-domain socket.

    The peer is any protocol-v2 socket endpoint — ``repro serve --listen``,
    ``repro serve --unix``, or a ``repro router`` (which reaches its own
    workers through this transport too): read the opening ``hello``, then
    lockstep request/response lines.  When the client
    spawned the server (``SimRankClient.connect``) the transport owns the
    child: ``close`` tears it down and a death mid-request is reaped; a
    transport pointed at a shared server (``SimRankClient(address=...)``)
    owns only its connection, and after a failed request the next one opens
    a fresh connection.
    """

    def __init__(
        self,
        address: Address | str,
        *,
        connect_timeout: float = 30.0,
        timeout: float | None = None,
        process: subprocess.Popen | None = None,
        run_dir: str | None = None,
    ) -> None:
        if isinstance(address, str):
            address = parse_address(address)
        if timeout is not None and timeout <= 0:
            raise ParameterError(f"timeout must be positive, got {timeout!r}")
        self._address = address
        self._process = process
        self._run_dir = run_dir
        self._connect_timeout = connect_timeout
        #: Per-request read timeout; ``None`` blocks forever.  On expiry the
        #: request resolves to a ``timeout`` envelope and the channel is
        #: closed — a late response on it would desynchronise the lockstep
        #: protocol — and the next request opens a fresh one.
        self._timeout = timeout
        self._lock = threading.Lock()
        self._shut_down = False
        #: Whether the channel was closed by a read timeout and must be
        #: reopened before the next request.
        self._stale = False
        self._channel = self._open_channel()

    def _open_channel(self) -> LineChannel:
        address = self._address
        try:
            channel = LineChannel(
                address.connect(timeout=self._connect_timeout)
            )
        except OSError as exc:
            raise ServiceError(
                QueryResult.failure(
                    "server_gone", f"could not connect to {address}: {exc}"
                )
            ) from exc
        self._channel = channel
        # The hello read honours the connect budget: a server that accepts
        # but never greets must not block forever either.
        channel.settimeout(self._connect_timeout)
        try:
            self._hello = self._read_frame()
        except socket.timeout:
            channel.close()
            raise ServiceError(
                QueryResult.failure(
                    ERROR_TIMEOUT,
                    f"{address} accepted but sent no hello within "
                    f"{self._connect_timeout:.0f}s",
                )
            ) from None
        except (_TransportGone, OSError):
            channel.close()
            raise ServiceError(
                QueryResult.failure(
                    "server_gone",
                    f"{address} closed the connection before hello",
                )
            ) from None
        if self._hello.get("frame") != "hello":
            channel.close()
            raise WireFormatError(
                f"expected a hello frame from {address}, got {self._hello!r}"
            )
        channel.settimeout(self._timeout)
        self._stale = False
        return channel

    @property
    def owns_service(self) -> bool:
        """Only a transport that spawned the server may shut it down on
        ``close`` — a connection to a shared server must not."""
        return self._process is not None

    @property
    def address(self) -> str:
        """The server endpoint, as a string other clients can connect to."""
        return str(self._address)

    def _read_frame(self, lines: list[str] | None = None) -> dict:
        line = self._channel.read_line()
        if line is None:
            raise _TransportGone()
        if lines is not None:
            lines.append(line)
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise WireFormatError(f"expected a frame object, got {payload!r}")
        return payload

    def hello(self) -> dict:
        return self._hello

    def roundtrip(self, payload: dict) -> QueryResult:
        with self._lock:
            failed = self.send(payload)
            return failed if failed is not None else self.receive(payload)[0]

    def send(self, payload: dict) -> QueryResult | None:
        """Write one request without waiting for its answer: ``None`` once
        written, else the envelope answering it (the server is gone).
        Follow each write with one :meth:`receive`; a caller other than
        :meth:`roundtrip` must be the transport's only user."""
        if self._shut_down:
            raise ServiceError(
                QueryResult.failure("server_gone", "server has shut down")
            )
        if self._stale:
            try:
                self._open_channel()
            except (ServiceError, WireFormatError):
                return self._lost(
                    payload, f"could not reconnect to {self._address}"
                )
        try:
            self._channel.send_line(encode_frame(payload))
        except OSError:
            return self._lost(
                payload, f"the server at {self._address} went away mid-request"
            )
        return None

    def receive(self, payload: dict) -> tuple[QueryResult, list[str]]:
        """Read the answer to the request :meth:`send` wrote, with the
        server's frame lines as they came — none when the answer is the
        transport's own envelope (no reply arrived)."""
        lines: list[str] = []
        try:
            frames = [self._read_frame(lines)]
            while frames[-1].get("frame") == "partial":
                frames.append(self._read_frame(lines))
        except socket.timeout:
            # No response within the read timeout.  The lockstep channel is
            # now ambiguous (a late response could still arrive), so it is
            # closed here and reopened by the next request; the caller gets
            # a structured ``timeout`` envelope it may retry — after
            # ``timeout``, never an indefinite hang.
            self._channel.close()
            self._stale = True
            return _transport_failure(
                payload,
                ERROR_TIMEOUT,
                f"no response from {self._address} within {self._timeout}s",
            ), []
        except (_TransportGone, OSError):
            return self._lost(
                payload, f"the server at {self._address} went away mid-request"
            ), []
        _check_echo(frames, payload.get("id"))
        result = result_from_frames(frames)
        if result.ok and result.kind == "shutdown":
            self._shut_down = True
            self._teardown()
        return result, lines

    def _lost(self, payload: dict, message: str) -> QueryResult:
        """The connection failed.  A spawned child's death is final; a
        shared server may be back by the next request (a restarted router
        or worker rebinds its address), which then opens a fresh
        connection."""
        if self._process is None:
            self._channel.close()
            self._stale = True
        else:
            self._shut_down = True
            self._teardown()
        return _transport_failure(payload, ERROR_UNAVAILABLE, message)

    @property
    def closed(self) -> bool:
        return self._shut_down

    def _teardown(self) -> None:
        self._channel.close()
        if self._process is not None:
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        if self._run_dir is not None:
            try:
                Path(self._address.path).unlink()
            except OSError:
                pass
            try:
                Path(self._run_dir).rmdir()
            except OSError:
                pass
            self._run_dir = None

    def close(self) -> None:
        with self._lock:
            # Closed means closed: later roundtrips must fail fast with the
            # same ServiceError the other transports raise, not return a
            # went-away-mid-request envelope from the dead channel.
            self._shut_down = True
            if self._process is not None and self._process.poll() is None:
                self._process.kill()
            self._teardown()


def _check_echo(frames: Sequence[dict], request_id: object) -> None:
    for frame in frames:
        if frame.get("id") != request_id:
            raise WireFormatError(
                f"response frame echoes id {frame.get('id')!r} "
                f"for request id {request_id!r}"
            )


class SimRankClient:
    """Typed protocol-v2 client: queries and control over either transport.

    Construct via :meth:`in_process` (wrap a service in this interpreter),
    :meth:`connect` (spawn and drive a private ``repro serve --unix``
    child) or ``SimRankClient(address=...)`` (attach to a shared server);
    all speak the same envelopes, so code written against one runs
    unchanged against the others.  Instances are context managers;
    :meth:`close` shuts the transport down (and, for :meth:`connect`,
    sends ``shutdown`` to the child first so it exits cleanly).
    """

    def __init__(
        self,
        transport: "_InProcessTransport | _SocketTransport | None" = None,
        *,
        address: Address | str | None = None,
        connect_timeout: float = 30.0,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        deadline_ms: float | None = None,
    ) -> None:
        if (transport is None) == (address is None):
            raise ParameterError(
                "pass exactly one of a transport or address="
            )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ParameterError(
                f"deadline_ms must be positive, got {deadline_ms!r}"
            )
        if transport is None:
            # ``SimRankClient(address="host:port")`` — attach to a shared
            # socket server (or router); close() leaves the server running.
            transport = _SocketTransport(
                address, connect_timeout=connect_timeout, timeout=timeout
            )
        self._transport = transport
        #: Retry policy for retryable error envelopes; ``None`` disables.
        self._retry = retry
        #: Default end-to-end budget stamped on every request envelope as
        #: ``deadline_ms``; a per-call value overrides it.
        self._deadline_ms = deadline_ms
        self._next_id = 0
        self._id_lock = threading.Lock()

    @property
    def address(self) -> str | None:
        """The server endpoint for a socket transport (a string another
        client can pass as ``address=``); ``None`` for the in-process
        transport, which is not shareable."""
        return getattr(self._transport, "address", None)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def in_process(
        cls,
        service: SimRankService | None = None,
        *,
        config: ServiceConfig | None = None,
        **config_kwargs: object,
    ) -> "SimRankClient":
        """A client over an in-process service.

        Pass an existing ``service``, a full ``config``, or
        :class:`~repro.service.ServiceConfig` fields as keyword arguments
        (``scale=0.1, backend="sling"``).  A caller-supplied service stays
        the caller's: :meth:`close` leaves its sessions untouched (only an
        explicit :meth:`shutdown` tears them down); a service the client
        creates here is torn down with the client.
        """
        owns_service = service is None
        if service is None:
            service = SimRankService(config or ServiceConfig(**config_kwargs))
        return cls(_InProcessTransport(service, owns_service=owns_service))

    @classmethod
    def connect(
        cls,
        *,
        scale: float = 1.0,
        epsilon: float = 0.05,
        seed: int = 0,
        backend: str = "sling",
        workers: int = 1,
        mc_walks: int = 200,
        extra_args: Sequence[str] = (),
        spawn_timeout: float = 120.0,
    ) -> "SimRankClient":
        """Spawn ``repro serve --unix`` on a private socket and connect.

        The client owns the child: :meth:`close` shuts it down.  To attach
        to an already-running server instead, use
        ``SimRankClient(address=...)``.
        """
        run_dir = tempfile.mkdtemp(prefix="repro-socket-")
        address = Address(family="unix", path=os.path.join(run_dir, "serve.sock"))
        serve_args = cls._serve_args(
            scale=scale, epsilon=epsilon, seed=seed, backend=backend,
            workers=workers, mc_walks=mc_walks, extra_args=extra_args,
        )
        process = spawn_serve(address.path, serve_args)
        try:
            wait_for_hello(process, address, timeout=spawn_timeout)
        except RuntimeError as exc:
            process.kill()
            process.wait()
            shutil.rmtree(run_dir, ignore_errors=True)
            raise ServiceError(QueryResult.failure("server_gone", str(exc))) from None
        return cls(
            _SocketTransport(address, process=process, run_dir=run_dir)
        )

    @staticmethod
    def _serve_args(
        *,
        scale: float,
        epsilon: float,
        seed: int,
        backend: str,
        workers: int,
        mc_walks: int,
        extra_args: Sequence[str],
    ) -> list[str]:
        return [
            "--scale", str(scale),
            "--epsilon", str(epsilon),
            "--seed", str(seed),
            "--backend", backend,
            "--workers", str(workers),
            "--mc-walks", str(mc_walks),
            *extra_args,
        ]

    # ------------------------------------------------------------------ #
    # Envelope-level surface
    # ------------------------------------------------------------------ #
    def hello(self) -> dict:
        """The server's hello frame: protocol version, backends, datasets."""
        return self._transport.hello()

    @property
    def closed(self) -> bool:
        """Whether the transport has been shut down."""
        return self._transport.closed

    def execute(
        self,
        request: Query | ControlRequest,
        *,
        chunk_size: int | None = None,
        deadline_ms: float | None = None,
    ) -> QueryResult:
        """Answer one typed request; returns the full result envelope.

        ``chunk_size`` asks the server to stream a large ``single_source``
        value as bounded frames; the client reassembles them, so the
        returned envelope's ``value`` is always complete.

        ``deadline_ms`` (or the client-level default) stamps an end-to-end
        budget on the envelope; hops along the way decrement it and shed
        expired work with ``deadline_exceeded`` envelopes.  With a
        :class:`RetryPolicy` configured, retryable error envelopes
        (``unavailable`` / ``overloaded`` / ``timeout``) are retried with
        exponential backoff — ``mutate`` only when it carries a
        ``mutation_id``, which keeps retries idempotent.
        """
        budget_ms = deadline_ms if deadline_ms is not None else self._deadline_ms
        started = time.monotonic() if budget_ms is not None else None
        retry = self._retry
        if (
            retry is not None
            and isinstance(request, MutateRequest)
            and request.mutation_id is None
        ):
            # A retried mutate without an idempotency token could apply
            # twice; never retry those.
            retry = None
        attempt = 0
        while True:
            attempt += 1
            with self._id_lock:
                request_id = self._next_id
                self._next_id += 1
            payload: dict = {"v": PROTOCOL_VERSION, "id": request_id}
            if chunk_size is not None:
                payload["chunk_size"] = chunk_size
            if budget_ms is not None:
                remaining = budget_ms - (time.monotonic() - started) * 1000.0
                if remaining <= 0:
                    return QueryResult.failure(
                        "deadline_exceeded",
                        f"client-side deadline of {budget_ms:g}ms expired",
                        kind=request.kind,
                        dataset=getattr(request, "dataset", None),
                    )
                payload["deadline_ms"] = remaining
            payload.update(request.to_wire())
            result = self._transport.roundtrip(payload)
            if retry is None or not retry.should_retry(result, attempt):
                return result
            delay = retry.delay(attempt)
            if budget_ms is not None:
                remaining = budget_ms - (time.monotonic() - started) * 1000.0
                if remaining <= delay * 1000.0:
                    return result  # no budget left for another attempt
            time.sleep(delay)
            if self._transport.closed:
                return result  # the server this client spawned is gone

    def _value(
        self,
        request: Query | ControlRequest,
        *,
        chunk_size: int | None = None,
    ) -> object:
        result = self.execute(request, chunk_size=chunk_size)
        if not result.ok:
            raise ServiceError(result)
        return result.value

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def single_pair(self, dataset: str, node_u: int, node_v: int) -> float:
        """SimRank of one pair."""
        return self._value(SinglePairQuery(dataset, node_u, node_v))

    def single_source(
        self, dataset: str, node: int, *, chunk_size: int | None = None
    ) -> SparseScores:
        """SimRank from ``node`` to every node (optionally streamed), as
        its nonzeros: the wire's base64 columns decoded straight into
        read-only ``int32``/``float64`` arrays, with no decimal text in
        between.  ``np.asarray`` of the answer is the dense vector."""
        return self._value(
            SingleSourceQuery(dataset, node), chunk_size=chunk_size
        )

    def top_k(self, dataset: str, node: int, k: int) -> list:
        """The ``k`` nodes most similar to ``node``, ranked: a list of
        ``{"rank", "node", "score"}`` dicts (``int`` rank from 1, ``int``
        node, ``float`` score), decoded from the wire's two columns."""
        return self._value(TopKQuery(dataset, node=node, k=k))

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def ping(self) -> dict:
        """Liveness probe; ``{"pong": true, "protocol": 2}``."""
        return self._value(PingRequest())

    def open_dataset(self, dataset: str) -> dict:
        """Open a registry dataset session eagerly; returns its shape."""
        return self._value(OpenDatasetRequest(dataset))

    def close_dataset(self, dataset: str) -> dict:
        """Close one dataset session; ``{"closed": bool, ...}``."""
        return self._value(CloseDatasetRequest(dataset))

    def list_datasets(self) -> list:
        """Names of the open sessions, in opening order."""
        value = self._value(ListDatasetsRequest())
        return value["datasets"]

    def stats(self) -> dict:
        """The aggregate statistics snapshot."""
        return self._value(StatsRequest())

    def describe(self, dataset: str | None = None) -> dict:
        """Describe the service, or one open dataset session."""
        return self._value(DescribeRequest(dataset=dataset))

    def mutate(
        self,
        dataset: str,
        *,
        add: Sequence[tuple[int, int]] = (),
        remove: Sequence[tuple[int, int]] = (),
        refreeze: bool = False,
        mutation_id: str | None = None,
    ) -> dict:
        """Apply an edge delta to ``dataset``'s live index; returns the ack
        (``index_version``, ``epsilon_stale``, affected-set sizes, ...).

        ``refreeze=True`` re-estimates every correction factor before the
        ack, restoring bitwise rebuild-parity answers (``epsilon_stale`` 0.0).

        ``mutation_id`` is the idempotency token a WAL-backed worker
        deduplicates retries by; with a :class:`RetryPolicy` configured one
        is auto-generated, so a retried mutate can never apply twice.
        """
        if mutation_id is None and self._retry is not None:
            mutation_id = uuid.uuid4().hex
        return self._value(
            MutateRequest(
                dataset=dataset,
                add=tuple((int(u), int(v)) for u, v in add),
                remove=tuple((int(u), int(v)) for u, v in remove),
                refreeze=refreeze,
                mutation_id=mutation_id,
            )
        )

    def shutdown(self) -> dict:
        """Ask the server to drain and stop; the transport closes with it."""
        return self._value(ShutdownRequest())

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the transport down (sending ``shutdown`` first if alive).

        A borrowed in-process service (``in_process(service=...)``) is not
        shut down — its sessions belong to the caller; only transports the
        client owns (a spawned ``repro serve`` child, a service built by
        :meth:`in_process`) get the full teardown.
        """
        owns = getattr(self._transport, "owns_service", True)
        if owns and not self._transport.closed:
            try:
                self.shutdown()
            except (ReproError, OSError):  # already going away; finish locally
                pass
        self._transport.close()

    def __enter__(self) -> "SimRankClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        transport = type(self._transport).__name__.strip("_")
        return f"SimRankClient(transport={transport}, closed={self.closed})"

"""The socket front end: one accept loop for every served endpoint.

:class:`SocketServer` serves wire protocol v2 over TCP or Unix-domain
sockets.  Each accepted connection runs the shared ordered pump
(:class:`~repro.service.net.pump.Pump`) over its socket, so it gets
exactly the stdin/stdout serve loop's contract — an opening ``hello``
frame, one response per request line **in arrival order**, ``id`` echo,
deadlines, ``ping`` ahead of the queue, ``bad_request`` for oversized
lines.  All connections share one dispatcher: a
:class:`~repro.service.ParallelExecutor` over one warm
:class:`~repro.service.SimRankService` (``repro serve``; sessions opened
by one client answer every client), or the router's dispatcher over its
worker processes (``repro router``).

Hostile peers are contained per connection: a client that sends garbage,
oversized lines or disconnects mid-stream takes down at most its own
pump.  An acknowledged ``shutdown`` control request stops the whole
server: the listener closes, in-flight requests drain, every connection is
told to stop, and :meth:`serve_forever` returns — which is how one
``shutdown`` line through any transport stops a worker process.
"""

from __future__ import annotations

import socket
import threading

from ...exceptions import ParameterError
from .channel import DEFAULT_MAX_LINE_BYTES, Address, LineChannel
from .pump import POLL_SECONDS, Dispatcher, Pump

__all__ = ["SocketServer"]


class SocketServer:
    """Serve one :class:`~repro.service.net.pump.Dispatcher` over a TCP or
    Unix socket.

    Parameters
    ----------
    dispatcher:
        What answers every connection's requests: a
        :class:`~repro.service.ParallelExecutor` over a service, or the
        router's dispatcher.  Its ``workers`` sizes each connection's
        in-flight window (``4 * workers``); :meth:`stop` closes it.
    address:
        Where to listen.  TCP port 0 binds an ephemeral port; the resolved
        :attr:`address` tells callers what was actually bound.
    chunk_size:
        Server-side default for streaming large ``single_source`` values;
        a request's own ``chunk_size`` wins.
    hello:
        Whether connections open with a ``hello`` frame (on by default;
        strictly-v1 consumers can turn it off).
    max_line_bytes:
        Per-line inbound byte cap; oversized lines are answered with
        ``bad_request`` envelopes instead of growing the buffer unboundedly.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        *,
        address: Address,
        chunk_size: int | None = None,
        hello: bool = True,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ) -> None:
        if max_line_bytes < 1024:
            raise ParameterError(
                f"max_line_bytes must be >= 1024, got {max_line_bytes}"
            )
        self._dispatcher = dispatcher
        self._chunk_size = chunk_size
        self._hello = hello
        self._max_line_bytes = max_line_bytes
        self._listener = address.listen()
        #: The bound endpoint (with the real port when TCP port 0 was asked).
        self.address = address.resolved(self._listener)
        self._connections: set[Pump] = set()
        self._connections_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._stop_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Begin accepting connections on a background thread."""
        if self._accept_thread is not None:
            return
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-socket-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Accept and serve until :meth:`stop` (or an acknowledged
        ``shutdown`` request) brings the server down."""
        self.start()
        self._stopped.wait()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully stopped; ``True`` if it has."""
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Stop accepting, drain in-flight requests, close every connection,
        and close the dispatcher.  Idempotent and thread-safe; returns
        once the server is fully stopped."""
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
            with self._connections_lock:
                connections = list(self._connections)
            for pump in connections:
                pump.join()
            self._dispatcher.close()
            self._stopped.set()

    def _initiate_shutdown(self) -> None:
        """Asynchronously run :meth:`stop` — called from a connection
        pump's writer thread after it delivered a ``shutdown``
        acknowledgement (the writer cannot join itself)."""
        threading.Thread(
            target=self.stop, name="repro-socket-stop", daemon=True
        ).start()

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        try:
            self._listener.settimeout(POLL_SECONDS)
        except OSError:  # stop() closed the listener before we started
            return
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed under us — stopping
                break
            channel = LineChannel(sock, max_line_bytes=self._max_line_bytes)
            channel.settimeout(POLL_SECONDS)
            pump = Pump(
                self._dispatcher,
                channel,
                channel,
                chunk_size=self._chunk_size,
                hello=self._dispatcher.hello_payload() if self._hello else None,
                stopping=self._stopping.is_set,
                on_shutdown=self._initiate_shutdown,
            )
            with self._connections_lock:
                self._connections = {
                    live for live in self._connections if not live.done
                }
                self._connections.add(pump)
            pump.start()

    def __enter__(self) -> "SocketServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SocketServer(address={str(self.address)!r})"

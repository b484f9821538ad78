"""The one ordered connection pump behind every serve loop.

``repro serve`` over stdin/stdout, ``repro batch`` (stdin or ``--input
FILE``) and every :class:`~repro.service.net.SocketServer` connection —
``repro router``'s included — run the same :class:`Pump`; only the line
reader and writer they hand it, and the :class:`Dispatcher` answering,
differ.  The pump's contract:

* one response per non-blank request line — a monolithic envelope, or
  ``partial``/``done`` frames — written **in arrival order**, each echoing
  its request's ``id``, with up to ``4 * workers`` requests in flight
  behind the head of the line (a bounded queue: a lockstep producer never
  deadlocks and a fast one cannot grow memory);
* the whole :class:`~repro.service.wire.RequestEnvelope` goes to the
  :class:`Dispatcher` — a :class:`~repro.service.ParallelExecutor` in a
  serving process, the routing dispatcher in ``repro router`` — so
  ``deadline_ms`` holds on every transport;
* ``ping`` is answered on the reader thread, ahead of the dispatcher, so a
  liveness probe stays responsive while every worker is deep in a query;
* a line over the reader's byte cap is answered with ``bad_request`` and
  the stream realigns on the next newline;
* an acknowledged ``shutdown`` stops reading (requests already queued
  drain);
* a failed write stops reading, and the writer keeps draining without
  writing, so the reader never blocks on a full queue;
* if the pump is torn down while the writer is stuck in a send to a peer
  that stopped reading, the writer is closed under it after
  :data:`SEND_STALL_SECONDS`.
"""

from __future__ import annotations

import os
import queue
import select
import threading
from concurrent.futures import Future
from dataclasses import replace
from typing import Callable, Iterable, Protocol, TextIO

from ...exceptions import ParameterError
from ..control import PingRequest, ShutdownRequest
from ..results import ERROR_BAD_REQUEST, QueryResult
from ..wire import RequestEnvelope, decode_envelope_line, encode_frame, response_frames
from .channel import DEFAULT_MAX_LINE_BYTES, LineReader, OversizedLineError

__all__ = [
    "POLL_SECONDS",
    "SEND_STALL_SECONDS",
    "Answer",
    "Dispatcher",
    "LineWriter",
    "Pump",
    "serve_stream",
]

#: How often a blocked read wakes up to notice a stop request, in seconds.
POLL_SECONDS = 0.2

#: How long a torn-down pump's full response queue may sit unmoved while
#: the writer is inside a send before the writer is closed under it —
#: breaking a send wedged on a peer that stopped reading, so a server's
#: ``stop()`` is never held hostage by one hostile peer.
SEND_STALL_SECONDS = 5.0


class Answer(Protocol):
    """A submitted request's pending answer (a Future, or the router's)."""

    def result(self) -> QueryResult:
        """Wait for the answer and return it; never raises."""


class Dispatcher(Protocol):
    """What answers a pump's requests: a
    :class:`~repro.service.ParallelExecutor` over a service, or the
    router's dispatcher over its worker processes."""

    @property
    def workers(self) -> int:
        """Sizes each connection's in-flight window (``4 * workers``)."""

    def submit(self, envelope: RequestEnvelope) -> Answer:
        """Start answering one decoded request.  The pump asks every
        answer for its result, in arrival order on its writer thread —
        also after its peer has gone, so no answer is left unsettled.  An
        answer may carry ``lines``, its frames already encoded for this
        request, which the pump then writes as they are."""

    def answer_ping(self, request: PingRequest) -> QueryResult:
        """Answer a ``ping`` on the calling (reader) thread."""

    def hello_payload(self) -> dict:
        """The ``hello`` frame a socket connection opens with."""

    def close(self) -> None:
        """Release the dispatcher once no pump submits to it any more."""


class LineWriter(Protocol):
    """Where a pump writes its response lines."""

    def send_line(self, line: str) -> None:
        """Write one line (the newline is appended); raise on failure."""

    def close(self) -> None:
        """Release the output; a send blocked in another thread should fail."""


class _StreamWriter:
    """A :class:`LineWriter` over a text stream (stdout, an output file),
    flushing every line so a lockstep consumer sees it at once."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream

    def send_line(self, line: str) -> None:
        self._stream.write(line + "\n")
        self._stream.flush()

    def close(self) -> None:
        """Nothing to release: the caller owns the stream."""


def _stream_reader(
    stream: TextIO, *, max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
) -> LineReader:
    """A byte-capped :class:`LineReader` over a text input stream that
    raises ``TimeoutError`` every :data:`POLL_SECONDS` without input.

    A stream with a pollable descriptor (a pipe, a terminal, a file) is
    read raw, polled with ``select``, so a stopped pump is never stuck
    behind a producer that will not send another line.  Anything else
    (in-memory streams, Windows pipes) is read by a daemon thread that
    hands chunks over a queue; the daemon may stay parked in a read that
    never returns, but the process never waits on it.
    """
    try:
        fd = stream.fileno()
        select.select([fd], [], [], 0)  # Windows: only sockets poll
    except (OSError, ValueError, AttributeError):
        fd = None
    if fd is not None:

        def recv() -> bytes:
            if not select.select([fd], [], [], POLL_SECONDS)[0]:
                raise TimeoutError
            return os.read(fd, 65536)

        return LineReader(recv, max_line_bytes=max_line_bytes)

    chunks: queue.Queue[bytes] = queue.Queue(maxsize=64)
    closed = threading.Event()

    def pull() -> None:
        # ``readline`` with a size hint bounds each chunk, so an endless
        # line cannot build up here; the reader's byte cap handles it.
        for text in iter(lambda: stream.readline(65536), ""):
            if not _put_until(chunks, text.encode("utf-8"), closed):
                return
        _put_until(chunks, b"", closed)

    threading.Thread(target=pull, name="repro-stream-reader", daemon=True).start()

    def recv_queued() -> bytes:
        try:
            return chunks.get(timeout=POLL_SECONDS)
        except queue.Empty:
            raise TimeoutError from None

    return LineReader(recv_queued, max_line_bytes=max_line_bytes, close=closed.set)


def _put_until(target: queue.Queue, item: object, closed: threading.Event) -> bool:
    """Put ``item`` on a bounded queue, giving up once ``closed`` is set."""
    while not closed.is_set():
        try:
            target.put(item, timeout=POLL_SECONDS)
            return True
        except queue.Full:
            continue
    return False


def _resolved(result: QueryResult) -> "Future[QueryResult]":
    future: Future[QueryResult] = Future()
    future.set_result(result)
    return future


class Pump:
    """One ordered request/response conversation over a line reader/writer.

    Parameters
    ----------
    executor:
        The shared :class:`Dispatcher` answering requests; its worker
        count sizes the in-flight window.
    reader, writer:
        The request source and the response sink.  The reader should raise
        ``TimeoutError`` now and then while idle, so a stop is noticed.
    chunk_size:
        Default for streaming large values; a request's own wins.
    hello:
        The opening ``hello`` frame payload, or ``None`` for no greeting.
    number_lines:
        Stamp lines that fail to decode with their 1-based input line
        number (``error.detail.line``) — for file input.
    stopping:
        Polled between reads; ``True`` stops the pump (a server going down).
    on_shutdown:
        Called on the writer thread after a ``shutdown`` acknowledgement
        has been written.
    """

    def __init__(
        self,
        executor: Dispatcher,
        reader: LineReader,
        writer: LineWriter,
        *,
        chunk_size: int | None = None,
        hello: dict | None = None,
        number_lines: bool = False,
        stopping: Callable[[], bool] | None = None,
        on_shutdown: Callable[[], None] | None = None,
    ) -> None:
        self._executor = executor
        self._reader = reader
        self._writer = writer
        self._chunk_size = chunk_size
        self._hello = hello
        self._number_lines = number_lines
        self._stopping = stopping
        self._on_shutdown = on_shutdown
        self._pending: queue.Queue = queue.Queue(maxsize=4 * executor.workers)
        self._stop = threading.Event()
        #: True while the writer is inside a send — the only state in which
        #: a full queue during teardown justifies closing the writer under
        #: it (a writer waiting on a slow query must be left to drain).
        self._sending = False
        #: Responses written, by outcome.
        self.ok_count = 0
        self.error_count = 0
        #: What made a write fail; ``None`` while the output is healthy.
        self.write_error: Exception | None = None
        self._reader_thread = threading.Thread(
            target=self._read_loop, name="repro-pump-reader", daemon=True
        )
        self._writer_thread = threading.Thread(
            target=self._write_loop, name="repro-pump-writer", daemon=True
        )

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Run the pump on background threads."""
        self._writer_thread.start()
        self._reader_thread.start()

    def run(self) -> "Pump":
        """Run the pump to completion on the calling thread (it reads; a
        background thread writes) and return it for its counts."""
        self._writer_thread.start()
        self._read_loop()
        return self

    def join(self) -> None:
        """Stop reading, drain what is queued, and wait for both threads."""
        self._stop.set()
        self._reader_thread.join()

    @property
    def done(self) -> bool:
        """Whether a started pump has finished."""
        return self._writer_thread.ident is not None and not (
            self._reader_thread.is_alive() or self._writer_thread.is_alive()
        )

    # ------------------------------------------------------------------ #
    def _done_reading(self) -> bool:
        return (
            self._stop.is_set()
            or self.write_error is not None
            or (self._stopping is not None and self._stopping())
        )

    def _read_loop(self) -> None:
        line_number = 0
        try:
            while not self._done_reading():
                try:
                    line = self._reader.read_line()
                except TimeoutError:
                    continue
                except OversizedLineError as exc:
                    line_number += 1
                    envelope = RequestEnvelope(
                        request=QueryResult.failure(ERROR_BAD_REQUEST, str(exc))
                    )
                except OSError:
                    break
                else:
                    if line is None:  # EOF
                        break
                    line_number += 1
                    if not line.strip():
                        continue
                    envelope = decode_envelope_line(line)
                request = envelope.request
                if isinstance(request, QueryResult):
                    if self._number_lines:
                        request = request.with_error_detail(line=line_number)
                        envelope = replace(envelope, request=request)
                    future = _resolved(request)
                elif isinstance(request, PingRequest):
                    # Answered here, not queued: a health probe
                    # must round-trip while every worker is in a long query.
                    future = _resolved(self._executor.answer_ping(request))
                else:
                    try:
                        # The whole envelope goes in so its deadline holds.
                        future = self._executor.submit(envelope)
                    except (ParameterError, RuntimeError):
                        break  # the dispatcher closed under a stopping server
                if not self._offer((envelope, future)):
                    break
                if isinstance(request, ShutdownRequest) and future.result().ok:
                    break  # later input is not read
        finally:
            self._finish_writer()
            self._reader.close()
            self._writer.close()

    def _offer(self, item: tuple) -> bool:
        """Queue ``item`` for the writer, never blocking past teardown: the
        bounded put is retried on a short timeout so a writer wedged in a
        send cannot pin the reader (and through it ``join()``) forever;
        ``False`` once the pump is going down."""
        while True:
            try:
                self._pending.put(item, timeout=POLL_SECONDS)
                return True
            except queue.Full:
                if self._done_reading():
                    return False

    def _finish_writer(self) -> None:
        """Hand the writer its end-of-queue sentinel and wait for it.

        If the queue stays full during teardown while the writer sits in a
        send (a peer that submits requests but never reads its responses),
        the writer is closed under it after :data:`SEND_STALL_SECONDS` —
        its send raises, it drains the queue without writing, and the
        sentinel goes through.  A writer merely waiting on a slow in-flight
        query is left alone: those futures resolve.
        """
        stalled = 0.0
        while True:
            try:
                self._pending.put(None, timeout=POLL_SECONDS)
                break
            except queue.Full:
                if not (self._done_reading() and self._sending):
                    stalled = 0.0
                    continue
                stalled += POLL_SECONDS
                if stalled >= SEND_STALL_SECONDS:
                    self._writer.close()
        self._writer_thread.join()

    def _send(self, lines: Iterable[str]) -> bool:
        self._sending = True
        try:
            for line in lines:
                self._writer.send_line(line)
            return True
        except Exception as exc:  # noqa: BLE001 - the peer went away
            self.write_error = exc
            return False
        finally:
            self._sending = False

    def _write_loop(self) -> None:
        if self._hello is not None:
            self._send((encode_frame(self._hello),))
        while True:
            item = self._pending.get()
            if item is None:
                return
            envelope, future = item
            result = future.result()  # pump futures never raise
            if self.write_error is not None:
                continue  # drain unwritten, so the reader never blocks
            frames = getattr(future, "lines", None) or response_frames(
                result,
                id=envelope.id,
                chunk_size=envelope.chunk_size or self._chunk_size,
            )
            if not self._send(frames):
                continue
            if result.ok:
                self.ok_count += 1
            else:
                self.error_count += 1
            if result.ok and result.kind == "shutdown" and self._on_shutdown:
                self._on_shutdown()


def serve_stream(
    executor: Dispatcher,
    input_stream: TextIO,
    output_stream: TextIO,
    *,
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    **options: object,
) -> Pump:
    """Pump a text input stream into a text output stream until EOF, an
    acknowledged ``shutdown`` or a failed write; returns the finished pump.
    ``options`` are :class:`Pump`'s keyword arguments."""
    reader = _stream_reader(input_stream, max_line_bytes=max_line_bytes)
    return Pump(executor, reader, _StreamWriter(output_stream), **options).run()

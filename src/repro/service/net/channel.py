"""Byte-level socket plumbing: addresses and line-framed channels.

Everything that moves over a socket in this package is one JSONL line at a
time — the same frames the stdin/stdout serve loop speaks.  This module owns
the primitives under that: :class:`Address` (parse / listen / connect for
TCP and Unix-domain endpoints), :class:`LineReader` (newline framing with a
hard per-line byte limit over any byte source, so one hostile peer cannot
balloon the server's memory) and :class:`LineChannel` (that reader plus a
line writer over a connected socket).
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from ...exceptions import ParameterError

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "Address",
    "parse_address",
    "LineReader",
    "LineChannel",
    "OversizedLineError",
]

#: Hard cap on one inbound line.  Requests are tiny (a few hundred bytes);
#: the cap only exists so a peer streaming garbage without a newline is
#: bounded.  Responses can legitimately be large (an unchunked
#: single_source answer on a big graph), so outbound lines are never
#: limited.
DEFAULT_MAX_LINE_BYTES = 64 * 1024 * 1024


class OversizedLineError(ParameterError):
    """An inbound line exceeded the channel's byte limit.

    The channel drains the offending line (through its terminating newline)
    before raising, so the stream stays line-aligned and the connection can
    keep serving subsequent requests.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(f"request line exceeds the {limit}-byte frame limit")
        self.limit = limit


@dataclass(frozen=True)
class Address:
    """One serveable endpoint: a TCP ``host:port`` or a Unix socket path."""

    family: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __str__(self) -> str:
        if self.family == "unix":
            return f"unix:{self.path}"
        return f"{self.host or '127.0.0.1'}:{self.port}"

    # ------------------------------------------------------------------ #
    def listen(self, *, backlog: int = 128) -> socket.socket:
        """A bound, listening socket for this address.

        TCP sockets bind with ``SO_REUSEADDR``; Unix sockets unlink a stale
        path first (rebinding the same path is how a restarted worker keeps
        its address).  Call :meth:`resolved` with the returned socket to
        learn the actual port when binding port 0.
        """
        if self.family == "unix":
            path = Path(self.path)
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.bind(str(path))
                sock.listen(backlog)
            except OSError:
                sock.close()
                raise
            return sock
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host or "127.0.0.1", self.port))
            sock.listen(backlog)
        except OSError:
            sock.close()
            raise
        return sock

    def resolved(self, listener: socket.socket) -> "Address":
        """This address with the listener's actual port (port-0 binds)."""
        if self.family == "unix":
            return self
        _, port = listener.getsockname()[:2]
        return replace(self, port=port)

    def connect(self, *, timeout: float | None = None) -> socket.socket:
        """A connected socket to this address (timeout applies to connect
        only; the caller picks the I/O timeout afterwards)."""
        if self.family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            target: str | tuple[str, int] = self.path
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            target = (self.host or "127.0.0.1", self.port)
        try:
            sock.settimeout(timeout)
            sock.connect(target)
            sock.settimeout(None)
        except OSError:
            sock.close()
            raise
        return sock


def parse_address(spec: str) -> Address:
    """Parse ``HOST:PORT``, ``tcp:HOST:PORT``, ``unix:PATH``, or a bare
    filesystem path into an :class:`Address`.

    A bare spec counts as TCP when its last colon-separated field is a port
    number (``localhost:7077``, ``:0``); anything else is a Unix socket path
    (``/tmp/repro.sock``) — the two CLI flags are explicit, so the heuristic
    only serves ``SimRankClient(address=...)`` convenience.
    """
    if not spec:
        raise ParameterError("address must not be empty")
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ParameterError("unix: address needs a socket path")
        return Address(family="unix", path=path)
    body = spec[len("tcp:"):] if spec.startswith("tcp:") else spec
    host, sep, port = body.rpartition(":")
    if sep and (port.isdigit() or port.lstrip("-").isdigit()):
        port_num = int(port)
        if not 0 <= port_num <= 65535:
            raise ParameterError(f"port must be in [0, 65535], got {port_num}")
        return Address(family="tcp", host=host, port=port_num)
    if spec.startswith("tcp:"):
        raise ParameterError(f"tcp: address needs HOST:PORT, got {spec!r}")
    return Address(family="unix", path=spec)


class LineReader:
    """Newline framing with a hard per-line byte cap over any byte source.

    ``recv`` returns the next chunk of bytes (``b""`` at EOF) and may raise
    ``TimeoutError`` when nothing arrived in time — the pump's readers use
    that as their stop-polling tick; ``close`` (optional) releases the
    source.  Reads are single-threaded by design (one reader per
    connection).
    """

    def __init__(
        self,
        recv: Callable[[], bytes],
        *,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        close: Callable[[], None] | None = None,
    ) -> None:
        self._recv = recv
        self._close = close
        self._buffer = bytearray()
        self._eof = False
        #: True while an oversized line is being discarded — survives a
        #: timeout mid-discard so the next ``read_line`` resumes discarding
        #: instead of returning the line's tail as a frame.
        self._discarding = False
        self.max_line_bytes = max_line_bytes

    def read_line(self) -> str | None:
        """The next line (newline stripped), or ``None`` at EOF.

        Raises :class:`OversizedLineError` when a line exceeds the limit —
        after discarding through its newline, so the next call reads the
        following line.  An unterminated final line before EOF is returned
        as-is.
        """
        if self._discarding:
            # A timeout interrupted a previous discard; finish it before
            # surfacing anything, then report the frame-limit breach the
            # interrupted call never got to raise.
            self._discard_current_line()
            raise OversizedLineError(self.max_line_bytes)
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                if newline > self.max_line_bytes:
                    # A complete-but-oversized line (it can arrive whole in
                    # one recv): drop it, keep the stream aligned.
                    del self._buffer[: newline + 1]
                    raise OversizedLineError(self.max_line_bytes)
                line = self._buffer[:newline]
                del self._buffer[: newline + 1]
                return line.decode("utf-8", errors="replace")
            if self._eof:
                if self._buffer:
                    line = bytes(self._buffer)
                    self._buffer.clear()
                    return line.decode("utf-8", errors="replace")
                return None
            if len(self._buffer) > self.max_line_bytes:
                self._discard_current_line()
                raise OversizedLineError(self.max_line_bytes)
            self._fill()

    def _fill(self) -> None:
        chunk = self._recv()
        if not chunk:
            self._eof = True
        else:
            self._buffer.extend(chunk)

    def _discard_current_line(self) -> None:
        """Throw away buffered bytes up to and including the next newline,
        reading (and discarding) further input until it arrives.  A timeout
        raised by ``recv`` leaves :attr:`_discarding` set, so the next
        ``read_line`` resumes here rather than treating the tail as data."""
        self._discarding = True
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                del self._buffer[: newline + 1]
                self._discarding = False
                return
            self._buffer.clear()
            if self._eof:
                self._discarding = False
                return
            self._fill()

    def close(self) -> None:
        """Release the byte source (never raises)."""
        if self._close is not None:
            self._close()


class LineChannel(LineReader):
    """Newline-framed text I/O over one connected socket.

    Writes take an internal lock so response frames from concurrent callers
    never interleave mid-line.  ``read_line`` honours the socket timeout set
    via :meth:`settimeout` (``socket.timeout`` propagates — the pump uses
    short timeouts as its stop-polling mechanism).
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ) -> None:
        super().__init__(partial(sock.recv, 65536), max_line_bytes=max_line_bytes)
        self._sock = sock
        self._send_lock = threading.Lock()

    def settimeout(self, timeout: float | None) -> None:
        """Set the socket timeout governing subsequent reads."""
        self._sock.settimeout(timeout)

    def fileno(self) -> int:
        """The underlying socket's descriptor (for select/poll callers)."""
        return self._sock.fileno()

    def send_line(self, line: str) -> None:
        """Write one line (newline appended), atomically w.r.t. other
        senders on this channel."""
        data = line.encode("utf-8") + b"\n"
        with self._send_lock:
            self._sock.sendall(data)

    def close(self) -> None:
        """Shut down and close the socket (idempotent, never raises)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

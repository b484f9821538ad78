"""Process, timing and accounting helpers shared by every benchmark phase.

Everything here runs in the one client process.  Spawned servers are
``repro serve`` / ``repro router`` children of this interpreter, started
from the checkout root with the checkout's ``src`` on ``PYTHONPATH`` and
pinned to the client's CPU (see :func:`pin_to_one_cpu`).  All files a run
writes (Unix sockets, WAL directories, server logs) live under
``.bench_run/`` in the checkout and are removed when the run ends.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The checkout root: every path the benchmark touches is under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Sockets, WALs and server logs of a run; removed when the run ends.
RUN_ROOT = ROOT / ".bench_run"

#: Per-request read timeout on every benchmark connection.  A request that
#: outlives it resolves to a ``timeout`` envelope and counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: How long a spawned server may take to print its ``listening`` line.
SPAWN_TIMEOUT_S = 120.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def pin_to_one_cpu() -> int:
    """Pin this process to the last CPU it may use; returns that CPU.

    Every process the benchmark spawns inherits the affinity, so client,
    worker, router and reference server all share the one CPU.  Closed-loop
    requests keep at most one of them busy at a time, so sharing costs
    little, and it lets one probe on the client (:class:`HostSpeed`)
    measure the speed of the CPU every part of a request ran on: on a
    shared host, two vCPUs slow down and speed up largely independently.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def server_env() -> dict:
    """The environment spawned servers get: the checkout's ``src`` on the
    path and no fault-injection knobs inherited from the caller."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_FAULT")
    }
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


class Server:
    """One spawned ``repro serve --unix`` or ``repro router --unix`` process.

    ``spawn_seconds`` is the time from fork to the ``listening`` announce.
    Socket paths are relative to the checkout root (the server's working
    directory), which keeps them short whatever the checkout's location.
    """

    def __init__(
        self, run_dir: Path, command: str, args: list[str]
    ) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        self.run_dir = run_dir
        socket_path = (run_dir / f"{command}.sock").relative_to(ROOT)
        argv = [
            sys.executable, "-m", "repro.cli", command,
            "--unix", str(socket_path), *args,
        ]
        if command == "router":
            argv += ["--run-dir", str((run_dir / "workers").relative_to(ROOT))]
        self._log = open(run_dir / f"{command}.log", "wb")
        start = time.perf_counter()
        # A session of its own, so kill() can take the router's worker
        # processes down with it.
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=server_env(), start_new_session=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            announce = self._read_announce()
        except BaseException:
            self.kill()
            raise
        self.spawn_seconds = time.perf_counter() - start
        self.address = announce["address"]

    def _read_announce(self) -> dict:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(SPAWN_TIMEOUT_S):
                raise RuntimeError(
                    f"server did not announce within {SPAWN_TIMEOUT_S:.0f}s; "
                    f"see {self._log.name}"
                )
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before listening; see {self._log.name}"
            )
        return json.loads(line)

    def client(self):
        # Imported here: run.py imports this module before it has checked
        # for and put the checkout's ``src`` on the path.
        from repro.service import SimRankClient

        return SimRankClient(address=self.address, timeout=REQUEST_TIMEOUT_S)

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process (all threads)."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmRSS missing from /proc status")

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not exit in time."""
        if self.process.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except Exception:  # noqa: BLE001 - falling back to kill below
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL the server and anything it started, then reap;
        idempotent."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:  # the whole group has already exited
            pass
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def new_run_dir(tag: str) -> Path:
    path = RUN_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Tally:
    """Attempts, failures and per-kind latencies of one closed loop.

    Every attempt counts.  An error envelope (refused, ``overloaded``,
    ``timeout``, ``deadline_exceeded``, ...) and a request that raised
    before an envelope came back are failures; failed requests contribute
    no latency sample, so they can never flatter a percentile.
    """

    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)
    latencies: dict = field(default_factory=dict)
    #: ``(finished_at, kind, seconds)`` of every successful request, in
    #: send order (``finished_at`` on the ``perf_counter`` clock).
    timeline: list = field(default_factory=list)

    def run(self, client, request):
        """Send ``request`` through ``client``; returns the envelope or None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = client.execute(request)
        except Exception as exc:  # noqa: BLE001 - any transport failure counts
            self.record_failure(type(exc).__name__)
            return None
        finished = time.perf_counter()
        elapsed = finished - start
        if not result.ok:
            self.record_failure(result.error.code if result.error else "error")
            return result
        self.latencies.setdefault(request.kind, []).append(elapsed)
        self.timeline.append((finished, request.kind, elapsed))
        return result

    def record_failure(self, code: str) -> None:
        self.failed += 1
        self.errors[code] = self.errors.get(code, 0) + 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for code, count in other.errors.items():
            self.errors[code] = self.errors.get(code, 0) + count
        for kind, values in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(values)
        self.timeline.extend(other.timeline)

    def ms(self, kind: str, q: float) -> float:
        return percentile(self.latencies.get(kind, ()), q) * 1000.0

    def normalised(self, speed: "HostSpeed") -> "Tally":
        """A copy whose latencies read as at nominal host speed: the time a
        request overlapped a probe point of ``speed`` (worker stopped, CPU
        busy probing) is taken out, and the rest is scaled by ``speed``'s
        factor at the request's midpoint."""
        out = Tally(self.attempted, self.failed, dict(self.errors))
        ends = [end for _, end, _ in speed.points]
        for finished, kind, seconds in self.timeline:
            begun = finished - seconds
            paused = 0.0
            for start, end, _ in speed.points[bisect.bisect_right(ends, begun):]:
                if start >= finished:
                    break
                paused += min(end, finished) - max(start, begun)
            scaled = (seconds - paused) * speed.factor_at(begun + seconds / 2.0)
            out.latencies.setdefault(kind, []).append(scaled)
            out.timeline.append((finished, kind, scaled))
        return out

    def drift_ratio(self, kinds) -> float:
        """Median over ``kinds`` of (p50 of the second half of that kind's
        requests) / (p50 of its first half): > 1 when requests slowed down
        as the phase went on.  Taken kind by kind, so a kind mix that differs
        between the halves does not move it."""
        ratios = []
        for kind in kinds:
            values = [s for _, k, s in self.timeline if k == kind]
            half = len(values) // 2
            if half:
                ratios.append(median(values[half:]) / median(values[:half]))
        return median(ratios)


#: Seconds each half of a probe takes at nominal host speed: the round
#: trips to the reference server, and the in-client gather.
ECHO_NOMINAL_S = 0.002
GATHER_NOMINAL_S = 0.0012
#: Round trips to the reference server per probe.
PROBE_ROUND_TRIPS = 3
#: Timed probes per probe point, after one untimed one that wakes the CPU
#: from idle; each half's reading is the median.
PROBE_REPEATS = 3
#: Seconds between probe points inside a long phase.
PROBE_EVERY_S = 0.2
#: A time is rescaled by the median reading of the probe points that ended
#: within this many seconds of it.
PROBE_WINDOW_S = 0.5
#: The probe's request line; the reference server ignores its content.
_PROBE_REQUEST = (
    json.dumps({"v": 2, "kind": "top_k", "dataset": "HepTh", "node": 17, "k": 10})
    + "\n"
).encode()
_GATHER_DATA = np.random.default_rng(12345).random(200_000)
_GATHER_INDEX = np.random.default_rng(54321).integers(0, 200_000, size=20_000)


def gather_probe() -> float:
    """Seconds a fixed NumPy gather-and-sort takes now, in this process:
    scattered reads from a 1.6 MB array, the kind of work the SLING kernel
    does on its packed store and the build does on its walks."""
    start = time.perf_counter()
    for _ in range(6):
        _GATHER_DATA[_GATHER_INDEX].sum()
        np.sort(_GATHER_DATA[:20_000])
    return time.perf_counter() - start


class ReferenceServer:
    """The fixed echo process of ``refserver.py``, on the benchmark's CPU.

    A probe times round trips to it: the same kind of work a served request
    does (JSON both ways, a Unix-socket round trip between two processes, a
    NumPy gather), done by code that never changes with the program.
    """

    def __init__(self) -> None:
        run_dir = new_run_dir("reference")
        path = str((run_dir / "reference.sock").relative_to(ROOT))
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
            listener.bind(path)
            listener.listen(1)
            listener.settimeout(SPAWN_TIMEOUT_S)
            self.process = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("refserver.py")), path],
                cwd=ROOT, stdin=subprocess.DEVNULL,
            )
            try:
                self._connection, _ = listener.accept()
            except BaseException:
                self.process.kill()
                self.process.wait()
                raise
        self._stream = self._connection.makefile("rwb", buffering=0)

    def probe(self) -> float:
        """Seconds ``PROBE_ROUND_TRIPS`` round trips take now."""
        start = time.perf_counter()
        for _ in range(PROBE_ROUND_TRIPS):
            self._stream.write(_PROBE_REQUEST)
            if not self._stream.readline():
                raise RuntimeError("the reference server exited")
        return time.perf_counter() - start

    def close(self) -> None:
        """Close the connection (the server exits on it) and reap it."""
        self._stream.close()
        self._connection.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def host_calibration_ms(reference: ReferenceServer, repeats: int = 15) -> float:
    """Median echo-probe time, in milliseconds."""
    reference.probe()
    return 1000.0 * median([reference.probe() for _ in range(repeats)])


class HostSpeed:
    """Reference probes taken through a phase, and from them the factor
    that rescales the phase's times to nominal host speed.

    On a shared host the CPU's speed wanders by tens of percent over
    seconds to minutes, and every measured time wanders with it.  A probe
    point times two fixed pieces of work on the benchmark's CPU, with
    nothing else of the benchmark running: round trips to the reference
    server (system calls, process switches, JSON) and an in-client NumPy
    gather (memory).  Its reading is the geometric mean of the two times,
    each over its nominal: the cache-hit request path tracks the first, the
    kernel, the index build and repairs track the second, and no single
    one tracked every metric.  A time is scaled by ``1 / reading``, with
    the reading the median of the points within ``PROBE_WINDOW_S`` of it:
    the host's spells move both, a program change only the time.
    """

    def __init__(self, reference: ReferenceServer) -> None:
        self.reference = reference
        #: ``(start, end, reading)`` of each probe point, on the
        #: perf_counter clock; reading 1.0 is nominal speed, 2.0 half as fast.
        self.points: list[tuple[float, float, float]] = []

    def probe(self, pause: int | None = None) -> None:
        """Take one probe point.  ``pause`` names a process group to stop
        (SIGSTOP) while probing, so the reference work has the CPU to
        itself; the time it stands stopped falls outside every gap."""
        start = time.perf_counter()
        if pause is not None:
            os.killpg(pause, signal.SIGSTOP)
        try:
            self.reference.probe()
            gather_probe()
            echo = median([self.reference.probe() for _ in range(PROBE_REPEATS)])
            gather = median([gather_probe() for _ in range(PROBE_REPEATS)])
        finally:
            if pause is not None:
                os.killpg(pause, signal.SIGCONT)
        reading = math.sqrt(echo / ECHO_NOMINAL_S * gather / GATHER_NOMINAL_S)
        self.points.append((start, time.perf_counter(), reading))

    @contextmanager
    def probing(self, pause: int):
        """Probe every ``PROBE_EVERY_S`` from a background thread, stopping
        process group ``pause`` for each probe, until the block exits."""
        done = threading.Event()

        def loop() -> None:
            while not done.wait(PROBE_EVERY_S):
                try:
                    self.probe(pause)
                except ProcessLookupError:  # the group exited
                    return

        thread = threading.Thread(target=loop, name="bench-probe", daemon=True)
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()

    def factor_at(self, at: float) -> float:
        """Rescaling factor for a time centred on ``at``: one over the
        median reading of the probe points that ended within
        ``PROBE_WINDOW_S`` of it (the nearest point if none did)."""
        if not self.points:
            raise RuntimeError("no reference probe was taken")
        ends = [end for _, end, _ in self.points]
        low = bisect.bisect_left(ends, at - PROBE_WINDOW_S)
        high = bisect.bisect_right(ends, at + PROBE_WINDOW_S)
        if low == high:
            nearest = min(range(len(ends)), key=lambda i: abs(ends[i] - at))
            low, high = nearest, nearest + 1
        return 1.0 / median([reading for _, _, reading in self.points[low:high]])

    def gaps(self) -> list[tuple[float, float]]:
        """``(start, end)`` of each stretch between consecutive probe
        points: the phase's time, the probes (and any pause around them)
        left out."""
        return [
            (end, start)
            for (_, end, _), (start, _, _) in zip(self.points, self.points[1:])
        ]

    def active_seconds(self) -> float:
        return sum(end - start for start, end in self.gaps())

    def nominal_seconds(self) -> float:
        """:meth:`active_seconds` rescaled gap by gap."""
        return sum(
            (end - start) * self.factor_at((start + end) / 2.0)
            for start, end in self.gaps()
        )

    def median_reading(self) -> float:
        return median([reading for _, _, reading in self.points])

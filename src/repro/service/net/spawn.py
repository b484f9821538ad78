"""Spawning ``repro serve --unix`` children and waiting for their hello.

Both owners of a serve child use this: :meth:`SimRankClient.connect
<repro.service.SimRankClient.connect>` (a private server) and
:class:`~repro.service.net.WorkerPool` (the router's workers).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

from .channel import Address, LineChannel

__all__ = ["spawn_serve", "wait_for_hello"]


def spawn_serve(socket_path: str, serve_args: Sequence[str] = ()) -> subprocess.Popen:
    """Start ``repro serve --unix SOCKET_PATH *serve_args`` with this
    interpreter, its standard streams detached.

    The package's ``src`` directory goes first on the child's
    ``PYTHONPATH``, so children run from a checkout without installation.
    A stale socket file is removed first, so a waiter never mistakes it for
    the new server.
    """
    try:
        Path(socket_path).unlink()
    except FileNotFoundError:
        pass
    src_dir = str(Path(__file__).resolve().parents[3])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src_dir]
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--unix", socket_path, *serve_args,
        ],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )


def wait_for_hello(
    process: subprocess.Popen,
    address: Address,
    *,
    timeout: float,
    name: str = "repro serve",
) -> None:
    """Block until the child accepts a connection on ``address`` and greets
    it with a ``hello`` frame.

    Raises ``RuntimeError`` (naming the child ``name``) when it exits first
    or has not said hello within ``timeout`` seconds.
    """
    deadline = time.monotonic() + timeout
    while True:
        if process.poll() is not None:
            raise RuntimeError(
                f"{name} exited with code {process.returncode} "
                "before becoming ready"
            )
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(
                f"{name} did not say hello on {address} within {timeout:.0f}s"
            )
        try:
            channel = LineChannel(address.connect(timeout=min(1.0, remaining)))
        except OSError:
            time.sleep(0.05)
            continue
        try:
            channel.settimeout(remaining)
            hello = channel.read_line()
        except OSError:
            hello = None
        finally:
            channel.close()
        if hello and '"frame":"hello"' in hello:
            return
        time.sleep(0.05)

"""Socket transports and multi-process sharded serving.

Layers, bottom up:

* :mod:`~repro.service.net.channel` — addresses (TCP / Unix-domain) and
  newline-framed line readers and socket channels with a per-line byte cap;
* :mod:`~repro.service.net.pump` — :class:`Pump`, the one ordered
  request/response pump every serve loop runs (stdin/stdout ``repro
  serve``, ``repro batch``, each socket connection);
* :mod:`~repro.service.net.socket_server` — :class:`SocketServer`, the
  wire-protocol-v2 serve loop over sockets (``repro serve --listen/--unix``);
* :mod:`~repro.service.net.spawn` — spawn a ``repro serve --unix`` child
  and wait for its hello;
* :mod:`~repro.service.net.router` — :class:`WorkerPool` (spawn,
  health-check, restart ``repro serve`` children) and :class:`Router`, the
  engine behind ``repro router``: a :class:`SocketServer` whose pump hands
  requests to a routing dispatcher (per-dataset sharding, control-plane
  fan-out, failover envelopes) instead of an executor.
"""

from .channel import (
    DEFAULT_MAX_LINE_BYTES,
    Address,
    LineChannel,
    OversizedLineError,
    parse_address,
)
from .pump import Pump
from .router import HashRing, Router, WorkerPool
from .socket_server import SocketServer

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "Address",
    "parse_address",
    "LineChannel",
    "OversizedLineError",
    "Pump",
    "SocketServer",
    "HashRing",
    "WorkerPool",
    "Router",
]

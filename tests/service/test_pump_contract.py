"""One wire contract for every transport.

The same request script — garbage JSON, an over-cap line, ``ping``, a
chunked ``single_source``, ``shutdown`` and a line after it — goes through
the stdin/stdout loop (:func:`~repro.service.net.pump.serve_stream`, what
``repro serve`` and ``repro batch`` run), through a
:class:`~repro.service.SocketServer` connection and through a connection
to a one-worker :class:`~repro.service.Router`.  All must answer with
identical response lines, timing fields aside.
"""

from __future__ import annotations

import io
import json

import test_client
from test_socket_server import make_service

from repro.service import Address, ParallelExecutor, Router, SocketServer, WorkerPool
from repro.service.net.channel import LineChannel
from repro.service.net.pump import serve_stream

#: A frame cap small enough for the script's padded line to break it.
MAX_LINE_BYTES = 4096

SCRIPT = [
    "this is not json {{{",
    '{"v":2,"id":"big","padding":"' + "x" * 3 * MAX_LINE_BYTES + '"}',
    '{"v":2,"id":1,"kind":"ping"}',
    '{"v":2,"id":2,"kind":"single_source","dataset":"GrQc","node":0,'
    '"chunk_size":7}',
    '{"v":2,"id":3,"kind":"shutdown"}',
    '{"v":2,"id":4,"kind":"ping"}',
]


def script_bytes() -> bytes:
    return ("\n".join(SCRIPT) + "\n").encode("utf-8")


def normalized(lines: list[str]) -> list[dict]:
    return [test_client.normalize(json.loads(line)) for line in lines]


def stdin_loop_responses() -> list[str]:
    service = make_service()
    output = io.StringIO()
    with ParallelExecutor(service, workers=2) as executor:
        pump = serve_stream(
            executor,
            io.StringIO(script_bytes().decode("utf-8")),
            output,
            max_line_bytes=MAX_LINE_BYTES,
            hello=service.hello_payload(),
        )
    assert pump.write_error is None
    return output.getvalue().splitlines()


def converse(address: Address) -> list[str]:
    """Send the whole script in one write; read until the peer hangs up."""
    sock = address.connect(timeout=10.0)
    sock.sendall(script_bytes())
    channel = LineChannel(sock)
    channel.settimeout(60.0)
    try:
        lines = []
        while (line := channel.read_line()) is not None:
            lines.append(line)
    finally:
        channel.close()
    return lines


def socket_responses() -> list[str]:
    server = SocketServer(
        ParallelExecutor(make_service(), workers=2),
        address=Address(family="tcp", host="127.0.0.1", port=0),
        max_line_bytes=MAX_LINE_BYTES,
    )
    server.start()
    try:
        lines = converse(server.address)
        # The acknowledged shutdown stopped the whole server.
        assert server.wait(timeout=30)
    finally:
        server.stop()
    return lines


def router_responses() -> list[str]:
    # The worker is configured like make_service(), so values match.
    pool = WorkerPool(
        1,
        serve_args=[
            "--scale", str(test_client.SCALE),
            "--epsilon", str(test_client.EPSILON),
            "--seed", str(test_client.SEED),
            "--mc-walks", str(test_client.MC_WALKS),
        ],
    )
    pool.start()
    router = Router(
        pool,
        address=Address(family="tcp", host="127.0.0.1", port=0),
        max_line_bytes=MAX_LINE_BYTES,
    )
    try:
        router.start()
        worker = pool._workers[0].process
        lines = converse(router.address)
        # The acknowledged shutdown stopped the router and its worker.
        assert router.wait(timeout=60)
        assert worker.wait(timeout=30) == 0
    finally:
        router.stop()
    return lines


class TestOneContract:
    def test_stdin_loop_and_socket_answer_identically(self):
        stdin_lines = stdin_loop_responses()
        socket_lines = socket_responses()
        assert normalized(stdin_lines) == normalized(socket_lines)

        frames = normalized(stdin_lines)
        assert frames[0]["frame"] == "hello"
        garbage, oversized, ping = frames[1:4]
        assert garbage["error"]["code"] == "bad_request"
        assert oversized["error"]["code"] == "bad_request"
        assert "frame limit" in oversized["error"]["message"]
        assert ping["id"] == 1 and ping["value"]["pong"] is True
        streamed = [f for f in frames if f.get("id") == 2]
        assert [f["frame"] for f in streamed][-1] == "done"
        assert len(streamed) > 2  # really chunked
        # The shutdown is acknowledged and is the last response: the line
        # after it is never read.
        assert frames[-1]["kind"] == "shutdown" and frames[-1]["ok"] is True
        assert all(f.get("id") != 4 for f in frames)

    def test_router_answers_like_the_stdin_loop(self):
        assert normalized(router_responses()) == normalized(
            stdin_loop_responses()
        )

"""`SocketServer`: protocol parity over real sockets, and hostile peers.

The parity half replays the shared transport scenario from
``test_client`` against an in-process :class:`SocketServer` through
``SimRankClient(address=...)``.  The hostile half speaks raw bytes:
garbage lines, partial lines, oversized frames, disconnects mid-stream,
and concurrent connections hammering one dataset — the server must answer
with error envelopes or shrug, never wedge or crash.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest
import test_client

from repro.engine import BackendConfig
from repro.service import (
    Address,
    ParallelExecutor,
    ServiceConfig,
    ServiceError,
    SimRankClient,
    SimRankService,
    SocketServer,
)
from repro.service.net.channel import LineChannel, OversizedLineError, parse_address


def make_service() -> SimRankService:
    return SimRankService(
        ServiceConfig(
            scale=test_client.SCALE,
            seed=test_client.SEED,
            backend_config=BackendConfig(
                epsilon=test_client.EPSILON,
                seed=test_client.SEED,
                mc_num_walks=test_client.MC_WALKS,
            ),
        )
    )


@pytest.fixture
def server():
    instance = SocketServer(
        ParallelExecutor(make_service(), workers=2),
        address=Address(family="tcp", host="127.0.0.1", port=0),
    )
    instance.start()
    yield instance
    instance.stop()


def raw_connection(server: SocketServer) -> LineChannel:
    """A raw line channel to the server, with the hello frame consumed."""
    channel = LineChannel(server.address.connect(timeout=10.0))
    channel.settimeout(30.0)
    hello = channel.read_line()
    assert hello is not None and '"frame":"hello"' in hello
    return channel


class TestParityOverSockets:
    def test_scenario_matches_in_process_byte_for_byte(self, server):
        with test_client.make_client("in_process") as local:
            local_record = test_client.run_scenario(local)
        remote = SimRankClient(address=str(server.address))
        remote_record = test_client.run_scenario(remote)
        remote.close()
        test_client.assert_records_identical(local_record, remote_record)
        # The scenario's shutdown stopped the whole server.
        assert server.wait(timeout=30)

    def test_connections_share_one_warm_service(self, server):
        first = SimRankClient(address=str(server.address))
        second = SimRankClient(address=str(server.address))
        try:
            first.open_dataset("GrQc")
            assert second.list_datasets() == ["GrQc"]
            assert second.hello()["datasets"] == []  # connect-time snapshot
        finally:
            first.close()
            second.close()

    def test_client_close_leaves_a_shared_server_running(self, server):
        client = SimRankClient(address=str(server.address))
        client.ping()
        client.close()  # must NOT shut the shared server down
        follow_up = SimRankClient(address=str(server.address))
        assert follow_up.ping()["pong"] is True
        follow_up.close()

    def test_close_marks_a_shared_client_closed(self, server):
        client = SimRankClient(address=str(server.address))
        assert client.ping()["pong"] is True
        client.close()
        assert client.closed is True
        # Requests after close fail fast, exactly like the other transports
        # — not with a misleading went-away-mid-request envelope.
        with pytest.raises(ServiceError, match="shut down"):
            client.ping()


class TestHostilePeers:
    def test_garbage_line_gets_bad_request_and_connection_survives(self, server):
        channel = raw_connection(server)
        try:
            channel.send_line("this is not json {{{")
            frame = json.loads(channel.read_line())
            assert frame["ok"] is False
            assert frame["error"]["code"] == "bad_request"
            # Same connection keeps serving.
            channel.send_line('{"v":2,"id":7,"kind":"ping"}')
            frame = json.loads(channel.read_line())
            assert frame["ok"] is True and frame["id"] == 7
        finally:
            channel.close()

    def test_partial_line_then_disconnect_leaves_server_healthy(self, server):
        sock = server.address.connect(timeout=10.0)
        sock.recv(65536)  # hello
        sock.sendall(b'{"v":2,"id":1,"kind":"pi')  # no newline, then vanish
        sock.close()
        client = SimRankClient(address=str(server.address))
        assert client.ping()["pong"] is True
        client.close()

    def test_oversized_line_is_bounded_and_answered(self):
        server = SocketServer(
            ParallelExecutor(make_service(), workers=1),
            address=Address(family="tcp", host="127.0.0.1", port=0),
            max_line_bytes=4096,
        )
        server.start()
        try:
            channel = raw_connection(server)
            try:
                channel.send_line('{"padding":"' + "x" * 20000 + '"}')
                frame = json.loads(channel.read_line())
                assert frame["ok"] is False
                assert frame["error"]["code"] == "bad_request"
                assert "frame limit" in frame["error"]["message"]
                # The stream realigned on the next newline: still serving.
                channel.send_line('{"v":2,"id":3,"kind":"ping"}')
                frame = json.loads(channel.read_line())
                assert frame["ok"] is True and frame["id"] == 3
            finally:
                channel.close()
        finally:
            server.stop()

    def test_disconnect_mid_stream_takes_down_only_that_connection(self, server):
        channel = raw_connection(server)
        channel.send_line(
            '{"v":2,"id":1,"kind":"single_source","dataset":"GrQc","node":0,'
            '"chunk_size":1}'
        )
        first = channel.read_line()
        assert first is not None and '"frame":"partial"' in first
        channel.close()  # hang up with most of the stream unsent
        client = SimRankClient(address=str(server.address))
        assert client.single_pair("GrQc", 1, 2) >= 0.0
        client.close()

    def test_retired_all_pairs_is_a_bad_request(self, server):
        channel = raw_connection(server)
        try:
            channel.send_line('{"v":2,"id":4,"kind":"all_pairs","dataset":"GrQc"}')
            frame = json.loads(channel.read_line())
            assert frame["id"] == 4 and frame["ok"] is False
            assert frame["error"]["code"] == "bad_request"
            assert "unknown request kind 'all_pairs'" in frame["error"]["message"]
        finally:
            channel.close()

    def test_blank_lines_are_ignored(self, server):
        channel = raw_connection(server)
        try:
            channel.send_line("")
            channel.send_line("   ")
            channel.send_line('{"v":2,"id":9,"kind":"ping"}')
            frame = json.loads(channel.read_line())
            assert frame["id"] == 9 and frame["ok"] is True
        finally:
            channel.close()

    def test_concurrent_connections_hammering_one_dataset(self, server):
        expected = None
        with SimRankClient(address=str(server.address)) as warm:
            warm.open_dataset("GrQc")
            expected = warm.single_source("GrQc", 0)
        errors: list = []

        def hammer() -> None:
            try:
                client = SimRankClient(address=str(server.address))
                for _ in range(5):
                    assert client.single_source("GrQc", 0, chunk_size=7) == expected
                    assert client.ping()["pong"] is True
                client.close()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestPingStaysResponsive:
    def test_ping_answered_while_executor_is_busy(self):
        """Pings bypass the shared executor: a health probe must round-trip
        while the only worker thread is deep in a long query, or the pool's
        health checker would kill a merely-busy worker mid-request."""
        service = make_service()
        started = threading.Event()
        release = threading.Event()
        original = service.execute

        def slow_execute(request, *, backend=None):
            started.set()
            release.wait(timeout=60)
            return original(request, backend=backend)

        service.execute = slow_execute
        server = SocketServer(
            ParallelExecutor(service, workers=1),
            address=Address(family="tcp", host="127.0.0.1", port=0),
        )
        server.start()
        try:
            busy = raw_connection(server)
            busy.send_line(
                '{"v":2,"id":1,"kind":"single_pair","dataset":"GrQc",'
                '"node_u":1,"node_v":2}'
            )
            assert started.wait(timeout=30)
            probe = raw_connection(server)
            probe.settimeout(5.0)  # a queued-behind-the-query ping trips this
            try:
                probe.send_line('{"v":2,"id":"health","kind":"ping"}')
                frame = json.loads(probe.read_line())
                assert frame["ok"] is True and frame["value"]["pong"] is True
            finally:
                probe.close()
            release.set()
            frame = json.loads(busy.read_line())
            assert frame["id"] == 1
            busy.close()
        finally:
            release.set()
            server.stop()


class TestChannelAndAddress:
    def test_parse_address_forms(self):
        assert parse_address("127.0.0.1:7077").port == 7077
        assert parse_address("tcp:localhost:0").family == "tcp"
        assert parse_address("unix:/tmp/x.sock").path == "/tmp/x.sock"
        assert parse_address("/tmp/y.sock").family == "unix"
        with pytest.raises(ValueError):
            parse_address("")
        with pytest.raises(ValueError):
            parse_address("localhost:99999")
        with pytest.raises(ValueError):
            parse_address("unix:")

    def test_line_channel_roundtrip_and_oversize(self):
        left, right = socket.socketpair()
        sender = LineChannel(left)
        receiver = LineChannel(right, max_line_bytes=64)
        try:
            sender.send_line("short")
            assert receiver.read_line() == "short"
            sender.send_line("y" * 500)
            sender.send_line("after")
            with pytest.raises(OversizedLineError):
                receiver.read_line()
            assert receiver.read_line() == "after"  # realigned post-discard
            left.close()
            assert receiver.read_line() is None  # EOF
        finally:
            sender.close()
            receiver.close()

    def test_oversized_discard_resumes_after_timeout(self):
        left, right = socket.socketpair()
        receiver = LineChannel(right, max_line_bytes=64)
        try:
            receiver.settimeout(0.2)
            left.sendall(b"x" * 500)  # oversized, newline not yet sent
            with pytest.raises(socket.timeout):
                receiver.read_line()  # discard interrupted mid-line
            left.sendall(b"tail-of-the-oversized-line\n")
            left.sendall(b"after\n")
            # The resumed discard still reports the frame-limit breach and
            # must NOT surface the oversized line's tail as a frame.
            with pytest.raises(OversizedLineError):
                receiver.read_line()
            assert receiver.read_line() == "after"
        finally:
            left.close()
            receiver.close()

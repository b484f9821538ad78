"""`Router` + `WorkerPool`: sharded serving parity and failover.

The router fronts real ``repro serve --unix`` worker processes, so these
tests exercise the full stack: spawn, hello, per-dataset sharding,
control-plane fan-out/merge, what the router decides itself (the
per-worker in-flight cap, spent deadlines, pipelined ordering), and — the
point of the subsystem — a
SIGKILLed worker whose in-flight requests resolve to ``unavailable``
error envelopes (never a hang) and whose replacement, re-warmed with the
replayed open datasets, answers the very same client connection.
"""

from __future__ import annotations

import base64
import json
import os
import signal
import threading
import time

import pytest
import test_client

from repro.engine import ENGINE_TOTAL_COUNTERS, merge_statistics_totals
from repro.service import (
    Address,
    HashRing,
    ListDatasetsRequest,
    ParallelExecutor,
    PingRequest,
    Router,
    SimRankClient,
    SinglePairQuery,
    SingleSourceQuery,
    StatsRequest,
    TopKQuery,
    WorkerPool,
)
from repro.service.net.channel import LineChannel

#: Worker processes are configured exactly like the shared parity scenario.
SERVE_ARGS = [
    "--scale", str(test_client.SCALE),
    "--epsilon", str(test_client.EPSILON),
    "--seed", str(test_client.SEED),
    "--mc-walks", str(test_client.MC_WALKS),
    "--backend", "sling",
]


def start_router(
    workers: int = 2,
    *,
    pins: dict | None = None,
    health_interval: float = 0.5,
    request_timeout: float = 60.0,
    max_inflight: int | None = None,
    serve_args: list[str] = SERVE_ARGS,
) -> tuple[WorkerPool, Router]:
    pool = WorkerPool(
        workers, serve_args=serve_args, health_interval=health_interval
    )
    pool.start()
    router = Router(
        pool,
        address=Address(family="tcp", host="127.0.0.1", port=0),
        pins=pins,
        request_timeout=request_timeout,
        max_inflight=max_inflight,
    )
    router.start()
    return pool, router


def converse(
    router: Router, lines: list[str], responses: int, *, timeout: float = 60.0
) -> list[dict]:
    """Write ``lines`` in one ``sendall`` on one router connection, then
    read the hello and ``responses`` response frames."""
    sock = router.address.connect(timeout=10.0)
    sock.sendall(("\n".join(lines) + "\n").encode("utf-8"))
    channel = LineChannel(sock)
    channel.settimeout(timeout)
    try:
        assert json.loads(channel.read_line())["frame"] == "hello"
        return [json.loads(channel.read_line()) for _ in range(responses)]
    finally:
        channel.close()


def request_line(request, **envelope) -> str:
    return json.dumps({"v": 2, **envelope, **request.to_wire()})


class TestHashRing:
    def test_lookup_is_deterministic_and_case_insensitive(self):
        ring = HashRing(4)
        assert ring.lookup("GrQc") == ring.lookup("grqc") == ring.lookup("GRQC")
        assert ring.lookup("AS") == HashRing(4).lookup("AS")

    def test_every_worker_owns_something_eventually(self):
        ring = HashRing(3)
        owners = {ring.lookup(f"dataset-{i}") for i in range(64)}
        assert owners == {0, 1, 2}

    def test_pins_override_the_ring(self):
        pool_free_keys = ["GrQc", "AS"]
        ring = HashRing(2)
        natural = {key: ring.lookup(key) for key in pool_free_keys}
        pool, router = start_router(
            2, pins={name: 1 - owner for name, owner in natural.items()}
        )
        try:
            for name, owner in natural.items():
                assert router.shard_for(name) == 1 - owner
        finally:
            router.stop()


class TestRouterParity:
    def test_scenario_matches_in_process_through_two_workers(self):
        with test_client.make_client("in_process") as local:
            local_record = test_client.run_scenario(local)
        pool, router = start_router(2)
        try:
            remote = SimRankClient(address=str(router.address))
            remote_record = test_client.run_scenario(remote)
            remote.close()
            # The scenario's shutdown broadcast stopped router and workers.
            assert router.wait(timeout=60)
            for worker in pool._workers:
                assert worker.process.poll() is not None
        finally:
            router.stop()
        test_client.assert_records_identical(local_record, remote_record)

    def test_fan_out_merges_datasets_across_workers(self):
        # Pin the two datasets to different workers so list/stats really
        # merge across processes.
        pool, router = start_router(2, pins={"GrQc": 0, "AS": 1})
        try:
            client = SimRankClient(address=str(router.address))
            client.open_dataset("GrQc")
            client.open_dataset("AS")
            assert router.shard_for("GrQc") != router.shard_for("AS")
            assert client.list_datasets() == ["GrQc", "AS"]
            client.single_pair("GrQc", 1, 2)
            client.single_pair("AS", 1, 2)
            stats = client.stats()
            assert set(stats["datasets"]) == {"GrQc", "AS"}
            assert stats["totals"]["total_queries"] == 2
            percentiles = stats["totals"]["latency_percentiles"]
            assert percentiles["single_pair"]["count"] == 2
            # The fan-out merge must account for *every* engine counter —
            # the totals used to drop cache_evictions.
            engine_dicts = [
                engine_stats
                for detail in stats["datasets"].values()
                for engine_stats in detail["engines"].values()
            ]
            for counter in ENGINE_TOTAL_COUNTERS:
                summed = sum(engine_stats[counter] for engine_stats in engine_dicts)
                assert stats["totals"][counter] == summed, counter
            # The histogram too: the totals' buckets are the sum of the
            # workers' buckets, and the percentiles are read off that sum.
            summed_buckets: dict = {}
            for engine_stats in engine_dicts:
                for kind, by_outcome in engine_stats["latency_histogram"].items():
                    for outcome, pairs in by_outcome.items():
                        for bucket, count in pairs:
                            key = (kind, outcome, bucket)
                            summed_buckets[key] = summed_buckets.get(key, 0) + count
            totals_buckets = {
                (kind, outcome, bucket): count
                for kind, by_outcome in stats["totals"]["latency_histogram"].items()
                for outcome, pairs in by_outcome.items()
                for bucket, count in pairs
            }
            assert totals_buckets == summed_buckets
            assert sum(summed_buckets.values()) == 2
            merged = merge_statistics_totals(engine_dicts)
            for view in ("latency_percentiles", "latency_percentiles_by_outcome"):
                assert stats["totals"][view] == merged[view]
            assert client.describe()["datasets"] == ["GrQc", "AS"]
            client.close_dataset("AS")
            assert client.list_datasets() == ["GrQc"]
            client.close()
        finally:
            router.stop()

    def test_workers_streaming_default_applies_to_router_connections(self):
        pool, router = start_router(
            1, serve_args=[*SERVE_ARGS, "--chunk-size", "3"]
        )
        query = SingleSourceQuery("GrQc", 0)
        try:
            (streamed,) = converse(router, [request_line(query, id=1)], 1)
            (whole,) = converse(
                router, [request_line(query, id=2, chunk_size=50)], 1
            )
        finally:
            router.stop()
        # Without a chunk_size of its own a request streams at the workers'
        # --chunk-size, as it would from a worker; its own chunk_size wins.
        assert streamed["frame"] == "partial"
        # Three int32 ids: 12 bytes, 16 base64 characters.
        assert len(base64.b64decode(streamed["value"]["index"])) == 3 * 4
        assert "frame" not in whole and whole["ok"] is True


    def test_retired_all_pairs_is_a_bad_request(self):
        pool, router = start_router(1)
        try:
            (reply,) = converse(
                router, ['{"v":2,"id":1,"kind":"all_pairs","dataset":"GrQc"}'], 1
            )
        finally:
            router.stop()
        assert reply["id"] == 1 and reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"
        assert "unknown request kind 'all_pairs'" in reply["error"]["message"]


class TestFailover:
    def test_sigkilled_worker_yields_error_envelopes_then_recovers(self):
        pool, router = start_router(2, pins={"GrQc": 0, "AS": 1})
        try:
            client = SimRankClient(address=str(router.address))
            client.open_dataset("GrQc")
            client.open_dataset("AS")
            baseline = client.single_pair("GrQc", 1, 2)

            victim = pool._workers[0].process
            # Freeze the victim so a request is in flight when it dies.
            os.kill(victim.pid, signal.SIGSTOP)
            results = []
            worker = threading.Thread(
                target=lambda: results.append(
                    client.execute(SinglePairQuery("GrQc", 1, 2))
                )
            )
            worker.start()
            time.sleep(0.3)
            os.kill(victim.pid, signal.SIGKILL)
            worker.join(timeout=60)
            assert not worker.is_alive(), "in-flight request hung"
            (result,) = results
            assert result.ok is False
            assert result.error.code == "unavailable"

            # The other shard keeps answering the same client meanwhile.
            assert client.single_pair("AS", 1, 2) >= 0.0

            # The health loop restarts the worker and replays its open
            # datasets; the same connection then succeeds again.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and pool.restart_counts()[0] == 0:
                time.sleep(0.1)
            assert pool.restart_counts()[0] == 1
            deadline = time.monotonic() + 60
            recovered = None
            while time.monotonic() < deadline:
                retry = client.execute(SinglePairQuery("GrQc", 1, 2))
                if retry.ok:
                    recovered = retry
                    break
                assert retry.error.code == "unavailable"  # never a hang
                time.sleep(0.2)
            assert recovered is not None, "worker never recovered"
            assert recovered.value == baseline  # same config, same answer
            assert client.list_datasets() == ["GrQc", "AS"]  # state replayed
            client.close()
        finally:
            router.stop()

    def test_replay_continues_past_a_failed_dataset(self, monkeypatch):
        """One dataset failing to replay must not abandon the rest: the
        restarted worker still gets warmed with every later dataset."""
        import test_socket_server

        from repro.service import client as client_module
        from repro.service.net.channel import LineChannel

        service = test_socket_server.make_service()
        worker = test_socket_server.SocketServer(
            ParallelExecutor(service, workers=1),
            address=Address(family="tcp", host="127.0.0.1", port=0),
        )
        worker.start()

        class _StubPool:
            count = 1
            chunk_size = None
            on_restart = None

            def worker_address(self, index):
                return worker.address

        router = Router(
            _StubPool(), address=Address(family="tcp", host="127.0.0.1", port=0)
        )
        sends = {"count": 0}

        class FlakyChannel(LineChannel):
            def send_line(self, line):
                sends["count"] += 1
                if sends["count"] == 1:
                    raise OSError("injected replay failure")
                super().send_line(line)

        # The router reaches workers through the client's socket transport.
        monkeypatch.setattr(client_module, "LineChannel", FlakyChannel)
        try:
            router._dispatcher.record_open("AS")  # replay of this one fails ...
            router._dispatcher.record_open("GrQc")  # ... this one must still warm
            router._dispatcher.replay_open_datasets(0)
            assert sends["count"] >= 2, "replay stopped at the first failure"
            assert service.list_datasets() == ["GrQc"]
        finally:
            router.stop(stop_pool=False)
            worker.stop()

    def test_shutdown_stops_router_and_all_workers(self):
        pool, router = start_router(2)
        try:
            client = SimRankClient(address=str(router.address))
            assert client.ping()["pong"] is True
            assert client.shutdown() == {"stopping": True}
            assert router.wait(timeout=60)
            for worker in pool._workers:
                assert worker.process.poll() is not None
            for worker in pool._workers:
                assert not os.path.exists(worker.address.path)
        finally:
            router.stop()


class TestAdmission:
    """What the router decides itself, before any worker sees a request."""

    def test_a_worker_at_its_inflight_cap_sheds_with_overloaded(self):
        pool, router = start_router(1, max_inflight=1)
        try:
            holder = SimRankClient(address=str(router.address))
            holder.open_dataset("GrQc")
            other = SimRankClient(address=str(router.address))
            victim = pool._workers[0].process
            held = []
            thread = threading.Thread(
                target=lambda: held.append(
                    holder.execute(SinglePairQuery("GrQc", 1, 2))
                )
            )
            # Freeze the worker so the first request stays in flight.
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                thread.start()
                time.sleep(0.5)  # the held request now owns the only slot
                shed = other.execute(SinglePairQuery("GrQc", 1, 2))
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            thread.join(timeout=60)
            assert not thread.is_alive(), "held request hung"
            assert shed.ok is False
            assert shed.error.code == "overloaded"
            (answer,) = held
            assert answer.ok
            # The slot was released: the next request goes through.
            assert other.execute(SinglePairQuery("GrQc", 1, 2)).ok
            holder.close()
            other.close()
        finally:
            router.stop()

    def test_a_cap_above_one_is_reached_and_sheds(self):
        """Every request a connection has read takes its slot at once, so
        the cap is reached however many are held — 17 here, one per
        connection — and the next request is shed, not queued."""
        cap = 17
        pool, router = start_router(1, max_inflight=cap)
        held = []
        try:
            SimRankClient(address=str(router.address)).open_dataset("GrQc")
            victim = pool._workers[0].process
            line = request_line(SinglePairQuery("GrQc", 1, 2), id="held")
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                for _ in range(cap):
                    sock = router.address.connect(timeout=10.0)
                    sock.sendall((line + "\n").encode("utf-8"))
                    held.append(LineChannel(sock))
                time.sleep(0.5)  # every held request now owns a slot
                (shed,) = converse(
                    router,
                    [request_line(SinglePairQuery("GrQc", 1, 2), id="probe")],
                    1,
                    timeout=10.0,
                )
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            assert shed["id"] == "probe"
            assert shed["ok"] is False
            assert shed["error"]["code"] == "overloaded"
            assert f"({cap})" in shed["error"]["message"]
            for channel in held:  # each held request is answered, no hang
                channel.settimeout(60.0)
                assert json.loads(channel.read_line())["frame"] == "hello"
                assert json.loads(channel.read_line())["id"] == "held"
        finally:
            for channel in held:
                channel.close()
            router.stop()

    def test_a_deadline_spent_at_the_router_is_never_forwarded(self):
        pool, router = start_router(1)
        try:
            client = SimRankClient(address=str(router.address))
            client.open_dataset("GrQc")
            victim = pool._workers[0].process
            # A frozen worker would hold a forwarded request for the whole
            # 60 s request timeout; the answer must come from the router.
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                (late,) = converse(
                    router,
                    [request_line(
                        SinglePairQuery("GrQc", 1, 2),
                        id="late",
                        deadline_ms=1e-6,
                    )],
                    1,
                    timeout=10.0,
                )
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            assert late["id"] == "late"
            assert late["ok"] is False
            assert late["kind"] == "single_pair"
            assert late["dataset"] == "GrQc"
            assert late["error"]["code"] == "deadline_exceeded"
            assert "router" in late["error"]["message"]
            assert client.single_pair("GrQc", 1, 2) >= 0.0
            client.close()
        finally:
            router.stop()

    def test_pipelined_requests_are_answered_in_order(self):
        pool, router = start_router(2, pins={"GrQc": 0, "AS": 1})
        try:
            client = SimRankClient(address=str(router.address))
            client.open_dataset("GrQc")
            client.open_dataset("AS")
            requests = [
                SinglePairQuery("GrQc", 1, 2),
                TopKQuery("AS", node=1, k=3),
                PingRequest(),
                SingleSourceQuery("AS", 2),
                ListDatasetsRequest(),
                SinglePairQuery("AS", 1, 2),
                StatsRequest(),
                TopKQuery("GrQc", node=2, k=2),
                SingleSourceQuery("GrQc", 0),
            ]
            ids = [f"r{index}" for index in range(len(requests))]
            frames = converse(
                router,
                [request_line(r, id=i) for r, i in zip(requests, ids)],
                len(requests),
            )
            assert [frame["id"] for frame in frames] == ids
            assert [frame["kind"] for frame in frames] == [
                request.kind for request in requests
            ]
            assert all(frame["ok"] is True for frame in frames)
            assert frames[4]["value"]["datasets"] == ["GrQc", "AS"]
            client.close()
        finally:
            router.stop()


@pytest.mark.parametrize("spec", ["GrQc=2", "nope", "=1"])
def test_cli_rejects_bad_pins(spec):
    from repro.cli import main

    if spec == "GrQc=2":
        # Syntactically fine but out of the worker range: the Router raises
        # and the CLI reports it — exercised at the library layer here to
        # avoid spawning workers.
        pool = WorkerPool(1, serve_args=SERVE_ARGS)
        with pytest.raises(ValueError):
            Router(
                pool,
                address=Address(family="tcp", host="127.0.0.1", port=0),
                pins={"GrQc": 2},
            )
    else:
        assert main(["router", "--workers", "1", "--pin", spec]) == 2


class TestMutationRouting:
    """``mutate`` requests forward to the owning shard, and the
    ``index_version`` echo stays truthful under a mutation storm.

    The invariant under concurrency: a response's stamp may trail the
    served value's true version (a mutation raced the query) but must
    never lead it — a pre-mutation cached vector stamped with the
    post-mutation version would be indistinguishable from a fresh answer.
    """

    def test_mutation_storm_never_misstamps_cached_values(self):
        pool, router = start_router(2, pins={"GrQc": 0, "AS": 1})
        try:
            client = SimRankClient(address=str(router.address))
            client.open_dataset("GrQc")
            client.open_dataset("AS")
            sources = [1, 2, 3]

            # canon[(source, version)] — measured with no mutation in
            # flight, so the echo must be exact.
            canon = {}
            for source in sources:
                result = client.execute(SingleSourceQuery("GrQc", source))
                assert result.ok and result.index_version is None
                canon[(source, 0)] = tuple(result.value.tolist())

            records: list[list] = [[], []]
            errors: list[object] = []
            stop = threading.Event()

            def hammer(slot: int) -> None:
                try:
                    mine = SimRankClient(address=str(router.address))
                    while not stop.is_set():
                        for source in sources:
                            result = mine.execute(
                                SingleSourceQuery("GrQc", source)
                            )
                            if not result.ok:
                                errors.append(result.error)
                                continue
                            records[slot].append(
                                (
                                    source,
                                    result.index_version or 0,
                                    tuple(result.value.tolist()),
                                )
                            )
                    mine.close()
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()

            num_mutations = 3
            try:
                for step in range(1, num_mutations + 1):
                    ack = client.mutate("GrQc", add=[(step, step + 10)])
                    assert ack["index_version"] == step
                    # Serialized checkpoint: no mutation in flight, so the
                    # echo must be exactly the acked version.
                    for source in sources:
                        result = client.execute(
                            SingleSourceQuery("GrQc", source)
                        )
                        assert result.ok
                        assert result.index_version == step
                        canon[(source, step)] = tuple(result.value.tolist())
                    time.sleep(0.2)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()

            assert not errors, errors

            for slot in range(2):
                versions = [version for _, version, _ in records[slot]]
                # Per-connection echoes never go backwards or ahead.
                assert versions == sorted(versions)
                assert all(0 <= v <= num_mutations for v in versions)
                for source, version, value in records[slot]:
                    current_or_newer = {
                        canon[(source, v)]
                        for v in range(version, num_mutations + 1)
                    }
                    older = {
                        canon[(source, v)] for v in range(version)
                    } - current_or_newer
                    # A value matching only pre-stamp generations is a
                    # stale cached vector passed off under a new version.
                    assert value not in older, (source, version)

            # The storm actually changed what the index serves.
            assert any(
                canon[(source, 0)] != canon[(source, num_mutations)]
                for source in sources
            )

            # The other shard's dataset was never mutated: no stamp, and
            # the router's merged stats report the mutated version only
            # for the owning shard's dataset.
            untouched = client.execute(SinglePairQuery("AS", 1, 2))
            assert untouched.ok and untouched.index_version is None
            stats = client.stats()
            assert stats["datasets"]["GrQc"]["index_version"] == num_mutations
            assert stats["datasets"]["AS"]["index_version"] == 0
            assert client.describe()["datasets"] == ["GrQc", "AS"]
            client.close()
        finally:
            router.stop()

"""`SimRankClient` parity: the in-process and socket transports agree.

The shared scenario drives every query kind and every control operation
through every transport with identical settings and asserts the *values*
are identical (timing fields are normalised away — they are the only
thing allowed to differ).  The socket half spawns a real ``repro serve
--unix`` child through ``SimRankClient.connect`` (select it with
``-k socket``); the tcp half starts ``repro serve --listen 127.0.0.1:0``,
reads its ``listening`` announce and attaches with
``SimRankClient(address=...)`` (``-k tcp``); and
``tests/service/test_router.py`` reuses the scenario against a
multi-worker router.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import BackendConfig
from repro.graphs import datasets
from repro.service import (
    Address,
    Router,
    ServiceConfig,
    ServiceError,
    SimRankClient,
    SingleSourceQuery,
    SparseScores,
    TopKQuery,
    WorkerPool,
)
from repro.sling import SlingIndex

#: Settings shared by both transports — must stay in lockstep so values
#: are reproducible across processes.
SCALE, EPSILON, SEED, MC_WALKS = 0.05, 0.1, 0, 30

#: Timing keys normalised away before parity comparison; everything else
#: must match exactly.
TIMING_KEYS = {
    "seconds",
    "total_seconds",
    "recent_queries",
    "latency_percentiles",
    "latency_percentiles_by_outcome",
}


def make_client(transport: str) -> SimRankClient:
    if transport == "in_process":
        return SimRankClient.in_process(
            config=ServiceConfig(
                scale=SCALE,
                seed=SEED,
                backend_config=BackendConfig(
                    epsilon=EPSILON, seed=SEED, mc_num_walks=MC_WALKS
                ),
            )
        )
    return SimRankClient.connect(
        scale=SCALE, epsilon=EPSILON, seed=SEED, mc_walks=MC_WALKS
    )


def spawn_tcp_server() -> tuple[subprocess.Popen, str]:
    """Start ``repro serve --listen 127.0.0.1:0`` with the shared settings;
    return the child and the address its ``listening`` announce names."""
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src_dir]
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--scale", str(SCALE), "--epsilon", str(EPSILON),
            "--seed", str(SEED), "--mc-walks", str(MC_WALKS),
        ],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    ready, _, _ = select.select([process.stdout], [], [], 60)
    announce = json.loads(process.stdout.readline()) if ready else None
    if not announce or announce.get("frame") != "listening":
        stop_server(process)
        raise RuntimeError(f"repro serve --listen did not announce: {announce!r}")
    return process, announce["address"]


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM a server child (a no-op once it has shut down), then reap it."""
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


@contextlib.contextmanager
def open_client(transport: str):
    """A client on ``transport`` (``make_client``'s, or ``"tcp"``: attached
    by address to a ``repro serve --listen`` child this stops afterwards)."""
    if transport != "tcp":
        with make_client(transport) as client:
            yield client
        return
    process, address = spawn_tcp_server()
    try:
        with SimRankClient(address=address) as client:
            yield client
    finally:
        stop_server(process)


def normalize(value):
    """Strip timing fields recursively; all other structure must match."""
    if isinstance(value, dict):
        return {
            key: normalize(item)
            for key, item in value.items()
            if key not in TIMING_KEYS
        }
    if isinstance(value, list):
        return [normalize(item) for item in value]
    return value


def assert_top_k_shape(top) -> None:
    """The decoded ``top_k`` value every transport hands back: a list of
    ``{"rank", "node", "score"}`` dicts, ranked from 1, with ``int`` nodes
    and ``float`` scores (the shape ``perfbench/gate.py`` reads)."""
    assert type(top) is list and top
    for position, entry in enumerate(top):
        assert set(entry) == {"rank", "node", "score"}
        assert entry["rank"] == position + 1 and type(entry["rank"]) is int
        assert type(entry["node"]) is int and type(entry["score"]) is float


def run_scenario(client: SimRankClient) -> list:
    """Every query kind and every control operation, in a fixed order."""
    record = []

    def step(label, value):
        record.append((label, normalize(value)))

    step("hello", client.hello())
    step("ping", client.ping())
    step("open", client.open_dataset("GrQc"))
    step("open-again", client.open_dataset("GrQc"))
    step("single_pair", client.single_pair("GrQc", 1, 2))
    unchunked = client.single_source("GrQc", 0)
    chunked = client.single_source("GrQc", 0, chunk_size=7)
    assert chunked == unchunked  # chunking must not change the answer
    step("single_source", unchunked)
    step("single_source-chunked", chunked)
    top = client.top_k("GrQc", 3, 5)
    assert_top_k_shape(top)
    step("top_k", top)
    step("list", client.list_datasets())
    step("describe-service", client.describe())
    step("describe-dataset", client.describe("GrQc"))
    step("stats", client.stats())
    step("close", client.close_dataset("GrQc"))
    step("close-again", client.close_dataset("GrQc"))

    # Error envelopes must be identical too (codes and messages).
    missing = client.execute(TopKQuery("NoSuchDataset", node=0, k=3))
    step("error-unknown-dataset", (missing.ok, missing.error.code))
    out_of_range = client.execute(TopKQuery("GrQc", node=10**9, k=3))
    step("error-out-of-range", (out_of_range.ok, out_of_range.error.code,
                                out_of_range.error.message))

    step("shutdown", client.shutdown())
    return record


class TestTransportParity:
    def test_socket_transport_record_is_identical_too(self):
        with make_client("in_process") as local:
            local_record = run_scenario(local)
        with make_client("socket") as remote:
            remote_record = run_scenario(remote)
        assert_records_identical(local_record, remote_record)

    def test_tcp_transport_record_is_identical_too(self):
        with make_client("in_process") as local:
            local_record = run_scenario(local)
        with open_client("tcp") as remote:
            remote_record = run_scenario(remote)
        assert_records_identical(local_record, remote_record)

    def test_scenario_covers_every_kind(self):
        with make_client("in_process") as client:
            labels = {label for label, _ in run_scenario(client)}
        assert {"single_pair", "single_source", "top_k"} <= labels
        assert {"ping", "open", "close", "list", "stats", "describe-service",
                "describe-dataset", "shutdown"} <= labels


@pytest.fixture(params=["in_process", "socket", "tcp", "router"])
def transport(request):
    """A client on every transport, a two-worker router included."""
    if request.param != "router":
        with open_client(request.param) as client:
            yield client
        return
    pool = WorkerPool(
        2,
        serve_args=[
            "--scale", str(SCALE), "--epsilon", str(EPSILON),
            "--seed", str(SEED), "--mc-walks", str(MC_WALKS),
        ],
    )
    pool.start()
    router = Router(pool, address=Address(family="tcp", host="127.0.0.1", port=0))
    router.start()
    client = SimRankClient(address=str(router.address))
    try:
        yield client
    finally:
        client.close()
        router.stop()


def reference_index(dataset: str) -> SlingIndex:
    """The index every transport's workers build for ``dataset``."""
    graph = datasets.load_dataset(dataset, scale=SCALE, seed=SEED)
    return SlingIndex(graph, c=BackendConfig().c, epsilon=EPSILON, seed=SEED).build()


class TestSingleSourceParity:
    """Every transport's densified ``single_source`` answer is bitwise the
    vector ``SlingIndex.single_source`` computes, chunked or not."""

    #: Sparse at this scale (median ~6 of 300 nodes nonzero, some sources
    #: score only themselves), so the nonzero encoding is exercised.
    DATASET = "Google"

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_index(self.DATASET)

    def test_densified_values_are_bitwise_the_index(self, transport, reference):
        nonzeros = []
        # Every third source: includes self-only node 18 and keeps the
        # router leg short.
        for node in range(0, reference.graph.num_nodes, 3):
            expected = reference.single_source(node).view(np.int64)
            unchunked = transport.execute(SingleSourceQuery(self.DATASET, node))
            chunked = transport.execute(
                SingleSourceQuery(self.DATASET, node), chunk_size=16
            )
            assert unchunked.ok and chunked.ok
            assert chunked.value == unchunked.value
            # ``==`` across transports: every one decodes the same columns.
            assert unchunked.value == SparseScores.from_dense(
                reference.single_source(node)
            )
            dense = np.asarray(unchunked.value, dtype=np.float64)
            assert np.array_equal(dense.view(np.int64), expected), node
            nonzeros.append(len(unchunked.value.index))
        assert min(nonzeros) == 1  # a self-only vector is in the sample
        assert max(nonzeros) > 16  # and some answers really were chunked


class TestTopKParity:
    """Every transport decodes a ``top_k`` answer's two columns into the
    same ranked entries, bitwise those ``SlingIndex.top_k`` ranks."""

    DATASET = "GrQc"
    K = 10

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_index(self.DATASET)

    def test_top_k_entries_are_the_index_ranking(self, transport, reference):
        for node in range(0, reference.graph.num_nodes, 25):
            top = transport.top_k(self.DATASET, node, self.K)
            assert_top_k_shape(top)
            expected = reference.top_k(node, self.K)
            assert [(e["node"], e["score"]) for e in top] == expected, node


def assert_records_identical(local_record, remote_record):
    """Same labels in the same order, identical values at every step —
    shared with the socket and router suites."""
    assert [label for label, _ in local_record] == [
        label for label, _ in remote_record
    ]
    for (label, local_value), (_, remote_value) in zip(
        local_record, remote_record
    ):
        assert local_value == remote_value, f"transports diverge at {label!r}"


@pytest.fixture(params=["in_process", "socket", "tcp"])
def client(request):
    with open_client(request.param) as instance:
        yield instance


class TestBorrowedService:
    """A caller-supplied service belongs to the caller, not the client."""

    def test_close_leaves_a_borrowed_services_sessions_alone(self):
        from repro.service import SimRankService

        service = SimRankService(ServiceConfig(scale=SCALE, seed=SEED))
        service.open_dataset("GrQc")
        with SimRankClient.in_process(service) as client:
            assert client.list_datasets() == ["GrQc"]
        assert service.list_datasets() == ["GrQc"]  # close() did not tear down

    def test_explicit_shutdown_still_tears_down(self):
        from repro.service import SimRankService

        service = SimRankService(ServiceConfig(scale=SCALE, seed=SEED))
        service.open_dataset("GrQc")
        client = SimRankClient.in_process(service)
        assert client.shutdown() == {"stopping": True}
        assert service.list_datasets() == []  # the caller asked for it
        client.close()

    def test_owned_service_is_torn_down_with_the_client(self):
        client = SimRankClient.in_process(
            config=ServiceConfig(scale=SCALE, seed=SEED)
        )
        client.open_dataset("GrQc")
        client.close()
        assert client.closed


class TestClientBehavior:
    """Per-transport behavior, for each transport."""

    def test_hello_advertises_protocol_and_backends(self, client):
        hello = client.hello()
        assert hello["protocol"] == 2
        assert "sling" in hello["backends"]
        assert hello["datasets"] == []
        assert "GrQc" in hello["registry"]

    def test_chunked_single_source_reassembles_exactly(self, client):
        unchunked = client.single_source("GrQc", 2)
        chunked = client.single_source("GrQc", 2, chunk_size=5)
        assert chunked == unchunked
        assert chunked.n == client.describe("GrQc")["num_nodes"]

    def test_value_helpers_raise_service_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.top_k("NoSuchDataset", 0, 3)
        assert excinfo.value.code == "unknown_dataset"
        assert excinfo.value.result.ok is False

    def test_shutdown_then_use_fails_cleanly(self, client):
        assert client.shutdown() == {"stopping": True}
        assert client.closed
        with pytest.raises(ServiceError):
            client.ping()

    def test_hello_is_a_connect_time_snapshot(self, client):
        # hello is the handshake, identically on every transport: opening a
        # dataset afterwards must not change it (live state is describe()).
        assert client.hello()["datasets"] == []
        client.open_dataset("GrQc")
        assert client.hello()["datasets"] == []
        assert client.describe()["datasets"] == ["GrQc"]

    def test_sessions_persist_between_calls(self, client):
        client.open_dataset("GrQc")
        client.single_pair("GrQc", 0, 1)
        stats = client.stats()
        assert stats["totals"]["total_queries"] == 1
        assert client.list_datasets() == ["GrQc"]

    def test_stats_expose_latency_percentiles(self, client):
        client.open_dataset("GrQc")
        for node in range(4):
            client.single_pair("GrQc", node, node + 1)
        percentiles = client.stats()["totals"]["latency_percentiles"]
        assert percentiles["single_pair"]["count"] == 4
        assert (
            percentiles["single_pair"]["p50"]
            <= percentiles["single_pair"]["p95"]
            <= percentiles["single_pair"]["p99"]
        )


class TestDeadChildMidRequest:
    """A server child dying mid-request must resolve the in-flight request
    to a structured ``unavailable`` envelope — never hang the caller on a
    socket read — and a child the client spawned must be reaped, leaving
    no zombie."""

    @pytest.mark.parametrize("transport", ["socket", "tcp"])
    def test_killed_child_surfaces_error_envelope_and_is_reaped(
        self, transport
    ):
        from repro.service import SinglePairQuery

        if transport == "socket":
            client = make_client("socket")
            process = client._transport._process
        else:
            process, address = spawn_tcp_server()
            client = SimRankClient(address=address)
        try:
            client.open_dataset("GrQc")
            # Freeze the child so the query is genuinely in flight (written,
            # unanswered) at the moment of death.
            os.kill(process.pid, signal.SIGSTOP)
            results = []
            worker = threading.Thread(
                target=lambda: results.append(
                    client.execute(SinglePairQuery("GrQc", 1, 2))
                )
            )
            worker.start()
            time.sleep(0.3)  # let the request reach the frozen child
            os.kill(process.pid, signal.SIGKILL)  # acts even while stopped
            worker.join(timeout=30)
            assert not worker.is_alive(), "request hung on a dead child"
            (result,) = results
            assert result.ok is False
            assert result.error.code == "unavailable"
            assert result.kind == "single_pair"
            assert result.dataset == "GrQc"
            if transport == "socket":
                assert process.poll() is not None  # reaped — no zombie left
            with pytest.raises(ServiceError):  # later calls fail fast
                client.ping()
        finally:
            client.close()
            if transport == "tcp":
                stop_server(process)  # a shared server's owner reaps it

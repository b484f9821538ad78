"""The mutation control-plane: ``mutate`` requests end to end.

Covers the wire shape of :class:`MutateRequest`, the in-place session
update (same engine object, version-scoped cache invalidation,
``index_version`` stamped on every subsequent answer), the re-freeze
path, and the full error mapping — including the read-only shared
``sling-disk`` rejection.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import BackendConfig
from repro.evaluation.faults import disk_full
from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.service import (
    ERROR_BAD_REQUEST,
    ERROR_NODE_OUT_OF_RANGE,
    ERROR_UNAVAILABLE,
    ERROR_UNKNOWN_DATASET,
    MutateRequest,
    ServiceConfig,
    SimRankClient,
    SimRankService,
    SingleSourceQuery,
    control_from_wire,
    request_from_wire,
)
from repro.sling import SlingIndex, save_index

CONFIG = ServiceConfig(
    scale=0.05, backend="sling", backend_config=BackendConfig(epsilon=0.1, seed=0)
)


@pytest.fixture()
def service():
    return SimRankService(CONFIG)


@pytest.fixture()
def toy_service():
    """A service with an attached 30-node community graph called ``toy``."""
    service = SimRankService(CONFIG)
    service.open_dataset("toy", graph=generators.two_level_community(3, 10, seed=7))
    return service


class TestMutateRequest:
    def test_normalizes_edge_lists(self):
        request = MutateRequest(dataset="toy", add=[[0, 1], (2, 3)], remove=[(4, 5)])
        assert request.add == ((0, 1), (2, 3))
        assert request.remove == ((4, 5),)
        assert request.refreeze is False

    def test_wire_round_trip(self):
        request = MutateRequest(
            dataset="toy", add=[(0, 1)], remove=[(2, 3)], refreeze=True
        )
        wire = json.loads(json.dumps(request.to_wire()))
        assert wire["kind"] == "mutate"
        assert control_from_wire(wire) == request
        assert request_from_wire(wire) == request

    def test_rejects_malformed_edges(self):
        with pytest.raises(ParameterError):
            MutateRequest(dataset="toy", add="0,1")
        with pytest.raises(ParameterError):
            MutateRequest(dataset="toy", add=[(0, 1, 2)])
        with pytest.raises(ParameterError):
            MutateRequest(dataset="toy", add=[(0, -1)])
        with pytest.raises(ParameterError):
            MutateRequest(dataset="toy", remove=[(True, 1)])
        with pytest.raises(ParameterError):
            MutateRequest(dataset="")


class TestMutationFlow:
    def test_mutation_ack_and_version_stamping(self, toy_service):
        service = toy_service
        # Warm the engine cache, and pin the pre-mutation serving state.
        before = service.execute(SingleSourceQuery("toy", 17))
        assert before.ok and before.index_version is None
        assert "index_version" not in before.to_wire()

        result = service.execute_control(MutateRequest(dataset="toy", add=[(0, 17)]))
        assert result.ok, result.error
        ack = result.value
        assert ack["index_version"] == 1
        assert ack["edges_added"] == 1
        assert ack["edges_removed"] == 0
        assert ack["epsilon_stale"] == pytest.approx(0.2)  # 2 * epsilon
        assert ack["backend"] == "sling"
        assert ack["refrozen"] is False
        assert result.index_version == 1

        after = service.execute(SingleSourceQuery("toy", 17))
        assert after.ok
        assert after.index_version == 1
        assert after.to_wire()["index_version"] == 1
        assert not np.array_equal(after.value, before.value)

    def test_same_engine_keeps_serving_with_scoped_invalidation(self, toy_service):
        service = toy_service
        session = service.open_dataset("toy")
        engine = session.engine()
        service.execute(SingleSourceQuery("toy", 17))
        service.execute_control(MutateRequest(dataset="toy", add=[(0, 17)]))
        assert session.engine() is engine
        assert engine.statistics.cache_invalidations >= 1
        assert engine.index_version == 1
        assert session.index_version == 1

    def test_statistics_and_describe_surface_the_version(self, toy_service):
        service = toy_service
        service.execute_control(MutateRequest(dataset="toy", add=[(0, 17)]))
        assert service.statistics()["datasets"]["toy"]["index_version"] == 1
        assert service.describe("toy")["index_version"] == 1

    @pytest.mark.parametrize("label", [None, "auto", "sling"])
    def test_statistics_count_each_query_once_after_a_mutation(self, label):
        # The default backend label, its "auto" alias and the explicit pin
        # must all land on the one mutated engine, listed once.
        service = SimRankService(
            ServiceConfig(backend_config=BackendConfig(epsilon=0.1, seed=0))
        )
        service.open_dataset("toy", graph=generators.two_level_community(3, 10, seed=7))
        for node in range(3):
            service.execute(SingleSourceQuery("toy", node), backend=label)
        service.execute_control(MutateRequest(dataset="toy", add=[(0, 17)]))
        service.execute(SingleSourceQuery("toy", 4), backend=label)
        stats = service.statistics()
        assert list(stats["datasets"]["toy"]["engines"]) == ["sling"]
        assert stats["totals"]["total_queries"] == 4

    def test_refreeze_clears_staleness(self, toy_service):
        service = toy_service
        service.execute_control(MutateRequest(dataset="toy", add=[(0, 17)]))
        result = service.execute_control(MutateRequest(dataset="toy", refreeze=True))
        assert result.ok
        ack = result.value
        assert ack["refrozen"] is True
        assert ack["index_version"] == 2
        assert ack["epsilon_stale"] == 0.0
        query = service.execute(SingleSourceQuery("toy", 17))
        assert query.index_version == 2

    def test_client_convenience_method(self, toy_service):
        with SimRankClient.in_process(toy_service) as client:
            ack = client.mutate("toy", add=[(0, 17)])
            assert ack["index_version"] == 1
            assert ack["edges_added"] == 1


class TestServingGenerationOwnsTheVersion:
    """The SLING index's serving generation is the one owner of a session's
    ``index_version`` and graph: the session, the engine, the backend, the
    ack and the next answer's echo read it and never disagree."""

    SOURCES = 8

    @staticmethod
    def open_toy(wal_dir) -> SimRankService:
        service = SimRankService(replace(CONFIG, wal_dir=str(wal_dir)))
        service.open_dataset("toy", graph=generators.two_level_community(3, 10, seed=7))
        return service

    def assert_one_version(self, service, version):
        session = service.open_dataset("toy")
        engine = session.engine("sling")
        answer = service.execute(SingleSourceQuery("toy", 3))
        assert answer.ok, answer.error
        assert session.index_version == version
        assert engine.index_version == version
        assert engine.backend.index_version == version
        assert (answer.index_version or 0) == version
        assert service.statistics()["datasets"]["toy"]["index_version"] == version
        assert service.describe("toy")["engines"]["sling"]["index_version"] == version
        assert session.graph is engine.backend.graph
        # Quiesced, every cached vector is the one the generation computes.
        for node in range(self.SOURCES):
            assert np.array_equal(
                engine.single_source(node), engine.backend.single_source(node)
            )

    def test_one_version_under_readers_a_writer_a_rollback_and_recovery(
        self, tmp_path
    ):
        service = self.open_toy(tmp_path)
        stop = threading.Event()
        echoed: list[list[int]] = [[] for _ in range(4)]
        failures: list[object] = []

        def reader(slot: int) -> None:
            rng = np.random.default_rng(slot)
            while not stop.is_set():
                node = int(rng.integers(0, self.SOURCES))
                result = service.execute(SingleSourceQuery("toy", node))
                if result.ok:
                    echoed[slot].append(result.index_version or 0)
                else:
                    failures.append(result.error)

        readers = [threading.Thread(target=reader, args=(slot,)) for slot in range(4)]
        for thread in readers:
            thread.start()
        acks = []
        try:
            for step in range(6):
                result = service.execute_control(
                    MutateRequest(
                        dataset="toy",
                        add=[(step, 17 + step)],
                        refreeze=step % 3 == 2,
                        mutation_id=f"m-{step}",
                    )
                )
                assert result.ok, result.error
                assert result.index_version == result.value["index_version"]
                acks.append(result.value["index_version"])
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not failures
        for versions in echoed:
            assert versions, "a reader answered nothing"
            assert versions == sorted(versions), "an echoed version went back"
        assert acks == [1, 2, 4, 5, 6, 8]
        assert service.open_dataset("toy").engine("sling").statistics.cache_hits > 0
        self.assert_one_version(service, 8)

        wal = service.wal_for("toy")
        with disk_full(wal, wal.stats()["bytes"]):
            failed = service.execute_control(
                MutateRequest(dataset="toy", add=[(6, 23)], mutation_id="df")
            )
        assert failed.error.code == ERROR_UNAVAILABLE
        # The apply and its rollback are two generations.
        self.assert_one_version(service, 10)
        retried = service.execute_control(
            MutateRequest(dataset="toy", add=[(6, 23)], mutation_id="df")
        )
        assert retried.ok, retried.error
        self.assert_one_version(service, retried.value["index_version"])

        recovered = self.open_toy(tmp_path)
        session = recovered.open_dataset("toy")
        assert session.graph.has_edge(6, 23)
        self.assert_one_version(recovered, session.index_version)
        ack = recovered.execute_control(MutateRequest(dataset="toy", add=[(7, 24)]))
        assert ack.ok, ack.error
        self.assert_one_version(recovered, ack.value["index_version"])


class TestErrorMapping:
    def test_unknown_dataset(self, service):
        result = service.execute_control(
            MutateRequest(dataset="NotADataset", add=[(0, 1)])
        )
        assert not result.ok
        assert result.error.code == ERROR_UNKNOWN_DATASET

    def test_out_of_range_edge(self, toy_service):
        result = service_result = toy_service.execute_control(
            MutateRequest(dataset="toy", add=[(0, 10_000)])
        )
        assert not result.ok
        assert service_result.error.code == ERROR_NODE_OUT_OF_RANGE
        assert "10000" in result.error.message

    def test_shared_disk_index_is_read_only(self, tmp_path):
        graph = generators.two_level_community(3, 10, seed=7)
        index = SlingIndex(graph, c=0.6, epsilon=0.1, seed=0).build()
        save_index(index, tmp_path / "toy")
        service = SimRankService(
            ServiceConfig(
                scale=0.05,
                backend="sling",
                index_dir=str(tmp_path),
                backend_config=BackendConfig(epsilon=0.1, seed=0),
            )
        )
        service.open_dataset("toy", graph=graph)
        result = service.execute_control(MutateRequest(dataset="toy", add=[(0, 17)]))
        assert not result.ok
        assert result.error.code == ERROR_BAD_REQUEST
        assert "read-only" in result.error.message

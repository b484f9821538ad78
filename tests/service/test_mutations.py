"""The mutation control-plane: ``mutate`` requests end to end.

Covers the wire shape of :class:`MutateRequest`, the in-place session
update (same engine object, version-scoped cache invalidation,
``index_version`` stamped on every subsequent answer), the re-freeze
path, and the full error mapping — including the read-only shared
``sling-disk`` rejection.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import BackendConfig
from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.service import (
    ERROR_BAD_REQUEST,
    ERROR_NODE_OUT_OF_RANGE,
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

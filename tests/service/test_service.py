"""Behavioural tests for :class:`SimRankService` and its dataset sessions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BackendConfig
from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.service import (
    ERROR_BAD_REQUEST,
    ERROR_NODE_OUT_OF_RANGE,
    ERROR_UNKNOWN_DATASET,
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    SparseScores,
    TopKQuery,
    decode_envelope,
)

#: Tiny, fast configuration shared by every test in this module.
CONFIG = ServiceConfig(
    scale=0.05, backend_config=BackendConfig(epsilon=0.1, seed=0)
)


@pytest.fixture()
def service():
    return SimRankService(CONFIG)


class TestSessions:
    def test_open_list_close(self, service):
        assert service.list_datasets() == []
        session = service.open_dataset("GrQc")
        assert session.graph.num_nodes > 0
        assert service.list_datasets() == ["GrQc"]
        assert service.close_dataset("GrQc") is True
        assert service.list_datasets() == []
        assert service.close_dataset("GrQc") is False

    def test_open_is_idempotent(self, service):
        assert service.open_dataset("GrQc") is service.open_dataset("GrQc")

    def test_dataset_names_resolve_case_insensitively(self, service):
        session = service.open_dataset("grqc")
        assert session.name == "GrQc"
        assert service.open_dataset("GRQC") is session

    def test_execute_opens_sessions_lazily(self, service):
        result = service.execute(SingleSourceQuery("GrQc", 0))
        assert result.ok
        assert service.list_datasets() == ["GrQc"]

    def test_attached_graph_session(self, service):
        graph = generators.two_level_community(2, 8, seed=1)
        session = service.open_dataset("toy", graph=graph)
        assert session.graph is graph
        result = service.execute(TopKQuery("toy", node=0, k=3))
        assert result.ok and len(result.value) == 3

    def test_conflicting_attached_graph_rejected(self, service):
        service.open_dataset("toy", graph=generators.cycle(8))
        with pytest.raises(ParameterError):
            service.open_dataset("toy", graph=generators.cycle(9))

    def test_unknown_dataset_without_graph_raises_on_open(self, service):
        with pytest.raises(ParameterError):
            service.open_dataset("NotADataset")

    def test_engines_shared_across_alias_spellings(self, service):
        session = service.open_dataset("GrQc")
        assert session.engine("MC") is session.engine("montecarlo")
        assert session.backends() == ["montecarlo"]

    def test_default_auto_and_sling_share_one_engine(self, service):
        first = service.execute(SingleSourceQuery("GrQc", 3))
        for label in ("auto", "sling", "SLING"):
            result = service.execute(SingleSourceQuery("GrQc", 3), backend=label)
            assert result.ok and result.cache_hit is True
            assert result.value == first.value
        session = service.open_dataset("GrQc")
        assert session.backends() == ["sling"]
        assert (
            session.engine()
            is session.engine("auto")
            is session.engine("sling")
            is session.engine("SLING")
        )

    def test_close_all(self, service):
        service.open_dataset("GrQc")
        service.open_dataset("AS")
        service.close_all()
        assert service.list_datasets() == []


class TestExecute:
    def test_single_pair_value_matches_engine(self, service):
        session = service.open_dataset("GrQc")
        expected = session.engine().single_pair(3, 5)
        result = service.execute(SinglePairQuery("GrQc", 3, 5))
        assert result.ok
        assert result.value == pytest.approx(expected)
        assert result.kind == "single_pair"
        assert result.dataset == "GrQc"
        assert result.backend == "sling"
        assert result.seconds >= 0.0
        assert result.error is None

    def test_single_source_value_is_sparse_scores(self, service):
        result = service.execute(SingleSourceQuery("GrQc", 0))
        assert result.ok
        value = result.value
        assert isinstance(value, SparseScores)
        assert value.n == service.open_dataset("GrQc").num_nodes
        assert value.index.dtype == np.int32 and value.value.dtype == np.float64
        assert not value.index.flags.writeable and not value.value.flags.writeable
        assert np.all(value.value != 0.0)
        dense = np.asarray(value, dtype=np.float64)
        assert dense.shape == (value.n,)
        assert value.tolist() == dense.tolist()

    def test_single_source_value_matches_engine(self, service):
        expected = service.open_dataset("GrQc").engine().single_source(4)
        result = service.execute(SingleSourceQuery("GrQc", 4))
        assert np.array_equal(
            np.asarray(result.value).view(np.int64), expected.view(np.int64)
        )

    def test_top_k_value_shape(self, service):
        result = service.execute(TopKQuery("GrQc", node=0, k=4))
        assert result.ok
        assert [entry["rank"] for entry in result.value] == [1, 2, 3, 4]
        assert all(set(entry) == {"rank", "node", "score"} for entry in result.value)

    def test_top_k_value_matches_engine(self, service):
        expected = service.open_dataset("GrQc").engine().top_k(2, 5)
        result = service.execute(TopKQuery("GrQc", node=2, k=5))
        assert [(entry["node"], entry["score"]) for entry in result.value] == [
            (node, pytest.approx(score)) for node, score in expected
        ]

    def test_cache_hit_flag_flips_on_repeat(self, service):
        first = service.execute(SingleSourceQuery("GrQc", 2))
        second = service.execute(SingleSourceQuery("GrQc", 2))
        assert first.cache_hit is False
        assert second.cache_hit is True

    def test_explicit_backend_override(self, service):
        result = service.execute(TopKQuery("GrQc", node=0, k=2), backend="power")
        assert result.ok
        assert result.backend == "power"
        session = service.open_dataset("GrQc")
        assert "power" in session.backends()
        # The pinned backend keeps its own cache: the default engine's cached
        # vector must not answer for another backend.
        query = SingleSourceQuery("GrQc", 3)
        warm = [service.execute(query).cache_hit for _ in range(2)]
        pinned = [
            service.execute(query, backend="power").cache_hit for _ in range(2)
        ]
        assert warm == [False, True]
        assert pinned == [False, True]


class TestErrorEnvelopes:
    def test_unknown_dataset(self, service):
        result = service.execute(TopKQuery("NotADataset", node=0, k=2))
        assert not result.ok
        assert result.error.code == ERROR_UNKNOWN_DATASET
        assert "NotADataset" in result.error.message
        assert result.kind == "top_k"

    def test_node_out_of_range(self, service):
        n = service.open_dataset("GrQc").num_nodes
        for query in (
            SinglePairQuery("GrQc", n, 0),
            SinglePairQuery("GrQc", 0, n),
            SingleSourceQuery("GrQc", n + 7),
            TopKQuery("GrQc", node=n, k=2),
        ):
            result = service.execute(query)
            assert not result.ok
            assert result.error.code == ERROR_NODE_OUT_OF_RANGE
            assert str(n) in result.error.message or str(n + 7) in result.error.message

    def test_unknown_backend_is_bad_request(self, service):
        result = service.execute(TopKQuery("GrQc", node=0, k=2), backend="magic")
        assert not result.ok
        assert result.error.code == ERROR_BAD_REQUEST

    def test_decoded_malformed_payloads_never_raise(self, service):
        for payload in (None, 17, "x", [], {}, {"kind": "nope"},
                        {"kind": "top_k", "dataset": "GrQc", "node": 0, "k": 0}):
            result = service.execute_request(decode_envelope(payload).request)
            assert not result.ok
            assert result.error.code == ERROR_BAD_REQUEST

    def test_decoded_good_payload(self, service):
        payload = {"kind": "single_pair", "dataset": "GrQc", "node_u": 1, "node_v": 2}
        result = service.execute_request(decode_envelope(payload).request)
        assert result.ok
        assert isinstance(result.value, float)

    def test_failed_engine_build_becomes_internal_error_envelope(
        self, service, monkeypatch
    ):
        from repro.exceptions import StorageError
        from repro.service import service as service_module

        def broken_build(*args, **kwargs):
            raise StorageError("disk full")

        monkeypatch.setattr(service_module, "create_engine", broken_build)
        result = service.execute(TopKQuery("GrQc", node=0, k=2))
        assert not result.ok
        assert result.error.code == "internal_error"
        assert "disk full" in result.error.message

    def test_known_dataset_with_broken_config_is_not_unknown_dataset(self):
        broken = SimRankService(ServiceConfig(scale=-1.0))
        result = broken.execute(TopKQuery("GrQc", node=0, k=2))
        assert not result.ok
        assert result.error.code == "internal_error"  # GrQc itself is valid
        unknown = broken.execute(TopKQuery("NotADataset", node=0, k=2))
        assert unknown.error.code == ERROR_UNKNOWN_DATASET

    def test_internal_errors_become_envelopes(self, service):
        session = service.open_dataset("GrQc")
        engine = session.engine()

        def boom(*args, **kwargs):
            raise RuntimeError("backend exploded")

        engine.single_pair = boom
        result = service.execute(SinglePairQuery("GrQc", 0, 1))
        assert not result.ok
        assert result.error.code == "internal_error"
        assert "backend exploded" in result.error.message


class TestStatistics:
    def test_aggregate_statistics_roll_up(self, service):
        service.execute(SingleSourceQuery("GrQc", 0))
        service.execute(SingleSourceQuery("GrQc", 0))
        service.execute(TopKQuery("AS", node=1, k=3))
        stats = service.statistics()
        assert set(stats["datasets"]) == {"GrQc", "AS"}
        assert stats["totals"]["total_queries"] == 3
        assert stats["totals"]["cache_hits"] >= 1
        assert stats["totals"]["total_seconds"] > 0.0
        grqc = stats["datasets"]["GrQc"]
        assert grqc["num_nodes"] > 0
        assert grqc["engines"]["sling"]["single_source_queries"] == 2

    def test_session_total_queries(self, service):
        session = service.open_dataset("GrQc")
        service.execute(SingleSourceQuery("GrQc", 0))
        service.execute(TopKQuery("GrQc", node=0, k=2), backend="power")
        assert session.total_queries() == 2

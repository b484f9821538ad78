"""Backend-parity tests: every registered backend answers every query kind
on a small deterministic graph, within its epsilon of the power-method
ground truth."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import simrank_matrix
from repro.engine import (
    BackendConfig,
    DiskSlingBackend,
    SlingBackend,
    backend_names,
    create_backend,
    get_backend_class,
    resolve_backend_name,
)
from repro.exceptions import IndexNotBuiltError, ParameterError
from repro.graphs import generators
from repro.sling import PackedHittingStore

#: Accuracy target shared by every backend in these tests; with the seeded
#: 400-walk Monte-Carlo budget, every method lands comfortably inside it.
EPSILON = 0.1

CONFIG = BackendConfig(epsilon=EPSILON, seed=0, mc_num_walks=400)

ALL_BACKENDS = backend_names()


@pytest.fixture(scope="module")
def parity_graph():
    """A 16-node planted-community graph, fixed seed."""
    return generators.two_level_community(2, 8, seed=3)


@pytest.fixture(scope="module")
def parity_truth(parity_graph):
    """Power-method ground truth at the paper's ground-truth iteration count."""
    return simrank_matrix(parity_graph, c=0.6, num_iterations=50)


@pytest.fixture(scope="module")
def built_backends(parity_graph):
    """Every registered backend, built once on the parity graph."""
    return {
        name: create_backend(name, parity_graph, CONFIG) for name in ALL_BACKENDS
    }


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(ALL_BACKENDS) == {
            "sling",
            "sling-disk",
            "naive",
            "power",
            "montecarlo",
            "montecarlo_sqrtc",
            "linearize",
        }

    def test_aliases_resolve_to_registry_keys(self):
        assert resolve_backend_name("SLING") == "sling"
        assert resolve_backend_name("MC") == "montecarlo"
        assert resolve_backend_name("MC-sqrtc") == "montecarlo_sqrtc"
        assert resolve_backend_name("Linearize") == "linearize"
        assert resolve_backend_name("disk") == "sling-disk"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            resolve_backend_name("FooBar")

    def test_get_backend_class(self):
        assert get_backend_class("sling") is SlingBackend
        assert get_backend_class("disk") is DiskSlingBackend

    def test_info_flags(self):
        assert get_backend_class("sling").info.in_memory
        assert not get_backend_class("sling-disk").info.in_memory
        assert get_backend_class("power").info.exact
        assert not get_backend_class("power").info.scalable
        assert not get_backend_class("montecarlo").info.exact


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestParity:
    def test_single_pair_within_epsilon(self, built_backends, parity_truth, name):
        backend = built_backends[name]
        for node_u, node_v in [(0, 1), (0, 9), (3, 7), (5, 5), (12, 2)]:
            score = backend.single_pair(node_u, node_v)
            assert 0.0 <= score <= 1.0
            assert score == pytest.approx(
                parity_truth[node_u, node_v], abs=EPSILON
            )

    def test_single_source_within_epsilon(self, built_backends, parity_truth, name):
        backend = built_backends[name]
        for source in (0, 7, 13):
            scores = backend.single_source(source)
            assert scores.shape == (parity_truth.shape[0],)
            assert float(np.abs(scores - parity_truth[source]).max()) <= EPSILON

    def test_top_k_matches_ground_truth_ordering(
        self, built_backends, parity_truth, name
    ):
        backend = built_backends[name]
        ranked = backend.top_k(0, 5)
        assert len(ranked) == 5
        assert 0 not in {node for node, _ in ranked}
        # Scores must be non-increasing and each within epsilon of the truth.
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        for node, score in ranked:
            assert score == pytest.approx(parity_truth[0, node], abs=EPSILON)

    def test_index_size_is_positive(self, built_backends, name):
        assert built_backends[name].index_size_bytes() > 0

    def test_queries_before_build_are_rejected(self, parity_graph, name):
        backend = get_backend_class(name)(parity_graph, CONFIG)
        with pytest.raises(IndexNotBuiltError):
            backend.single_pair(0, 1)
        with pytest.raises(IndexNotBuiltError):
            backend.single_source(0)

    def test_empty_graph_rejected(self, name):
        from repro.graphs import DiGraph

        with pytest.raises(ParameterError):
            get_backend_class(name)(DiGraph(0, []), CONFIG)


class TestAdapters:
    def test_sling_backend_exposes_index(self, built_backends):
        backend = built_backends["sling"]
        assert backend.index.is_built
        assert backend.average_set_size() > 0

    def test_disk_backend_reads_sets_from_disk(self, built_backends, monkeypatch):
        backend = built_backends["sling-disk"]
        assert isinstance(backend.packed_store.values, np.memmap)
        sliced = []
        node_view = PackedHittingStore.node_view
        monkeypatch.setattr(
            PackedHittingStore, "node_view",
            lambda store, node: sliced.append(node) or node_view(store, node),
        )
        backend.single_pair(0, 1)
        assert sliced == [0, 1]  # exactly two node segments per pair query
        # Resident footprint is just the correction factors; the full packed
        # index (reported like every other backend) is strictly larger.
        assert backend.resident_bytes() == 8 * backend.graph.num_nodes
        assert backend.index_size_bytes() > backend.resident_bytes()

    def test_disk_and_memory_sling_agree(self, built_backends):
        memory = built_backends["sling"]
        disk = built_backends["sling-disk"]
        for node_u, node_v in [(0, 1), (2, 11)]:
            assert disk.single_pair(node_u, node_v) == pytest.approx(
                memory.single_pair(node_u, node_v), abs=1e-9
            )

    def test_sling_size_accounting_agrees_across_backends(self, parity_graph, tmp_path):
        # One index, one Figure-4 size: in memory, freshly saved to disk,
        # and re-attached from the saved directory.
        memory = create_backend("sling", parity_graph, CONFIG)
        config = dataclasses.replace(CONFIG, work_directory=str(tmp_path))
        fresh = create_backend("sling-disk", parity_graph, config)
        reattached = create_backend(
            "sling-disk", parity_graph,
            dataclasses.replace(config, reuse_saved_index=True),
        )
        with pytest.raises(IndexNotBuiltError):
            reattached.index.build_statistics  # attached, not rebuilt
        store = memory.packed_store
        expected = 8 * parity_graph.num_nodes + 12 * store.num_entries
        assert memory.index_size_bytes() == expected
        assert fresh.index_size_bytes() == expected
        assert reattached.index_size_bytes() == expected

    def test_top_k_rejects_nonpositive_k(self, built_backends):
        with pytest.raises(ParameterError):
            built_backends["power"].top_k(0, 0)


class TestSlingTopKInherited:
    """The SLING adapters rank through the generic ``SimilarityBackend.top_k``;
    the defensive copy it makes must not change a ranking."""

    def test_sling_backends_do_not_override_top_k(self):
        assert "top_k" not in vars(SlingBackend)
        assert "top_k" not in vars(DiskSlingBackend)

    @pytest.mark.parametrize("name", ["sling", "sling-disk"])
    def test_top_k_equals_index_local_push_bitwise(
        self, built_backends, parity_graph, name
    ):
        backend = built_backends[name]
        for node in parity_graph.nodes():
            for k in (1, 5, parity_graph.num_nodes):
                assert backend.top_k(node, k) == backend.index.top_k(
                    node, k, method="local_push"
                )

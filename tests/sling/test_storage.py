"""Unit tests for index persistence, mmap-loaded queries, out-of-core builds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError, StorageError
from repro.graphs import generators
from repro.sling import (
    PackedHittingStore,
    SlingIndex,
    SlingParameters,
    load_index,
    out_of_core_build,
    save_index,
)
from repro.sling.storage import RECORD_BYTES

EPS = 0.1


@pytest.fixture(scope="module")
def graph():
    return generators.two_level_community(2, 12, seed=19)


@pytest.fixture(scope="module")
def built_index(graph):
    return SlingIndex(graph, epsilon=EPS, seed=5).build()


class TestSaveLoad:
    def test_roundtrip_preserves_queries(self, graph, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        loaded = load_index(directory, graph)
        for pair in [(0, 1), (3, 20), (7, 7)]:
            assert loaded.single_pair(*pair) == pytest.approx(
                built_index.single_pair(*pair), abs=1e-9
            )
        assert np.allclose(
            loaded.correction_factors, built_index.correction_factors
        )

    def test_roundtrip_preserves_parameters(self, graph, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        loaded = load_index(directory, graph)
        assert loaded.parameters == built_index.parameters

    def test_saving_unbuilt_index_rejected(self, graph, tmp_path):
        with pytest.raises(StorageError):
            save_index(SlingIndex(graph, epsilon=EPS), tmp_path / "index")

    def test_loading_against_wrong_graph_rejected(self, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        other_graph = generators.cycle(10)
        with pytest.raises(StorageError):
            load_index(directory, other_graph)

    def test_loading_missing_directory_rejected(self, graph, tmp_path):
        with pytest.raises(StorageError):
            load_index(tmp_path / "does-not-exist", graph)

    def test_corrupt_metadata_rejected(self, graph, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        (directory / "sling_meta.json").write_text("{not json")
        with pytest.raises(StorageError):
            load_index(directory, graph)

    def test_missing_data_file_rejected(self, graph, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        (directory / "sling_values.npy").unlink()
        with pytest.raises(StorageError):
            load_index(directory, graph)

    def test_missing_corrections_rejected(self, graph, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        (directory / "sling_corrections.npy").unlink()
        with pytest.raises(StorageError):
            load_index(directory, graph)

    def test_metadata_only_directory_rejected_for_disk_backed(self, graph, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        for column in directory.glob("sling_*.npy"):
            column.unlink()
        with pytest.raises(StorageError):
            load_index(directory, graph, mmap_mode="r")

    def test_unsupported_format_version_rejected(self, graph, built_index, tmp_path):
        """A format-version-1 directory (one compressed npz) is refused with a
        typed error that says how to recover, not a KeyError or a missing
        file."""
        import json

        directory = tmp_path / "v1"
        directory.mkdir()
        store = built_index.packed_store
        np.savez_compressed(
            directory / "sling_data.npz",
            corrections=built_index.correction_factors,
            reduced=np.zeros(0, dtype=bool),
            offsets=store.offsets,
            levels=store.levels,
            targets=store.targets,
            values=store.values,
        )
        params = built_index.parameters
        meta = {
            "format_version": 1,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "c": params.c,
            "epsilon": params.epsilon,
            "delta": params.delta,
            "epsilon_d": params.epsilon_d,
            "theta": params.theta,
            "delta_d": params.delta_d,
            "reduce_space": False,
            "enhance_accuracy": False,
        }
        (directory / "sling_meta.json").write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="re-save with this version"):
            load_index(directory, graph)
        del meta["format_version"]  # pre-versioning metadata
        (directory / "sling_meta.json").write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="re-save with this version"):
            load_index(directory, graph, mmap_mode=None)

    def test_roundtrip_with_optimizations(self, graph, tmp_path, ground_truth_cache):
        index = SlingIndex(
            graph, epsilon=EPS, seed=6, reduce_space=True, enhance_accuracy=True
        ).build()
        directory = save_index(index, tmp_path / "optimized")
        loaded = load_index(directory, graph)
        truth = ground_truth_cache(graph)
        assert np.abs(loaded.all_pairs() - truth).max() <= EPS


class TestDiskBackedIndex:
    """An index loaded with ``mmap_mode="r"`` serves from the mapped columns."""

    @pytest.fixture()
    def disk(self, graph, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        return load_index(directory, graph, mmap_mode="r")

    def test_single_pair_matches_in_memory(self, built_index, disk):
        for pair in [(0, 1), (5, 18), (10, 10)]:
            assert disk.single_pair(*pair) == built_index.single_pair(*pair)

    def test_single_source_matches_in_memory(self, built_index, disk):
        assert np.array_equal(disk.single_source(2), built_index.single_source(2))

    def test_io_accounting(self, disk, monkeypatch):
        """Section 5.4: a pair query slices exactly two node segments of the
        store, a single-source query one."""
        sliced: list[int] = []
        node_view = PackedHittingStore.node_view

        def spy(store, node):
            sliced.append(int(node))
            return node_view(store, node)

        monkeypatch.setattr(PackedHittingStore, "node_view", spy)
        disk.single_pair(0, 1)
        assert sliced == [0, 1]
        disk.single_source(3)
        assert sliced == [0, 1, 3]

    def test_mmap_index_matches_serial_answers_under_threads(self, graph, disk):
        """Eight threads querying one mmap-loaded index must reproduce the
        serial answers exactly."""
        import threading

        pairs = [(u, (u + 7) % graph.num_nodes) for u in range(graph.num_nodes)]
        sources = list(range(0, graph.num_nodes, 5))
        expected_pairs = {pair: disk.single_pair(*pair) for pair in pairs}
        expected_sources = {node: disk.single_source(node) for node in sources}

        num_threads, rounds = 8, 10
        observed: list[dict] = [dict() for _ in range(num_threads)]
        mismatches: list[int] = []
        barrier = threading.Barrier(num_threads)

        def hammer(slot: int) -> None:
            barrier.wait()
            for _ in range(rounds):
                for pair in pairs:
                    observed[slot][pair] = disk.single_pair(*pair)
                for node in sources:
                    if not np.array_equal(
                        disk.single_source(node), expected_sources[node]
                    ):
                        mismatches.append(node)

        threads = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert mismatches == []
        for slot in range(num_threads):
            assert observed[slot] == expected_pairs

    def test_graph_mismatch_rejected(self, built_index, tmp_path):
        directory = save_index(built_index, tmp_path / "index")
        with pytest.raises(StorageError):
            load_index(directory, generators.cycle(5), mmap_mode="r")

    def test_parameters_exposed(self, built_index, disk):
        assert disk.parameters == built_index.parameters

    def test_cascade_matches_in_memory_bitwise(self, built_index, disk):
        for node in (0, 7, 19):
            assert np.array_equal(
                disk.single_source(node, method="cascade"),
                built_index.single_source(node, method="cascade"),
            )

    def test_unknown_single_source_method_rejected(self, disk):
        with pytest.raises(ParameterError):
            disk.single_source(0, method="bogus")

    def test_top_k_matches_in_memory(self, built_index, disk):
        for node in (0, 4, 21):
            assert disk.top_k(node, 6) == built_index.top_k(node, 6)
        with pytest.raises(ParameterError):
            disk.top_k(0, 0)

    def test_top_k_bounded_matches_in_memory(self, built_index, disk):
        for node in (0, 4, 21):
            # Same store metadata, same corrections → same truncation
            # decision and same ranking on both paths.
            assert disk.top_k_bounded(node, 6) == built_index.top_k_bounded(node, 6)
        assert (
            disk.top_k(2, 6, method="bounded") == disk.top_k_bounded(2, 6).ranked
        )


class TestOutOfCoreBuild:
    @pytest.fixture(scope="class")
    def params(self, graph):
        return SlingParameters.from_accuracy_target(
            num_nodes=graph.num_nodes, epsilon=EPS
        )

    def test_build_produces_queryable_index(
        self, graph, params, tmp_path, ground_truth_cache
    ):
        report = out_of_core_build(
            graph, params, tmp_path / "ooc", buffer_bytes=4096, seed=0
        )
        assert report.num_records > 0
        loaded = load_index(report.directory, graph)
        truth = ground_truth_cache(graph)
        assert np.abs(loaded.all_pairs() - truth).max() <= EPS

    def test_small_buffer_spills_multiple_runs(self, graph, params, tmp_path):
        report = out_of_core_build(
            graph, params, tmp_path / "small", buffer_bytes=RECORD_BYTES * 16, seed=0
        )
        assert report.num_spill_runs > 1

    def test_large_buffer_uses_single_run(self, graph, params, tmp_path):
        report = out_of_core_build(
            graph, params, tmp_path / "large", buffer_bytes=64 * 1024 * 1024, seed=0
        )
        assert report.num_spill_runs == 1

    def test_buffer_size_does_not_change_results(self, graph, params, tmp_path):
        small = out_of_core_build(
            graph, params, tmp_path / "a", buffer_bytes=RECORD_BYTES * 8, seed=0
        )
        large = out_of_core_build(
            graph, params, tmp_path / "b", buffer_bytes=1 << 22, seed=0
        )
        small_store = load_index(small.directory, graph).packed_store
        large_store = load_index(large.directory, graph).packed_store
        for column in ("offsets", "levels", "targets", "values", "keys"):
            assert np.array_equal(
                getattr(small_store, column), getattr(large_store, column)
            )

    def test_invalid_buffer_rejected(self, graph, params, tmp_path):
        with pytest.raises(ParameterError):
            out_of_core_build(graph, params, tmp_path / "bad", buffer_bytes=1)

    def test_run_files_are_cleaned_up(self, graph, params, tmp_path):
        work = tmp_path / "cleanup"
        out_of_core_build(graph, params, work, buffer_bytes=RECORD_BYTES * 8, seed=0)
        assert list((work / "runs").glob("*.bin")) == []

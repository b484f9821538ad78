"""Mutation WAL torture tests: durability, corruption, dedup, disk-full.

The WAL's contract is *an ack on the wire implies the record is on disk*
and *recovery reproduces exactly the acked history*: the snapshot the log
follows, loaded, plus the tail replayed.  These tests attack that contract
directly: torn tails, flipped checksum bytes, duplicate ``mutation_id``
retries, a crash between a snapshot and the log cut, a crash mid-snapshot,
injected ``ENOSPC`` mid-append, and a no-op add of a base edge followed by
a real remove and a snapshot.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.engine import BackendConfig
from repro.evaluation.faults import disk_full
from repro.graphs import generators
from repro.service import (
    ERROR_BAD_REQUEST,
    ERROR_UNAVAILABLE,
    MutateRequest,
    MutationWAL,
    ServiceConfig,
    SimRankService,
    SingleSourceQuery,
)
from repro.service import wal as wal_module

DATASET = "toy"


def toy_graph():
    return generators.two_level_community(3, 10, seed=7)


def make_service(wal_dir) -> SimRankService:
    config = ServiceConfig(
        scale=0.05,
        backend="sling",
        backend_config=BackendConfig(epsilon=0.1, seed=0),
        wal_dir=str(wal_dir),
    )
    service = SimRankService(config)
    service.open_dataset(DATASET, graph=toy_graph())
    return service


def ack(version: int) -> dict:
    return {"dataset": DATASET, "index_version": version, "backend": "sling"}


def append(wal: MutationWAL, *, add=(), remove=(), refreeze=False,
           mutation_id=None, version=1) -> None:
    wal.append(
        add=add, remove=remove, refreeze=refreeze,
        mutation_id=mutation_id, ack=ack(version),
    )


class TestRoundTrip:
    def test_records_and_acks_survive_reopen(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            append(wal, add=[(0, 25)], mutation_id="m-1", version=1)
            append(wal, remove=[(0, 2)], mutation_id="m-2", version=2)
        with MutationWAL(tmp_path, DATASET) as wal:
            assert len(wal.records) == 2
            assert wal.records[0]["add"] == [[0, 25]]
            assert wal.records[1]["remove"] == [[0, 2]]
            assert wal.known("m-1") and wal.known("m-2")
            assert not wal.known("m-3")
            assert wal.recorded_ack("m-1") == ack(1)
            assert wal.truncated_bytes == 0
            assert wal.snapshot_version is None

    def test_fresh_log_follows_the_base_graph(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            assert wal.records == []
            assert wal.stats()["records"] == 0
            assert wal.stats()["snapshot_version"] is None
            assert wal.load_snapshot(toy_graph()) is None

    def test_dataset_names_with_slashes_stay_in_directory(self, tmp_path):
        with MutationWAL(tmp_path, "a/b") as wal:
            append(wal, add=[(0, 1)], mutation_id="m-1")
        assert (tmp_path / "a_b.wal").exists()
        assert not (tmp_path / "a").exists()


class TestCorruption:
    def test_torn_tail_is_truncated_and_appends_resume(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            append(wal, add=[(0, 25)], mutation_id="m-1")
            append(wal, add=[(1, 25)], mutation_id="m-2")
        log = tmp_path / f"{DATASET}.wal"
        good = log.stat().st_size
        # A crash mid-append: the header promises more bytes than exist.
        with open(log, "ab") as fh:
            fh.write(b"\x00\x00\x00\x99AB")
        with MutationWAL(tmp_path, DATASET) as wal:
            assert len(wal.records) == 2
            assert wal.truncated_bytes == 6
            assert log.stat().st_size == good
            append(wal, add=[(2, 25)], mutation_id="m-3")
        with MutationWAL(tmp_path, DATASET) as wal:
            assert [r.get("mutation_id") for r in wal.records] == [
                "m-1", "m-2", "m-3",
            ]
            assert wal.truncated_bytes == 0

    def test_flipped_checksum_byte_stops_replay_at_last_intact_record(
        self, tmp_path
    ):
        with MutationWAL(tmp_path, DATASET) as wal:
            append(wal, add=[(0, 25)], mutation_id="m-1")
            append(wal, add=[(1, 25)], mutation_id="m-2")
            append(wal, add=[(2, 25)], mutation_id="m-3")
        log = tmp_path / f"{DATASET}.wal"
        data = bytearray(log.read_bytes())
        # Locate the second record's payload and flip one byte in it.
        import struct

        length1 = struct.unpack_from(">I", data, 0)[0]
        second_payload = 8 + length1 + 8
        data[second_payload] ^= 0xFF
        log.write_bytes(bytes(data))
        with MutationWAL(tmp_path, DATASET) as wal:
            # Stop-at-first-corruption: m-3 was intact but follows the
            # corrupt record, so it is (correctly, conservatively) dropped.
            assert [r.get("mutation_id") for r in wal.records] == ["m-1"]
            assert wal.truncated_bytes > 0
            assert not wal.known("m-2") and not wal.known("m-3")
        assert log.stat().st_size == 8 + length1

    def test_garbage_prefix_yields_empty_log(self, tmp_path):
        log = tmp_path / f"{DATASET}.wal"
        log.write_bytes(os.urandom(64))
        with MutationWAL(tmp_path, DATASET) as wal:
            assert wal.records == []
            assert wal.truncated_bytes == 64
        assert log.stat().st_size == 0


class TestDiskFull:
    def test_append_raises_enospc_when_armed(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            with disk_full(wal, 1):
                with pytest.raises(OSError) as excinfo:
                    append(wal, add=[(0, 25)], mutation_id="m-1")
            assert excinfo.value.errno == errno.ENOSPC
            assert wal.records == []
            assert not wal.known("m-1")
            append(wal, add=[(0, 25)], mutation_id="m-1")
            assert wal.known("m-1")


class TestServiceDurability:
    """The WAL as wired through ``ServiceConfig(wal_dir=...)``."""

    def probe(self, service: SimRankService, node: int = 0) -> list:
        result = service.execute(SingleSourceQuery(DATASET, node=node))
        assert result.ok
        return result.value.tolist()

    def test_acked_mutation_survives_restart(self, tmp_path):
        service = make_service(tmp_path)
        result = service.execute_control(
            MutateRequest(dataset=DATASET, add=[(0, 25)], mutation_id="m-1")
        )
        assert result.ok
        live = self.probe(service)
        assert (tmp_path / f"{DATASET}.wal").stat().st_size > 0

        # A fresh process opens the same dataset over the same base graph;
        # recovery must replay the acked delta before the first answer.
        recovered = make_service(tmp_path)
        session = recovered.open_dataset(DATASET)
        assert session.graph.has_edge(0, 25)
        assert self.probe(recovered) == live

    def test_duplicate_mutation_id_applies_once(self, tmp_path):
        service = make_service(tmp_path)
        request = MutateRequest(
            dataset=DATASET, add=[(0, 25)], mutation_id="m-dup"
        )
        first = service.execute_control(request)
        assert first.ok
        assert "deduplicated" not in first.value
        second = service.execute_control(request)
        assert second.ok
        assert second.value["deduplicated"] is True
        # Applied exactly once: the version did not advance again.
        assert second.value["index_version"] == first.value["index_version"]
        assert second.index_version == first.index_version

    def test_rejected_mutation_is_not_logged(self, tmp_path):
        service = make_service(tmp_path)
        wal = service.wal_for(DATASET)
        records = wal.stats()["records"]
        version = service.open_dataset(DATASET).index_version
        rejected = service.execute_control(
            MutateRequest(
                dataset=DATASET, add=[(1, 26)], remove=[(1, 26)],
                mutation_id="amb-1",
            )
        )
        assert not rejected.ok
        assert rejected.error.code == ERROR_BAD_REQUEST
        assert wal.stats()["records"] == records
        assert not wal.known("amb-1")
        assert service.open_dataset(DATASET).index_version == version

        # The id was never recorded, so a corrected retry applies for real.
        retried = service.execute_control(
            MutateRequest(dataset=DATASET, add=[(1, 26)], mutation_id="amb-1")
        )
        assert retried.ok
        assert retried.value.get("deduplicated") is not True
        recovered = make_service(tmp_path)
        assert recovered.open_dataset(DATASET).graph.has_edge(1, 26)

    def test_disk_full_rolls_back_and_same_id_retry_lands(self, tmp_path):
        service = make_service(tmp_path)
        assert service.execute_control(
            MutateRequest(dataset=DATASET, add=[(0, 25)], mutation_id="df-1")
        ).ok
        baseline = self.probe(service)

        wal = service.wal_for(DATASET)
        with disk_full(wal, wal.stats()["bytes"]):
            failed = service.execute_control(
                MutateRequest(dataset=DATASET, add=[(1, 26)], mutation_id="df-2")
            )
        assert not failed.ok
        assert failed.error.code == ERROR_UNAVAILABLE
        # The ack never outran the log: the apply was rolled back, reads
        # still answer the pre-failure state.
        session = service.open_dataset(DATASET)
        assert not session.graph.has_edge(1, 26)
        assert self.probe(service) == pytest.approx(baseline, abs=1e-6)

        retried = service.execute_control(
            MutateRequest(dataset=DATASET, add=[(1, 26)], mutation_id="df-2")
        )
        assert retried.ok
        # The first attempt was never logged, so this is a real apply, not
        # a dedup answer.
        assert retried.value.get("deduplicated") is not True

        recovered = make_service(tmp_path)
        session = recovered.open_dataset(DATASET)
        assert session.graph.has_edge(0, 25)
        assert session.graph.has_edge(1, 26)

    def test_noop_add_then_real_remove_recovers_across_a_snapshot(
        self, tmp_path
    ):
        """A ``mutate`` that adds an edge the base graph already has is a
        no-op; a later real remove of that edge and a re-freeze must
        recover as removed."""
        base_edge = (0, 2)
        assert toy_graph().has_edge(*base_edge)

        service = make_service(tmp_path)
        for mutation_id, request in (
            ("n-1", {"add": [base_edge]}),
            ("n-2", {"remove": [base_edge]}),
            ("n-3", {"refreeze": True}),
        ):
            assert service.execute_control(
                MutateRequest(dataset=DATASET, mutation_id=mutation_id, **request)
            ).ok
        live = probe_all(service)

        recovered = make_service(tmp_path)
        session = recovered.open_dataset(DATASET)
        assert not session.graph.has_edge(*base_edge)
        assert probe_all(recovered) == live


#: Four mutates, the third re-freezing; the fourth leaves the index dirty or
#: re-freezes too.
HISTORIES = {
    "ends-dirty": [
        {"add": [(0, 25)]},
        {"remove": [(0, 2)]},
        {"add": [(1, 26)], "refreeze": True},
        {"add": [(2, 27)]},
    ],
    "ends-refrozen": [
        {"add": [(0, 25)]},
        {"remove": [(0, 2)]},
        {"add": [(1, 26)], "refreeze": True},
        {"add": [(2, 27)], "refreeze": True},
    ],
}


STORE_COLUMNS = ("offsets", "levels", "targets", "values", "keys")


def probe_all(service: SimRankService) -> list:
    """Every node's single-source answer (bitwise-comparable columns)."""
    answers = []
    for node in range(toy_graph().num_nodes):
        result = service.execute(SingleSourceQuery(DATASET, node=node))
        assert result.ok, result.error
        answers.append(result.value)
    return answers


def run_history(service: SimRankService, history: list[dict]) -> None:
    for step, request in enumerate(history):
        result = service.execute_control(
            MutateRequest(dataset=DATASET, mutation_id=f"h-{step}", **request)
        )
        assert result.ok, result.error


def live_state(service: SimRankService) -> tuple:
    """What recovery must reproduce: version, store, d̃ and every answer."""
    session = service.open_dataset(DATASET)
    index = session.engine("sling").backend.index
    store = index.packed_store
    return (
        session.index_version,
        [np.array(getattr(store, column)) for column in STORE_COLUMNS],
        np.asarray(index.correction_factors),
        probe_all(service),
    )


def assert_recovers(tmp_path, expected: tuple) -> SimRankService:
    version, columns, corrections, answers = expected
    recovered = make_service(tmp_path)
    session = recovered.open_dataset(DATASET)
    index = session.engine("sling").backend.index
    assert session.index_version == version
    store = index.packed_store
    for column, expected_column in zip(STORE_COLUMNS, columns):
        assert np.array_equal(getattr(store, column), expected_column), column
    assert np.array_equal(np.asarray(index.correction_factors), corrections)
    assert probe_all(recovered) == answers
    return recovered


class TestRecovery:
    """Recovery loads the snapshot and replays the tail: the recovered
    session equals the live one bitwise, ``index_version`` included."""

    @pytest.mark.parametrize("history", sorted(HISTORIES))
    def test_index_version_survives_recovery(self, tmp_path, history):
        service = make_service(tmp_path)
        run_history(service, HISTORIES[history])
        expected = live_state(service)
        assert expected[0] == (5 if history == "ends-dirty" else 6)
        service.close_all()

        recovered = assert_recovers(tmp_path, expected)
        follow_up = recovered.execute_control(
            MutateRequest(dataset=DATASET, add=[(3, 28)], mutation_id="next")
        )
        assert follow_up.ok
        assert follow_up.value["index_version"] > expected[0]

    def test_snapshot_cuts_the_log_and_keeps_dedup_ids(self, tmp_path):
        service = make_service(tmp_path)
        run_history(service, HISTORIES["ends-refrozen"])
        wal = service.wal_for(DATASET)
        assert wal.records == []
        assert wal.stats()["snapshot_version"] == 6
        # Only the committed snapshot is kept.
        assert sorted(os.listdir(wal.snapshot_root)) == ["6"]
        # Dedup outlives the cut; the full ack does not.
        assert all(wal.known(f"h-{step}") for step in range(4))
        assert wal.recorded_ack("h-0") is None
        retried = service.execute_control(
            MutateRequest(dataset=DATASET, add=[(0, 25)], mutation_id="h-0")
        )
        assert retried.value["deduplicated"] is True
        assert retried.value["index_version"] == 6
        service.close_all()
        with MutationWAL(tmp_path, DATASET) as reopened:
            assert reopened.snapshot_version == 6
            assert all(reopened.known(f"h-{step}") for step in range(4))

    def test_snapshot_written_before_the_log_cut(self, tmp_path, monkeypatch):
        """A crash after the snapshot commits but before the log is cut:
        the log still follows the base graph and holds every record, so
        recovery replays them and ignores the newer snapshot."""
        service = make_service(tmp_path)

        replace = os.replace

        def crash(source, target):
            if str(target).endswith(".wal"):
                raise OSError(errno.EIO, "crash before the log cut")
            replace(source, target)

        monkeypatch.setattr(wal_module.os, "replace", crash)
        run_history(service, HISTORIES["ends-dirty"])
        monkeypatch.undo()
        wal = service.wal_for(DATASET)
        assert wal.snapshot_version is None
        assert len(wal.records) == 4
        assert (wal.snapshot_root / "4" / "sling_meta.json").exists()
        expected = live_state(service)
        service.close_all()

        recovered = assert_recovers(tmp_path, expected)
        # The next re-freeze commits a snapshot and drops the stale one.
        assert recovered.execute_control(
            MutateRequest(dataset=DATASET, refreeze=True, mutation_id="rf")
        ).ok
        assert sorted(os.listdir(wal.snapshot_root)) == ["6"]

    def test_snapshot_directory_without_meta_is_ignored(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-snapshot leaves a directory without its meta file:
        recovery ignores it and loads the snapshot the log follows."""
        service = make_service(tmp_path)
        run_history(service, HISTORIES["ends-dirty"][:3])

        def torn_save(index, directory):
            (directory / "sling_corrections.npy").write_bytes(b"torn")
            raise OSError(errno.ENOSPC, "disk full mid-snapshot")

        monkeypatch.setattr(wal_module, "save_index", torn_save)
        assert service.execute_control(
            MutateRequest(
                dataset=DATASET, add=[(2, 27)], refreeze=True, mutation_id="t"
            )
        ).ok
        monkeypatch.undo()
        wal = service.wal_for(DATASET)
        assert wal.snapshot_version == 4
        assert not (wal.snapshot_root / "6" / "sling_meta.json").exists()
        assert (wal.snapshot_root / "6").is_dir()
        expected = live_state(service)
        service.close_all()

        assert_recovers(tmp_path, expected)

    def test_log_following_a_missing_snapshot_is_corrupt(self, tmp_path):
        service = make_service(tmp_path)
        run_history(service, HISTORIES["ends-dirty"])
        service.close_all()
        (tmp_path / f"{DATASET}.snapshots" / "4" / "sling_meta.json").unlink()
        with pytest.raises(wal_module.WalCorruption):
            MutationWAL(tmp_path, DATASET)

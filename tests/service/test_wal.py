"""Mutation WAL torture tests: durability, corruption, dedup, disk-full.

The WAL's contract is *an ack on the wire implies the record is on disk*
and *recovery replays exactly the acked history*.  These tests attack that
contract directly: torn tails, flipped checksum bytes, duplicate
``mutation_id`` retries, a crash between the checkpoint tmp-write and the
rename, injected ``ENOSPC`` mid-append, and — the regression that
motivated effective-delta logging — a no-op add of a base edge followed by
a real remove and a checkpoint fold.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.engine import BackendConfig
from repro.graphs import generators
from repro.service import (
    ERROR_BAD_REQUEST,
    ERROR_UNAVAILABLE,
    FAIL_AFTER_ENV,
    MutateRequest,
    MutationWAL,
    ServiceConfig,
    SimRankService,
    SingleSourceQuery,
)

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
            assert wal.has_history()

    def test_fresh_log_has_no_history(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            assert not wal.has_history()
            assert wal.stats()["records"] == 0
            assert wal.stats()["checkpoint_version"] is None

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


class TestCheckpoint:
    def test_fold_truncates_log_and_keeps_dedup_ids(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            append(wal, add=[(0, 25)], mutation_id="m-1")
            append(wal, add=[(1, 25)], mutation_id="m-2", refreeze=True)
            wal.checkpoint(version=2)
            assert wal.records == []
            assert wal.stats()["bytes"] == 0
            assert wal.stats()["checkpoint_version"] == 2
            # Dedup outlives the fold; the full ack does not.
            assert wal.known("m-1") and wal.known("m-2")
            assert wal.recorded_ack("m-1") is None
        with MutationWAL(tmp_path, DATASET) as wal:
            assert wal.has_history()
            payload = wal.checkpoint_payload
            assert payload["added"] == [[0, 25], [1, 25]]
            assert payload["removed"] == []
            assert sorted(payload["mutation_ids"]) == ["m-1", "m-2"]

    def test_net_delta_cancellation(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            append(wal, add=[(0, 25)])
            append(wal, remove=[(0, 25)])
            append(wal, remove=[(0, 2)])
            append(wal, add=[(0, 2)])
            append(wal, add=[(3, 25)])
            added, removed = wal.net_delta()
            assert added == [[3, 25]]
            assert removed == []

    def test_net_delta_cancels_across_a_checkpoint(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            append(wal, add=[(5, 25)], mutation_id="m-1")
            wal.checkpoint(version=1)
            append(wal, remove=[(5, 25)], mutation_id="m-2")
            assert wal.net_delta() == ([], [])

    def test_stale_tmp_from_interrupted_checkpoint_is_harmless(self, tmp_path):
        with MutationWAL(tmp_path, DATASET) as wal:
            append(wal, add=[(0, 25)], mutation_id="m-1")
            # A crash after the tmp write but before os.replace leaves this
            # file behind; it must neither be loaded nor block the next fold.
            stale = wal.checkpoint_path.with_suffix(".ckpt.json.tmp")
            stale.write_text("{ not json", encoding="utf-8")
        with MutationWAL(tmp_path, DATASET) as wal:
            assert len(wal.records) == 1
            assert wal.checkpoint_payload is None
            wal.checkpoint(version=1)
        with MutationWAL(tmp_path, DATASET) as wal:
            assert wal.checkpoint_payload["version"] == 1
            assert wal.known("m-1")


class TestDiskFull:
    def test_append_raises_enospc_when_armed(self, tmp_path, monkeypatch):
        with MutationWAL(tmp_path, DATASET) as wal:
            monkeypatch.setenv(FAIL_AFTER_ENV, "1")
            with pytest.raises(OSError) as excinfo:
                append(wal, add=[(0, 25)], mutation_id="m-1")
            assert excinfo.value.errno == errno.ENOSPC
            assert wal.records == []
            assert not wal.known("m-1")
            monkeypatch.delenv(FAIL_AFTER_ENV)
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
        assert self.probe(recovered) == pytest.approx(live, abs=1e-6)

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

    def test_disk_full_rolls_back_and_same_id_retry_lands(
        self, tmp_path, monkeypatch
    ):
        service = make_service(tmp_path)
        assert service.execute_control(
            MutateRequest(dataset=DATASET, add=[(0, 25)], mutation_id="df-1")
        ).ok
        baseline = self.probe(service)

        wal_bytes = service.wal_for(DATASET).stats()["bytes"]
        monkeypatch.setenv(FAIL_AFTER_ENV, str(wal_bytes))
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

        monkeypatch.delenv(FAIL_AFTER_ENV)
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

    def test_noop_add_does_not_cancel_a_real_remove_across_checkpoint(
        self, tmp_path
    ):
        """Regression: effective-delta logging.

        A ``mutate`` that adds an edge the base graph already has is a
        no-op — logging the *requested* delta would make ``net_delta``'s
        cancellation wrongly erase a later real remove of that edge, so
        the checkpoint fold would resurrect it on recovery.
        """
        base_edge = (0, 2)
        assert toy_graph().has_edge(*base_edge)

        service = make_service(tmp_path)
        assert service.execute_control(
            MutateRequest(dataset=DATASET, add=[base_edge], mutation_id="n-1")
        ).ok
        assert service.execute_control(
            MutateRequest(dataset=DATASET, remove=[base_edge], mutation_id="n-2")
        ).ok
        assert service.execute_control(
            MutateRequest(dataset=DATASET, refreeze=True, mutation_id="n-3")
        ).ok
        live = self.probe(service)

        recovered = make_service(tmp_path)
        session = recovered.open_dataset(DATASET)
        assert not session.graph.has_edge(*base_edge)
        assert self.probe(recovered) == pytest.approx(live, abs=1e-6)

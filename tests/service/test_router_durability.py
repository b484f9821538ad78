"""Router restart semantics with and without a WAL behind the workers.

Satellite regression for PR 10's durability end state: after a worker
crash, a *non-durable* router must stamp every replayed-but-mutated
dataset ``recovered_without_mutations`` in merged stats (the replay
resurrected the base graph — clients deserve to know), while a *durable*
(``--wal-dir``) router must not — WAL recovery replayed the acked
mutations, so nothing was lost and post-crash answers match pre-crash
state.
"""

from __future__ import annotations

import os
import signal
import time

import pytest
import test_client

from repro.service import (
    Address,
    Router,
    ServiceError,
    SimRankClient,
    SingleSourceQuery,
    WorkerPool,
)

DATASET = "GrQc"


def serve_args(wal_dir=None) -> list[str]:
    args = [
        "--scale", str(test_client.SCALE),
        "--epsilon", str(test_client.EPSILON),
        "--seed", str(test_client.SEED),
        "--mc-walks", str(test_client.MC_WALKS),
        "--backend", "sling",
    ]
    if wal_dir is not None:
        args += ["--wal-dir", str(wal_dir)]
    return args


def start(wal_dir=None) -> tuple[WorkerPool, Router]:
    pool = WorkerPool(
        1, serve_args=serve_args(wal_dir), health_interval=0.3
    )
    pool.start()
    router = Router(
        pool,
        address=Address(family="tcp", host="127.0.0.1", port=0),
        request_timeout=60.0,
        durable=wal_dir is not None,
    )
    router.start()
    return pool, router


def kill_and_await_recovery(pool: WorkerPool, client: SimRankClient) -> dict:
    """SIGKILL worker 0, then poll until the replacement answers stats."""
    pid = pool.worker_pid(0)
    assert pid is not None
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        try:
            stats = client.stats()
        except ServiceError:
            time.sleep(0.2)
            continue
        if (
            pool.worker_pid(0) not in (None, pid)
            and DATASET in stats.get("datasets", {})
        ):
            return stats
        time.sleep(0.2)
    pytest.fail("worker did not recover within 60s")


def run_crash_scenario(wal_dir=None) -> tuple[dict, list, list]:
    """Open, mutate, probe, crash, recover; return (stats, pre, post)."""
    pool, router = start(wal_dir)
    try:
        client = SimRankClient(address=str(router.address))
        client.open_dataset(DATASET)
        ack = client.mutate(DATASET, add=[(1, 20)])
        assert ack["index_version"] == 1
        before = client.execute(SingleSourceQuery(DATASET, node=1))
        assert before.ok
        stats = kill_and_await_recovery(pool, client)
        after = client.execute(SingleSourceQuery(DATASET, node=1))
        assert after.ok
        client.close()
        return stats, before.value.tolist(), after.value.tolist()
    finally:
        router.stop()


class TestRecoveredWithoutMutations:
    def test_non_durable_restart_stamps_the_flag(self):
        stats, before, after = run_crash_scenario(wal_dir=None)
        detail = stats["datasets"][DATASET]
        assert detail.get("recovered_without_mutations") is True
        # The loss is real: the replayed worker serves the base graph again.
        assert after != pytest.approx(before, abs=1e-9)

    def test_durable_restart_does_not_stamp_the_flag(self, tmp_path):
        stats, before, after = run_crash_scenario(wal_dir=tmp_path)
        detail = stats["datasets"][DATASET]
        assert "recovered_without_mutations" not in detail
        # WAL replay restored the mutation: post-crash answers match.
        assert after == pytest.approx(before, abs=1e-6)

    def test_fresh_mutation_clears_the_flag(self):
        pool, router = start(None)
        try:
            client = SimRankClient(address=str(router.address))
            client.open_dataset(DATASET)
            client.mutate(DATASET, add=[(1, 20)])
            stats = kill_and_await_recovery(pool, client)
            assert (
                stats["datasets"][DATASET].get("recovered_without_mutations")
                is True
            )
            # Mutating again supersedes the lost state: the stale-replay
            # warning must not outlive it.
            client.mutate(DATASET, add=[(2, 21)])
            stats = client.stats()
            detail = stats["datasets"][DATASET]
            assert "recovered_without_mutations" not in detail
            client.close()
        finally:
            router.stop()

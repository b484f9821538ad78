"""Per-dataset mutation write-ahead log: durability for ``mutate`` acks.

PR 9 made graphs mutable, but the deltas lived only in worker memory: a
crashed worker came back with the pre-mutation graph and the router's
failover silently replayed its *open datasets*, resurrecting stale answers.
This module closes that hole.  Every acknowledged ``mutate`` is recorded in
an append-only, checksummed, fsync'd log *before* the ack leaves the
worker, so after a crash the worker (or its replacement) replays
checkpoint + tail and serves answers that match the pre-crash dynamic
index within the certified ``eps_stale`` bound.

On-disk layout, per dataset under ``wal_dir``::

    <dataset>.wal        append-only record log (see framing below)
    <dataset>.ckpt.json  net-delta checkpoint written at refreeze time

Record framing — one record per acknowledged mutation::

    4 bytes  big-endian payload length N
    4 bytes  big-endian CRC32 of the payload bytes
    N bytes  UTF-8 JSON payload

The payload carries the mutation delta, its optional client-supplied
``mutation_id`` (the idempotency token that makes retries safe), and the
ack that was returned — so a deduplicated retry can answer with the
*original* ack.  Appends are flushed and ``os.fsync``'d before
:meth:`MutationWAL.append` returns: an ack on the wire implies the record
is on disk (fsync-on-ack).

Recovery is **stop-at-first-corruption**: a torn tail record (crash during
append) or a checksum mismatch ends replay at the last intact record; the
corrupt suffix is truncated away on open so the log is append-clean again,
and the number of discarded bytes is reported in :meth:`MutationWAL.stats`.

``refreeze`` checkpointing keeps the log bounded: the accumulated records
collapse into one *net* edge delta (an add cancels a pending remove of the
same edge and vice versa) written to ``<dataset>.ckpt.json`` via a tmp
file + ``os.replace`` (atomic — a crash mid-checkpoint leaves the previous
checkpoint and full log intact), after which the log is truncated.
Because a re-freeze leaves a generation with bitwise rebuild parity,
replaying the checkpoint as a single ``refreeze=True`` mutation reproduces
the re-frozen generation exactly.

Fault injection: set ``REPRO_WAL_FAIL_AFTER_BYTES=<n>`` to make appends
fail with ``ENOSPC`` once the log would exceed ``n`` bytes — the
disk-full case the chaos harness (:mod:`repro.evaluation.faults`) drives.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib
from pathlib import Path

__all__ = ["FAIL_AFTER_ENV", "MutationWAL", "WalCorruption"]

#: ``(length, crc32)`` header prepended to every record payload.
_HEADER = struct.Struct(">II")

#: Environment knob: appends fail with ``ENOSPC`` once the log file would
#: grow past this many bytes.  Read per-append so a harness can arm and
#: disarm it around a single mutation.
FAIL_AFTER_ENV = "REPRO_WAL_FAIL_AFTER_BYTES"
_FAIL_AFTER_ENV = FAIL_AFTER_ENV


class WalCorruption(Exception):
    """Raised internally when a record fails its checksum; recovery treats
    it like a torn tail (stop, truncate) rather than propagating."""


def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory so renames/creates are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _edge_key(edge) -> tuple[int, int]:
    u, v = edge
    return (int(u), int(v))


class MutationWAL:
    """The write-ahead log for one dataset session.

    Not thread-safe on its own: callers (``apply_mutation``) already hold
    the session lock for the apply, and the WAL piggybacks on it.
    """

    def __init__(self, directory: str | Path, dataset: str) -> None:
        self.directory = Path(directory)
        self.dataset = dataset
        safe = dataset.replace("/", "_")
        self.log_path = self.directory / f"{safe}.wal"
        self.checkpoint_path = self.directory / f"{safe}.ckpt.json"
        self.directory.mkdir(parents=True, exist_ok=True)

        #: Intact tail records (mutations since the last checkpoint), in
        #: append order — exactly what recovery replays after the checkpoint.
        self.records: list[dict] = []
        #: mutation_id -> recorded ack, for tail records that carried one.
        self._acks: dict[str, dict] = {}
        #: Every mutation_id this log has ever acknowledged (checkpoint ids
        #: included) — the dedup set.
        self._known_ids: set[str] = set()
        #: Bytes discarded from the log tail on open (torn/corrupt suffix).
        self.truncated_bytes = 0

        self._checkpoint: dict | None = self._load_checkpoint()
        if self._checkpoint is not None:
            self._known_ids.update(self._checkpoint.get("mutation_ids", ()))
        self._load_log()
        self._file = open(self.log_path, "ab")

    # ----------------------------------------------------------------- #
    # Loading
    # ----------------------------------------------------------------- #
    def _load_checkpoint(self) -> dict | None:
        if not self.checkpoint_path.exists():
            return None
        try:
            payload = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            # A checkpoint is written atomically (tmp + os.replace), so an
            # unreadable one means outside interference; ignoring it would
            # silently lose acked mutations — fail loudly instead.
            raise WalCorruption(
                f"checkpoint {self.checkpoint_path} is unreadable"
            ) from None
        if not isinstance(payload, dict):
            raise WalCorruption(f"checkpoint {self.checkpoint_path} is malformed")
        return payload

    def _load_log(self) -> None:
        """Read intact records; truncate any torn/corrupt suffix in place."""
        if not self.log_path.exists():
            self.log_path.touch()
            return
        data = self.log_path.read_bytes()
        offset = 0
        good = 0
        while offset + _HEADER.size <= len(data):
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                break  # torn tail: header promises more bytes than exist
            payload = data[start:end]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                break  # checksum mismatch: stop at last intact record
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            if not isinstance(record, dict):
                break
            self._admit(record)
            offset = end
            good = end
        self.truncated_bytes = len(data) - good
        if self.truncated_bytes:
            with open(self.log_path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())

    def _admit(self, record: dict) -> None:
        self.records.append(record)
        mutation_id = record.get("mutation_id")
        if isinstance(mutation_id, str):
            self._known_ids.add(mutation_id)
            ack = record.get("ack")
            if isinstance(ack, dict):
                self._acks[mutation_id] = ack

    # ----------------------------------------------------------------- #
    # Dedup
    # ----------------------------------------------------------------- #
    def known(self, mutation_id: str) -> bool:
        """Whether this id was ever acknowledged (tail or checkpoint)."""
        return mutation_id in self._known_ids

    def recorded_ack(self, mutation_id: str) -> dict | None:
        """The originally recorded ack, when the record still has it.

        Ids that were folded into a checkpoint keep their dedup guarantee
        (:meth:`known`) but no longer carry the full ack; the caller
        synthesises a minimal one from live session state.
        """
        return self._acks.get(mutation_id)

    # ----------------------------------------------------------------- #
    # Appending
    # ----------------------------------------------------------------- #
    def append(
        self,
        *,
        add,
        remove,
        refreeze: bool,
        mutation_id: str | None,
        ack: dict,
    ) -> None:
        """Durably record one acknowledged mutation (fsync-on-ack).

        Raises ``OSError`` when the write cannot be made durable — the
        caller rolls the in-memory apply back and answers a typed error,
        so the live index never runs ahead of the log.
        """
        record = {
            "add": [list(_edge_key(edge)) for edge in add],
            "remove": [list(_edge_key(edge)) for edge in remove],
            "refreeze": bool(refreeze),
        }
        if mutation_id is not None:
            record["mutation_id"] = mutation_id
            record["ack"] = ack
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        framed = _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        framed += payload

        limit = os.environ.get(_FAIL_AFTER_ENV)
        if limit is not None:
            try:
                budget = int(limit)
            except ValueError:
                budget = 0
            if self._file.tell() + len(framed) > budget:
                raise OSError(errno.ENOSPC, "injected disk-full on WAL append")

        self._file.write(framed)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._admit(record)

    # ----------------------------------------------------------------- #
    # Checkpointing
    # ----------------------------------------------------------------- #
    def net_delta(self) -> tuple[list[list[int]], list[list[int]]]:
        """Collapse checkpoint + tail into one ``(added, removed)`` delta.

        An add cancels a pending remove of the same edge and vice versa,
        so replaying the result as a single mutation lands on the same
        graph as replaying every record in order.
        """
        added: set[tuple[int, int]] = set()
        removed: set[tuple[int, int]] = set()
        if self._checkpoint is not None:
            added.update(_edge_key(e) for e in self._checkpoint.get("added", ()))
            removed.update(_edge_key(e) for e in self._checkpoint.get("removed", ()))
        for record in self.records:
            for edge in record.get("add", ()):
                key = _edge_key(edge)
                if key in removed:
                    removed.discard(key)
                else:
                    added.add(key)
            for edge in record.get("remove", ()):
                key = _edge_key(edge)
                if key in added:
                    added.discard(key)
                else:
                    removed.add(key)
        return (
            [list(edge) for edge in sorted(added)],
            [list(edge) for edge in sorted(removed)],
        )

    def checkpoint(self, *, version: int) -> None:
        """Fold the log into ``<dataset>.ckpt.json`` and truncate it.

        Called after a successful re-freeze: the re-frozen generation is
        fully described by the net delta, so recovery replays it as one
        ``refreeze=True`` mutation (bitwise rebuild parity makes that
        reproduce the frozen store exactly) and the tail starts empty.
        """
        added, removed = self.net_delta()
        payload = {
            "version": int(version),
            "added": added,
            "removed": removed,
            "mutation_ids": sorted(self._known_ids),
        }
        tmp = self.checkpoint_path.with_suffix(".ckpt.json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.checkpoint_path)
        _fsync_dir(self.directory)

        self._file.close()
        self._file = open(self.log_path, "wb")
        self._file.flush()
        os.fsync(self._file.fileno())
        self._checkpoint = payload
        self.records = []
        self._acks = {}

    # ----------------------------------------------------------------- #
    # Recovery / introspection
    # ----------------------------------------------------------------- #
    @property
    def checkpoint_payload(self) -> dict | None:
        """The loaded checkpoint (``None`` when never checkpointed)."""
        return self._checkpoint

    def has_history(self) -> bool:
        """Whether there is anything to recover (checkpoint or tail)."""
        return self._checkpoint is not None or bool(self.records)

    def stats(self) -> dict:
        """JSON-able health snapshot for the ``stats`` control request."""
        return {
            "records": len(self.records),
            "bytes": self.log_path.stat().st_size if self.log_path.exists() else 0,
            "truncated_bytes": self.truncated_bytes,
            "checkpoint_version": (
                self._checkpoint.get("version") if self._checkpoint else None
            ),
            "known_mutation_ids": len(self._known_ids),
        }

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass

    def __enter__(self) -> "MutationWAL":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

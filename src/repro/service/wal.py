"""Per-dataset mutation write-ahead log: durability for ``mutate`` acks.

Every acknowledged ``mutate`` is recorded in an append-only, checksummed,
fsync'd log *before* the ack leaves the worker, so after a crash the
worker (or its replacement) loads the last re-frozen generation, replays
the log's tail over it, and serves answers bitwise equal to the pre-crash
dynamic index, at the same ``index_version``.

On-disk layout, per dataset under ``wal_dir``::

    <dataset>.wal             append-only record log (see framing below)
    <dataset>.snapshots/<V>/  the re-frozen generation at index_version V

A snapshot directory is :func:`~repro.sling.save_index`'s layout (store
columns, ``d̃``, the ``reduced`` mask and ``sling_meta.json``, which carries
the build seed) plus the generation's edge list (``edges.npy``) and the
mutation-id dedup set (``mutation_ids.json``).

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

**Snapshots** keep the log bounded.  After a re-freeze,
:meth:`MutationWAL.snapshot` saves the clean generation into
``<dataset>.snapshots/<V>/``, writing ``sling_meta.json`` last, and fsyncs
every file and both directories.  Only then is the log cut: a fresh log
whose first record, ``{"snapshot": V}``, names the snapshot it follows
(a log without one follows the base graph), atomically replaces the old
one.  Older snapshots are deleted after the cut.  A crash before the cut
leaves the old log, which still names the old snapshot and replays to
generation ``V`` again, the new directory ignored whole or not; a crash
after it leaves a log naming ``V``, which was durable first.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import threading
import zlib
from pathlib import Path

import numpy as np

from ..graphs import DiGraph
from ..sling import SlingIndex, has_saved_index, load_index, save_index

__all__ = ["MutationWAL", "WalCorruption"]

#: ``(length, crc32)`` header prepended to every record payload.
_HEADER = struct.Struct(">II")
#: A snapshot's edge list, ``(m, 2)`` int64 ``(source, target)`` rows.
_EDGES_FILE = "edges.npy"
#: A snapshot's mutation-id dedup set, a JSON list.
_IDS_FILE = "mutation_ids.json"


class WalCorruption(Exception):
    """The log follows a snapshot that is not on disk whole.  (A torn or
    corrupt record is not an error: recovery stops at it.)"""


def _fsync(path: Path) -> None:
    """fsync a file, or a directory so the entries made in it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frame(record: dict) -> bytes:
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


class MutationWAL:
    """The write-ahead log for one dataset session.

    :attr:`lock` serialises a mutation's apply, append and snapshot
    (``apply_mutation`` holds it), so the log order is the apply order and
    a snapshot saves the generation its records describe.
    """

    def __init__(self, directory: str | Path, dataset: str) -> None:
        self.directory = Path(directory)
        self.dataset = dataset
        safe = dataset.replace("/", "_")
        self.log_path = self.directory / f"{safe}.wal"
        self.snapshot_root = self.directory / f"{safe}.snapshots"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lock = threading.Lock()

        #: The version of the snapshot the log follows (``None``: the base
        #: graph) — read from the log's header record.
        self.snapshot_version: int | None = None
        #: Intact tail records (mutations since the snapshot), in append
        #: order — exactly what recovery replays over the snapshot.
        self.records: list[dict] = []
        #: mutation_id -> recorded ack, for tail records that carried one.
        self._acks: dict[str, dict] = {}
        #: Every mutation_id this log has ever acknowledged (snapshot ids
        #: included) — the dedup set.
        self._known_ids: set[str] = set()
        #: Bytes discarded from the log tail on open (torn/corrupt suffix).
        self.truncated_bytes = 0

        self._load_log()
        if self.snapshot_version is not None:
            snapshot = self.snapshot_root / str(self.snapshot_version)
            if not has_saved_index(snapshot):
                # The log is cut only after its snapshot is durable, so a
                # missing one means outside interference; recovering the
                # base graph would silently lose acked mutations.
                raise WalCorruption(
                    f"{self.log_path} follows snapshot {snapshot}, which is "
                    "incomplete"
                )
            ids = json.loads((snapshot / _IDS_FILE).read_text(encoding="utf-8"))
            self._known_ids.update(ids)
        #: The open log, appended to by :meth:`append`.  Fault drills wrap
        #: it to make writes fail.
        self.log_file = open(self.log_path, "ab")

    # ----------------------------------------------------------------- #
    # Loading
    # ----------------------------------------------------------------- #
    def _load_log(self) -> None:
        """Read intact records; truncate any torn/corrupt suffix in place."""
        data = self.log_path.read_bytes() if self.log_path.exists() else b""
        offset = 0
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
            if offset == 0 and "snapshot" in record:
                self.snapshot_version = int(record["snapshot"])
            else:
                self._admit(record)
            offset = end
        self.truncated_bytes = len(data) - offset
        if self.truncated_bytes:
            with open(self.log_path, "r+b") as fh:
                fh.truncate(offset)
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

    def load_snapshot(self, graph: DiGraph) -> SlingIndex | None:
        """The generation the log follows, read eagerly into memory, or
        ``None`` when it follows the base graph.

        ``graph`` is the base graph; the snapshot's graph is rebuilt from
        its saved edge list with the base graph's node labels.
        """
        if self.snapshot_version is None:
            return None
        directory = self.snapshot_root / str(self.snapshot_version)
        labels = list(map(graph.label_of, graph.nodes())) if graph.has_labels else None
        snapshot_graph = DiGraph(
            graph.num_nodes, np.load(directory / _EDGES_FILE), labels=labels
        )
        return load_index(directory, snapshot_graph, mmap_mode=None)

    # ----------------------------------------------------------------- #
    # Dedup
    # ----------------------------------------------------------------- #
    def known(self, mutation_id: str) -> bool:
        """Whether this id was ever acknowledged (tail or snapshot)."""
        return mutation_id in self._known_ids

    def recorded_ack(self, mutation_id: str) -> dict | None:
        """The originally recorded ack, when the record still has it.

        Ids that a snapshot absorbed keep their dedup guarantee
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
            "add": [[int(u), int(v)] for u, v in add],
            "remove": [[int(u), int(v)] for u, v in remove],
            "refreeze": bool(refreeze),
        }
        if mutation_id is not None:
            record["mutation_id"] = mutation_id
            record["ack"] = ack
        self.log_file.write(_frame(record))
        self.log_file.flush()
        os.fsync(self.log_file.fileno())
        self._admit(record)

    # ----------------------------------------------------------------- #
    # Snapshots
    # ----------------------------------------------------------------- #
    def snapshot(self, index) -> None:
        """Save ``index``'s clean generation and cut the log to follow it.

        ``index`` is the session's re-frozen
        :class:`~repro.sling.DynamicSlingIndex`.  A generation whose version
        the log already follows is not saved again: no mutation changed it
        since.  Raises ``OSError`` when the snapshot cannot be made
        durable; the log then still follows the previous snapshot and
        holds every record, so nothing is lost.
        """
        version = index.version
        if version == (self.snapshot_version or 0):
            return
        target = self.snapshot_root / str(version)
        shutil.rmtree(target, ignore_errors=True)  # an earlier, cut-short try
        target.mkdir(parents=True)
        indptr, targets = index.graph.out_csr()
        sources = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
        np.save(target / _EDGES_FILE, np.column_stack([sources, targets]))
        (target / _IDS_FILE).write_text(
            json.dumps(sorted(self._known_ids)), encoding="utf-8"
        )
        save_index(index, target)
        for path in (*target.iterdir(), target, self.snapshot_root):
            _fsync(path)

        fresh = self.log_path.with_name(self.log_path.name + ".tmp")
        with open(fresh, "wb") as fh:
            fh.write(_frame({"snapshot": version}))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(fresh, self.log_path)
        _fsync(self.directory)
        self.log_file.close()
        self.log_file = open(self.log_path, "ab")
        self.snapshot_version = version
        self.records = []
        self._acks = {}
        for stale in self.snapshot_root.iterdir():
            if stale != target:
                shutil.rmtree(stale, ignore_errors=True)

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #
    def stats(self) -> dict:
        """JSON-able health snapshot for the ``stats`` control request."""
        return {
            "records": len(self.records),
            "bytes": self.log_path.stat().st_size if self.log_path.exists() else 0,
            "truncated_bytes": self.truncated_bytes,
            "snapshot_version": self.snapshot_version,
            "known_mutation_ids": len(self._known_ids),
        }

    def close(self) -> None:
        try:
            self.log_file.close()
        except OSError:
            pass

    def __enter__(self) -> "MutationWAL":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

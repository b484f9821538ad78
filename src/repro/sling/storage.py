"""Index persistence and out-of-core construction (Section 5.4).

The paper notes that SLING does not need the whole index in main memory:

* only the ``n`` correction factors must stay resident; the per-node hitting
  sets ``H(v)`` can live on disk and be fetched with O(1) I/O per query,
* during construction the per-target residual sets ``R_k`` can be streamed to
  disk and an external sort by source node then produces the per-source sets.

This module implements both sides on top of the packed columnar store of
:mod:`repro.sling.packed`:

* :func:`save_index` / :func:`load_index` — the store's flat arrays are
  written as individual ``.npy`` files (format version 2) and loaded back
  with ``np.load(..., mmap_mode="r")``: **no dict round-trip**, so loading is
  O(1)-ish in index size.  The loaded :class:`SlingIndex` is the disk-backed
  index: it answers through the same query core as an in-memory build,
  and a pair query slices exactly two node segments out of the mapped
  columns,
* :func:`out_of_core_build` — Algorithm 2 with a bounded in-memory buffer:
  the push operator is built once, the targets are pushed one column block
  at a time, and each block's records are cut into runs of the buffer's size
  and spilled, then packed straight into the store by the in-memory build's
  own constructor, mimicking the Figure-10 experiment where the memory
  buffer is varied from 256 MB down.

Directories written in any other format version are rejected with a
:class:`~repro.exceptions.StorageError`; re-save them with this version.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import ParameterError, StorageError
from ..graphs import DiGraph
from .correction import estimate_all_correction_factors
from .hitting import HittingRecords, hitting_record_blocks
from .index import SlingIndex
from .packed import PackedHittingStore
from .parameters import SlingParameters
from .walks import SqrtCWalker

__all__ = [
    "save_index",
    "load_index",
    "has_saved_index",
    "out_of_core_build",
    "OutOfCoreBuildReport",
]

_META_FILE = "sling_meta.json"
_CORRECTIONS_FILE = "sling_corrections.npy"
_REDUCED_FILE = "sling_reduced.npy"
#: Current on-disk format: per-column ``.npy`` files, memory-mappable.
FORMAT_VERSION = 2
#: One spilled hitting-probability record: source, level, target, value.  The
#: value keeps all 64 bits, so the packed store matches an in-memory build.
_RECORD_DTYPE = np.dtype(
    [("source", "<i4"), ("level", "<i4"), ("target", "<i4"), ("value", "<f8")]
)
RECORD_BYTES = _RECORD_DTYPE.itemsize


# --------------------------------------------------------------------------- #
# Save / load
# --------------------------------------------------------------------------- #
def save_index(index: SlingIndex, directory: str | Path) -> Path:
    """Serialize a built index to ``directory`` (created if missing).

    The packed store's columns are written directly as uncompressed ``.npy``
    files — the on-disk layout *is* the query-time layout, which is what
    makes the zero-copy ``mmap`` load possible.
    """
    if not index.is_built:
        raise StorageError("cannot save an index that has not been built")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    state = index._serving()
    state.store.save(directory)
    np.save(directory / _CORRECTIONS_FILE, state.corrections)
    reduced = (
        state.reduced
        if state.reduced is not None
        else np.zeros(index.graph.num_nodes, dtype=bool)
    )
    np.save(directory / _REDUCED_FILE, reduced)
    params = index.parameters
    meta = {
        "format_version": FORMAT_VERSION,
        "num_nodes": index.graph.num_nodes,
        "num_edges": index.graph.num_edges,
        "c": params.c,
        "epsilon": params.epsilon,
        "delta": params.delta,
        "epsilon_d": params.epsilon_d,
        "theta": params.theta,
        "delta_d": params.delta_d,
        "reduce_space": state.reduced is not None,
        "enhance_accuracy": state.enhancer is not None,
    }
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return directory


def has_saved_index(directory: str | Path) -> bool:
    """Whether ``directory`` holds a saved index (its metadata file exists).

    The cheap existence probe used to decide between attaching to a prebuilt
    index (``BackendConfig.reuse_saved_index``, the worker-pool path) and
    building one; actual loading still validates the graph shape.
    """
    return (Path(directory) / _META_FILE).exists()


def _read_meta(directory: Path) -> dict:
    meta_path = directory / _META_FILE
    if not meta_path.exists():
        raise StorageError(f"no SLING index metadata found at {meta_path}")
    try:
        return json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt index metadata at {meta_path}: {exc}") from exc


def _params_from_meta(meta: dict) -> SlingParameters:
    return SlingParameters(
        c=meta["c"],
        epsilon=meta["epsilon"],
        delta=meta["delta"],
        epsilon_d=meta["epsilon_d"],
        theta=meta["theta"],
        delta_d=meta["delta_d"],
    )


def _load_arrays(
    directory: Path, meta: dict, *, mmap_mode: str | None
) -> tuple[np.ndarray, PackedHittingStore, np.ndarray]:
    """Read ``(corrections, store, reduced)`` of a current-format directory."""
    version = meta.get("format_version", 1)
    if version != FORMAT_VERSION:
        raise StorageError(
            f"index at {directory} has on-disk format version {version}, but "
            f"only version {FORMAT_VERSION} is supported; re-save with this "
            "version (build the index and call save_index)"
        )
    arrays = []
    for filename in (_CORRECTIONS_FILE, _REDUCED_FILE):
        path = directory / filename
        if not path.exists():
            raise StorageError(f"missing index data at {path}")
        arrays.append(np.load(path))
    corrections, reduced = arrays
    store = PackedHittingStore.load(directory, mmap_mode=mmap_mode)
    return corrections, store, np.asarray(reduced, dtype=bool)


def load_index(
    directory: str | Path, graph: DiGraph, *, mmap_mode: str | None = "r"
) -> SlingIndex:
    """Load a previously saved index and attach it to ``graph``.

    With the default ``mmap_mode="r"`` the packed columns are memory-mapped,
    not read: the load touches only file headers plus the ``8n`` bytes of
    correction factors, and subsequent queries slice pages in on demand.
    Pass ``mmap_mode=None`` to read everything eagerly into RAM.

    The graph must be the one the index was built on (node and edge counts are
    verified); loading against a different graph raises :class:`StorageError`.
    """
    directory = Path(directory)
    meta = _read_meta(directory)
    if meta["num_nodes"] != graph.num_nodes or meta["num_edges"] != graph.num_edges:
        raise StorageError(
            "graph mismatch: the index was built on a graph with "
            f"n={meta['num_nodes']}, m={meta['num_edges']} but the supplied graph "
            f"has n={graph.num_nodes}, m={graph.num_edges}"
        )
    corrections, store, reduced = _load_arrays(directory, meta, mmap_mode=mmap_mode)
    index = SlingIndex(
        graph,
        parameters=_params_from_meta(meta),
        reduce_space=meta["reduce_space"],
        enhance_accuracy=meta["enhance_accuracy"],
    )
    # The same attach step as SlingIndex.build: the reconstruction and
    # enhancement overlays are restored, so a loaded index answers queries
    # bitwise-identically to the index that was saved.
    index._attach(corrections, store, reduced)
    return index


# --------------------------------------------------------------------------- #
# Out-of-core construction
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class OutOfCoreBuildReport:
    """Outcome of an out-of-core build (the Figure-10 measurement unit)."""

    directory: Path
    buffer_bytes: int
    num_records: int
    num_spill_runs: int
    elapsed_seconds: float
    correction_seconds: float
    push_seconds: float
    merge_seconds: float


def _spill_run(records: HittingRecords, run_path: Path) -> None:
    """Write a buffer of records as a binary run file."""
    rows = np.empty(records.num_records, dtype=_RECORD_DTYPE)
    rows["source"] = records.sources
    rows["level"] = records.levels
    rows["target"] = records.targets
    rows["value"] = records.values
    rows.tofile(run_path)


def _read_runs(num_nodes: int, run_paths: list[Path]) -> HittingRecords:
    """The records of every run file, in spill order."""
    rows = np.concatenate(
        [np.fromfile(path, dtype=_RECORD_DTYPE) for path in run_paths]
    )
    return HittingRecords(
        num_nodes, rows["source"], rows["level"], rows["target"], rows["value"]
    )


def out_of_core_build(
    graph: DiGraph,
    params: SlingParameters,
    work_directory: str | Path,
    *,
    buffer_bytes: int = 256 * 1024 * 1024,
    seed: int | None = None,
) -> OutOfCoreBuildReport:
    """Build a SLING index with a bounded in-memory record buffer.

    The correction factors are computed in memory (they need only
    ``8n`` bytes).  The push records come from
    :func:`~repro.sling.hitting.hitting_record_blocks`, one block of
    :data:`~repro.sling.hitting.BLOCK_WIDTH` targets at a time, and are cut
    into runs of exactly ``buffer_bytes`` worth of records (the last run may
    be shorter), each spilled to a run file as soon as it is full.  Memory
    therefore holds at most the buffer plus one block's records and frontiers.
    The runs are read back and packed by the same
    :meth:`~repro.sling.packed.PackedHittingStore.from_hitting_sets` as an
    in-memory build, whose per-source sort is the external sort's merge.
    The saved index is therefore bitwise identical to
    ``SlingIndex(graph, parameters=params, seed=seed).build()``.

    Returns an :class:`OutOfCoreBuildReport`; the finished index can then be
    loaded (memory-mapped) with :func:`load_index`.
    """
    if buffer_bytes < RECORD_BYTES:
        raise ParameterError(
            f"buffer_bytes must be at least {RECORD_BYTES}, got {buffer_bytes}"
        )
    work_directory = Path(work_directory)
    work_directory.mkdir(parents=True, exist_ok=True)
    runs_directory = work_directory / "runs"
    runs_directory.mkdir(exist_ok=True)

    start_total = time.perf_counter()

    start = time.perf_counter()
    corrections = estimate_all_correction_factors(
        SqrtCWalker(graph, params.c, seed=seed), params.epsilon_d, params.delta_d
    )
    correction_seconds = time.perf_counter() - start

    run_records = max(1, buffer_bytes // RECORD_BYTES)
    run_paths: list[Path] = []
    num_records = 0

    def spill(records: HittingRecords) -> None:
        run_path = runs_directory / f"run_{len(run_paths):06d}.bin"
        _spill_run(records, run_path)
        run_paths.append(run_path)

    start = time.perf_counter()
    held = HittingRecords.empty(graph.num_nodes)
    for block in hitting_record_blocks(graph, params.sqrt_c, params.theta):
        num_records += block.num_records
        pending = HittingRecords.concatenate([held, block])
        full = pending.num_records - pending.num_records % run_records
        for cut in range(0, full, run_records):
            spill(pending.take(slice(cut, cut + run_records)))
        held = pending.take(slice(full, None))
    if held.num_records:
        spill(held)
    push_seconds = time.perf_counter() - start

    start = time.perf_counter()
    store = PackedHittingStore.from_hitting_sets(
        _read_runs(graph.num_nodes, run_paths)
    )
    merge_seconds = time.perf_counter() - start

    index = SlingIndex(graph, parameters=params, seed=seed)
    index._attach(corrections, store, None)
    save_index(index, work_directory / "index")

    for path in run_paths:
        path.unlink(missing_ok=True)

    return OutOfCoreBuildReport(
        directory=work_directory / "index",
        buffer_bytes=buffer_bytes,
        num_records=num_records,
        num_spill_runs=len(run_paths),
        elapsed_seconds=time.perf_counter() - start_total,
        correction_seconds=correction_seconds,
        push_seconds=push_seconds,
        merge_seconds=merge_seconds,
    )

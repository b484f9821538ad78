"""Packed columnar hitting-set store: the query-time representation of SLING.

The dict-of-dicts :class:`~repro.sling.hitting.HittingProbabilitySet` is the
natural *build-time* container — reverse pushes insert entries one at a time —
but it is a poor *query-time* one: Algorithm 3 degenerates into a Python loop
with two hash probes per entry, and Algorithm 6 rebuilds numpy frontiers with
``np.fromiter`` on every query.  This module provides the frozen columnar
layout both query algorithms actually want:

* :class:`PackedHittingStore` — all hitting sets of an index as four flat
  arrays: per-node ``offsets`` into ``(levels, targets, values)`` columns,
  with each node's entries sorted by the combined key
  ``(level << LEVEL_SHIFT) | target``.  The sorted ``keys`` column is stored
  alongside so queries never recompute it.
* :class:`QueryView` — one node's entries as aligned column slices (zero-copy
  against the store, including a memory-mapped on-disk store), plus the
  copy-on-write ``override`` used to compose the Section-5.2/5.3 per-query
  overlays without rebuilding dicts.
* :func:`intersect_views` — the vectorized Algorithm-3 kernel: a sorted-key
  intersection (binary-search formulation of ``np.intersect1d`` on the
  combined keys) followed by a single dot product with
  ``corrections[targets]``.

Dict-based sets exist only at build time: :meth:`PackedHittingStore.from_hitting_sets`
freezes them, and every query reads the columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import StorageError
from .hitting import HittingProbabilitySet

__all__ = [
    "LEVEL_SHIFT",
    "TARGET_MASK",
    "PackedHittingStore",
    "QueryView",
    "pack_keys",
    "intersect_views",
]

#: Bit position of the level in the combined sort key.  Targets are int32
#: node ids (< 2^31), so 40 bits leave the level comfortably clear of them.
LEVEL_SHIFT = 40

#: Mask extracting the target node id from a combined key.
TARGET_MASK = (np.int64(1) << LEVEL_SHIFT) - 1

#: Column dtypes of the packed layout.
_OFFSET_DTYPE = np.int64
_LEVEL_DTYPE = np.int32
_TARGET_DTYPE = np.int32
_VALUE_DTYPE = np.float64
_KEY_DTYPE = np.int64

#: Logical bytes per packed entry (level, target, value) — the quantity the
#: paper's Figure 4 reports.
ENTRY_BYTES = 12

#: File names of the persisted columns (shared with :mod:`repro.sling.storage`).
_COLUMN_FILES = {
    "offsets": "sling_offsets.npy",
    "levels": "sling_levels.npy",
    "targets": "sling_targets.npy",
    "values": "sling_values.npy",
    "keys": "sling_keys.npy",
}


def pack_keys(levels: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Combine ``(level, target)`` pairs into sortable int64 keys."""
    return (levels.astype(_KEY_DTYPE) << LEVEL_SHIFT) | targets.astype(_KEY_DTYPE)


class QueryView:
    """One node's hitting set as aligned, key-sorted column slices.

    ``keys``, ``levels``, ``targets`` and ``values`` are parallel arrays
    sorted by ``keys`` (level-major, then target).  Views taken from a store
    are zero-copy slices — including slices of a memory-mapped on-disk store —
    and must never be mutated; :meth:`override` composes per-query overlays
    copy-on-write instead.
    """

    __slots__ = ("keys", "levels", "targets", "values")

    def __init__(
        self,
        keys: np.ndarray,
        levels: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.keys = keys
        self.levels = levels
        self.targets = targets
        self.values = values

    @property
    def num_entries(self) -> int:
        """Number of hitting probabilities in the view."""
        return int(self.keys.shape[0])

    def contains(self, level: int, target: int) -> bool:
        """Whether a positive probability is stored at ``(level, target)``.

        The accuracy enhancement uses exactly this membership test.
        """
        key = (np.int64(level) << LEVEL_SHIFT) | np.int64(target)
        pos = int(np.searchsorted(self.keys, key))
        return (
            pos < self.keys.shape[0]
            and self.keys[pos] == key
            and self.values[pos] > 0.0
        )

    def level_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-level run boundaries as ``(levels, starts, stops)`` arrays.

        Levels are contiguous runs because the view is sorted level-major.
        Exposed separately from :meth:`iter_levels` so the bounded top-k
        cascade can decide which levels to materialise *before* touching any
        (possibly memory-mapped) ``targets`` / ``values`` data.
        """
        levels = self.levels
        if levels.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        boundaries = np.flatnonzero(np.diff(levels)) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        stops = np.concatenate((boundaries, [levels.shape[0]]))
        return np.asarray(levels)[starts].astype(np.int64), starts, stops

    def iter_levels(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(level, targets, values)`` per level, ascending.

        Levels are contiguous runs because the view is sorted level-major;
        targets within a level are ascending.
        """
        run_levels, starts, stops = self.level_segments()
        for level, start, stop in zip(run_levels, starts, stops):
            yield int(level), self.targets[start:stop], self.values[start:stop]

    def override(
        self, entries: Iterable[tuple[int, int, float]]
    ) -> "QueryView":
        """Return a new view with ``entries`` replacing/inserting positions.

        An entry whose ``(level, target)`` position already exists replaces
        the stored value (exact Algorithm-5 values take precedence over the
        stored approximations); new positions are merged in key order.  The
        receiver — possibly a zero-copy store slice — is left untouched.
        Positions within ``entries`` must be distinct.
        """
        entries = list(entries)
        if not entries:
            return self
        new_levels = np.array([e[0] for e in entries], dtype=_LEVEL_DTYPE)
        new_targets = np.array([e[1] for e in entries], dtype=_TARGET_DTYPE)
        new_values = np.array([e[2] for e in entries], dtype=_VALUE_DTYPE)
        new_keys = pack_keys(new_levels, new_targets)
        order = np.argsort(new_keys)
        new_keys = new_keys[order]
        new_levels = new_levels[order]
        new_targets = new_targets[order]
        new_values = new_values[order]

        base_keys = np.asarray(self.keys)
        if base_keys.shape[0]:
            pos = np.searchsorted(base_keys, new_keys)
            hit = pos < base_keys.shape[0]
            hit[hit] = base_keys[pos[hit]] == new_keys[hit]
        else:
            pos = np.zeros(new_keys.shape[0], dtype=np.int64)
            hit = np.zeros(new_keys.shape[0], dtype=bool)

        values = np.array(self.values, dtype=_VALUE_DTYPE, copy=True)
        values[pos[hit]] = new_values[hit]
        if bool(hit.all()):
            return QueryView(
                base_keys, np.asarray(self.levels), np.asarray(self.targets), values
            )
        miss = ~hit
        where = pos[miss]
        return QueryView(
            np.insert(base_keys, where, new_keys[miss]),
            np.insert(np.asarray(self.levels), where, new_levels[miss]),
            np.insert(np.asarray(self.targets), where, new_targets[miss]),
            np.insert(values, where, new_values[miss]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryView(num_entries={self.num_entries})"


def intersect_views(
    view_u: QueryView, view_v: QueryView, corrections: np.ndarray
) -> float:
    """Algorithm 3 on two packed views: ``Σ h̃^(ℓ)(u,k) · d̃_k · h̃^(ℓ)(v,k)``.

    The intersection on combined keys is the binary-search formulation of
    ``np.intersect1d(keys_u, keys_v, assume_unique=True)``: the smaller side
    probes the larger with one :func:`numpy.searchsorted`, which avoids the
    concatenate-and-sort ``intersect1d`` performs and keeps the warm-path
    allocation count constant.  The matched values collapse into a single dot
    product with ``corrections[targets]``.
    """
    keys_u, keys_v = view_u.keys, view_v.keys
    if keys_u.shape[0] == 0 or keys_v.shape[0] == 0:
        return 0.0
    if keys_u.shape[0] <= keys_v.shape[0]:
        probe_keys, probe_values = keys_u, view_u.values
        base_keys, base_values = keys_v, view_v.values
    else:
        probe_keys, probe_values = keys_v, view_v.values
        base_keys, base_values = keys_u, view_u.values
    pos = np.searchsorted(base_keys, probe_keys)
    valid = pos < base_keys.shape[0]
    if not bool(valid.all()):
        pos = pos[valid]
        probe_keys = probe_keys[valid]
        probe_values = np.asarray(probe_values)[valid]
    hit = base_keys[pos] == probe_keys
    if not bool(hit.any()):
        return 0.0
    targets = probe_keys[hit] & TARGET_MASK
    score = float(
        np.dot(
            np.asarray(probe_values)[hit] * corrections[targets],
            np.asarray(base_values)[pos[hit]],
        )
    )
    return min(1.0, score)


class PackedHittingStore:
    """All hitting sets of one index as flat, query-native numpy columns.

    Layout: node ``v``'s entries live at ``offsets[v]:offsets[v+1]`` in the
    parallel ``levels`` / ``targets`` / ``values`` columns, sorted by the
    combined key ``(level << LEVEL_SHIFT) | target`` (also stored, as
    ``keys``).  The store is frozen: queries only ever slice it, so it can be
    shared across threads and backed by memory-mapped files without locking.
    """

    __slots__ = ("offsets", "levels", "targets", "values", "keys", "_level_stats")

    def __init__(
        self,
        offsets: np.ndarray,
        levels: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> None:
        self.offsets = offsets
        self.levels = levels
        self.targets = targets
        self.values = values
        self.keys = pack_keys(levels, targets) if keys is None else keys
        self._level_stats: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_hitting_sets(
        cls, hitting_sets: Sequence[HittingProbabilitySet]
    ) -> "PackedHittingStore":
        """Freeze build-time dict sets into the packed columnar layout."""
        num_nodes = len(hitting_sets)
        counts = np.fromiter(
            (len(hs) for hs in hitting_sets), dtype=_OFFSET_DTYPE, count=num_nodes
        )
        offsets = np.zeros(num_nodes + 1, dtype=_OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        levels = np.empty(total, dtype=_LEVEL_DTYPE)
        targets = np.empty(total, dtype=_TARGET_DTYPE)
        values = np.empty(total, dtype=_VALUE_DTYPE)
        cursor = 0
        for hitting_set in hitting_sets:
            for level, target, value in hitting_set.items():
                levels[cursor] = level
                targets[cursor] = target
                values[cursor] = value
                cursor += 1
        return cls.from_columns(offsets, levels, targets, values)

    @classmethod
    def from_columns(
        cls,
        offsets: np.ndarray,
        levels: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
    ) -> "PackedHittingStore":
        """Build a store from node-grouped columns in arbitrary entry order.

        Entries must already be grouped per node according to ``offsets``;
        this sorts each node's segment by the combined key (one global stable
        lexsort, no Python loop).
        """
        offsets = np.asarray(offsets, dtype=_OFFSET_DTYPE)
        levels = np.asarray(levels, dtype=_LEVEL_DTYPE)
        targets = np.asarray(targets, dtype=_TARGET_DTYPE)
        values = np.asarray(values, dtype=_VALUE_DTYPE)
        keys = pack_keys(levels, targets)
        node_ids = np.repeat(
            np.arange(offsets.shape[0] - 1, dtype=np.int64), np.diff(offsets)
        )
        order = np.lexsort((keys, node_ids))
        return cls(offsets, levels[order], targets[order], values[order], keys[order])

    @classmethod
    def from_records(
        cls,
        num_nodes: int,
        sources: np.ndarray,
        levels: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
    ) -> "PackedHittingStore":
        """Build a store from flat ``(source, level, target, value)`` records.

        Used by the out-of-core builder: the externally merged record stream
        becomes the packed index directly, with no dict round-trip.
        """
        sources = np.asarray(sources, dtype=np.int64)
        counts = np.bincount(sources, minlength=num_nodes)
        offsets = np.zeros(num_nodes + 1, dtype=_OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        levels = np.asarray(levels, dtype=_LEVEL_DTYPE)
        targets = np.asarray(targets, dtype=_TARGET_DTYPE)
        values = np.asarray(values, dtype=_VALUE_DTYPE)
        keys = pack_keys(levels, targets)
        order = np.lexsort((keys, sources))
        return cls(offsets, levels[order], targets[order], values[order], keys[order])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes the store covers."""
        return int(self.offsets.shape[0] - 1)

    @property
    def num_entries(self) -> int:
        """Total number of stored hitting probabilities (O(1))."""
        return int(self.values.shape[0])

    def entry_counts(self) -> np.ndarray:
        """Stored entries per node as an ``(n,)`` array."""
        return np.diff(self.offsets)

    def size_bytes(self) -> int:
        """Logical packed size: 12 bytes per (level, target, value) entry.

        This is the Figure-4 accounting unit shared with
        :meth:`~repro.sling.hitting.HittingProbabilitySet.size_bytes`.
        """
        return ENTRY_BYTES * self.num_entries

    @property
    def nbytes(self) -> int:
        """Actual footprint of all columns, including the keys column."""
        return int(
            self.offsets.nbytes
            + self.levels.nbytes
            + self.targets.nbytes
            + self.values.nbytes
            + self.keys.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedHittingStore(num_nodes={self.num_nodes}, "
            f"num_entries={self.num_entries})"
        )

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def slice_bounds(self, node: int) -> tuple[int, int]:
        """The ``[start, stop)`` range of ``node``'s entries in the columns."""
        return int(self.offsets[node]), int(self.offsets[node + 1])

    def node_entries(self, node: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(levels, targets, values)`` slices for one node."""
        start, stop = self.slice_bounds(node)
        return (
            self.levels[start:stop],
            self.targets[start:stop],
            self.values[start:stop],
        )

    def node_view(self, node: int) -> QueryView:
        """Zero-copy :class:`QueryView` of one node's entries."""
        start, stop = self.slice_bounds(node)
        return QueryView(
            self.keys[start:stop],
            self.levels[start:stop],
            self.targets[start:stop],
            self.values[start:stop],
        )

    # ------------------------------------------------------------------ #
    # Per-level residual-mass metadata (bounded top-k pruning)
    # ------------------------------------------------------------------ #
    def level_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-``(node, level)`` residual-mass summaries of the whole store.

        Returns ``(stat_offsets, stat_levels, stat_totals, stat_maxima)``:
        node ``v``'s per-level groups live at
        ``stat_offsets[v]:stat_offsets[v+1]`` in the parallel ``stat_levels``
        / ``stat_totals`` / ``stat_maxima`` arrays, where for each stored
        level ``ℓ`` of ``v``, ``stat_totals`` is ``Σ_k h̃^(ℓ)(v, k)`` and
        ``stat_maxima`` is ``max_k h̃^(ℓ)(v, k)``.

        These are the residual-mass upper bounds the bounded top-k cascade
        prunes with: the step-ℓ mass a single-source query from ``v`` can
        still deliver to any *one* node is at most
        ``(√c)^ℓ · max_k h̃^(ℓ)(v,k) · max_j d̃_j`` (each pushed unit spreads
        over at most ``(√c)^ℓ`` of total hitting probability, Lemma 7), and
        the aggregate over all nodes is bounded by the same expression with
        the total in place of the max.

        Computed lazily in one vectorised pass over the columns (entries are
        sorted node-major then level-major, so groups are contiguous runs)
        and cached; for a memory-mapped store this faults the ``levels`` and
        ``values`` columns in once.  The cache is in plain RAM and sized
        ``O(n · levels)``, far below the entry columns themselves.
        """
        if self._level_stats is None:
            num_nodes = self.num_nodes
            stat_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
            if self.num_entries == 0:
                empty_levels = np.empty(0, dtype=np.int64)
                empty_stats = np.empty(0, dtype=np.float64)
                self._level_stats = (
                    stat_offsets, empty_levels, empty_stats, empty_stats
                )
            else:
                node_ids = np.repeat(
                    np.arange(num_nodes, dtype=np.int64), np.diff(self.offsets)
                )
                levels = np.asarray(self.levels, dtype=np.int64)
                values = np.asarray(self.values, dtype=np.float64)
                change = np.flatnonzero(
                    (np.diff(node_ids) != 0) | (np.diff(levels) != 0)
                )
                group_starts = np.concatenate(
                    (np.zeros(1, dtype=np.int64), change + 1)
                )
                group_counts = np.bincount(
                    node_ids[group_starts], minlength=num_nodes
                )
                np.cumsum(group_counts, out=stat_offsets[1:])
                self._level_stats = (
                    stat_offsets,
                    levels[group_starts],
                    np.add.reduceat(values, group_starts),
                    np.maximum.reduceat(values, group_starts),
                )
        return self._level_stats

    def node_level_stats(
        self, node: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One node's ``(levels, totals, maxima)`` residual-mass summaries."""
        stat_offsets, stat_levels, stat_totals, stat_maxima = self.level_stats()
        start, stop = int(stat_offsets[node]), int(stat_offsets[node + 1])
        return (
            stat_levels[start:stop],
            stat_totals[start:stop],
            stat_maxima[start:stop],
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, directory: str | Path) -> None:
        """Write each column as an uncompressed ``.npy`` file.

        Plain ``.npy`` files (rather than one ``.npz`` archive) are what
        makes the zero-copy load path possible: ``np.load(..., mmap_mode)``
        only memory-maps standalone ``.npy`` files.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for attribute, filename in _COLUMN_FILES.items():
            # Write-to-temp + atomic rename: saving a store whose columns are
            # memory-mapped from these very files must not truncate the file
            # it is still reading from (the old mapping keeps the replaced
            # inode alive), and a crash mid-write cannot corrupt the index.
            temporary = directory / ("tmp." + filename)  # keeps the .npy suffix
            np.save(temporary, getattr(self, attribute))
            temporary.replace(directory / filename)

    @classmethod
    def load(
        cls, directory: str | Path, *, mmap_mode: str | None = "r"
    ) -> "PackedHittingStore":
        """Load a saved store, memory-mapping the columns by default.

        With ``mmap_mode="r"`` no column data is read eagerly — the load cost
        is a handful of header reads regardless of index size, and queries
        fault in only the pages their slices touch (the Section-5.4
        out-of-core story with zero per-query deserialisation).
        """
        directory = Path(directory)
        columns: dict[str, np.ndarray] = {}
        for attribute, filename in _COLUMN_FILES.items():
            path = directory / filename
            if not path.exists():
                raise StorageError(f"missing packed index column at {path}")
            try:
                columns[attribute] = np.load(path, mmap_mode=mmap_mode)
            except ValueError:
                # Zero-length columns cannot be memory-mapped; fall back to a
                # regular (still tiny) read.
                columns[attribute] = np.load(path)
        return cls(**columns)

    # ------------------------------------------------------------------ #
    # Invariants (exercised by the property tests)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Raise :class:`StorageError` when the packed layout is malformed."""
        offsets = np.asarray(self.offsets)
        if offsets.ndim != 1 or offsets.shape[0] < 1:
            raise StorageError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0 or int(offsets[-1]) != self.num_entries:
            raise StorageError("offsets must start at 0 and end at num_entries")
        if np.any(np.diff(offsets) < 0):
            raise StorageError("offsets must be monotone non-decreasing")
        lengths = {self.levels.shape[0], self.targets.shape[0],
                   self.values.shape[0], self.keys.shape[0]}
        if lengths != {self.num_entries}:
            raise StorageError("column lengths disagree")
        if not np.array_equal(
            np.asarray(self.keys), pack_keys(self.levels, self.targets)
        ):
            raise StorageError("keys column disagrees with (levels, targets)")
        for node in range(self.num_nodes):
            start, stop = self.slice_bounds(node)
            segment = self.keys[start:stop]
            if segment.shape[0] > 1 and np.any(np.diff(segment) <= 0):
                raise StorageError(
                    f"keys of node {node} are not strictly increasing"
                )

"""Dynamic SLING: incremental index maintenance over a mutating graph.

Every structure built so far assumes a frozen graph — one edge change forces
a full :meth:`SlingIndex.build`.  This module exploits the locality of
SLING's walk decomposition to avoid that: a hitting-probability entry
``h̃^(ℓ)(v, t)`` only changes when a reverse-push walk from ``t`` crosses a
modified edge, and a correction factor ``d̃_k`` only changes structurally
when ``|I(k)|`` changes.  :class:`DynamicSlingIndex` therefore repairs a
mutation batch in three local steps:

1. **Affected-target detection.**  Let ``D`` be the *detection set*: the
   tails and heads of the changed edges plus the pre-mutation in-neighbours
   of every head.  A reverse push from any target ``t`` behaves identically
   on the old and new graphs until its frontier first touches a changed
   edge or a changed in-degree — and at that first divergence the pushing
   node ``d ∈ D`` holds kept (``> θ``) mass from ``t``, i.e. ``t`` appears
   in ``d``'s current hitting set.  The affected-target set is therefore
   exactly ``T = ⋃_{d∈D} targets(H(d))`` — cheap to read off the packed
   store, and an over-approximation is harmless (re-pushing an unchanged
   target produces identical entries).

2. **Local repair.**  For every ``t ∈ T`` the reverse push is re-run on the
   old and the new graph (:func:`~repro.sling.hitting.reverse_push` both
   times — the old run enumerates exactly the stored positions, the new run
   the replacement values).  Differences become copy-on-write overlay
   patches per source node: fresh values for new/changed positions and
   value-``0.0`` tombstones for positions that disappeared (legitimate
   stored values are always ``> θ > 0``, so ``0.0`` unambiguously means
   "deleted", contributes nothing to a dot product, and pushes no mass).
   Correction factors are re-estimated only for the heads (whose
   ``c/|I(k)|`` term changed discretely).  ``d̃_k`` draws from node ``k``'s
   own stream, seeded by ``(seed, k)`` alone, so a repaired head's factor is
   bitwise the one a rebuild on the new graph computes.

3. **Bounded-staleness serving.**  Queries read an immutable *generation*
   — a :class:`~repro.sling.query.ServingState` ``(graph, store,
   corrections, overlay, version)`` — grabbed once per query by the shared
   query core; mutations and re-freezes publish a new generation atomically
   and never touch an old one, so readers are never blocked and an old
   generation is retired by the garbage collector once its in-flight
   queries drain.  While deltas are outstanding the repaired hitting
   entries are exact for the new graph but far-away correction factors may
   carry second-order drift (their meeting probability ``µ`` is estimated
   on walks of the old graph); :meth:`DynamicSlingIndex.staleness_bound`
   therefore certifies ``ε_stale = 2ε`` — the overlay answer and a
   from-scratch rebuild each carry the Theorem-1 budget ``ε`` against the
   new graph's SimRank under the standard sampling guarantees, so they
   agree within ``2ε`` — and reports ``0.0`` once a re-freeze has landed.

**Re-freeze** compacts the overlay into a fresh
:class:`~repro.sling.packed.PackedHittingStore` and re-estimates *all*
correction factors with the build's seeding rule (node ``k``'s stream from
``(seed, k)``, the seed :meth:`SlingIndex.build` used), so a re-frozen index
is **bitwise identical** — columns, corrections, and therefore answers — to a
from-scratch build on the mutated graph.  The compaction runs outside the
mutation lock and installs its generation only if no mutation landed
meanwhile (compare-and-swap on the generation object, retried a bounded
number of times), which is what :meth:`DynamicSlingIndex.refreeze_async`
runs on a background thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..exceptions import ParameterError
from ..graphs import DiGraph
from .correction import (
    estimate_all_correction_factors,
    estimate_correction_factor,
)
from .hitting import reverse_push
from .index import SlingIndex
from .packed import PackedHittingStore
from .parameters import SlingParameters
from .query import ServingState, SlingQueries
from .walks import SqrtCWalker

__all__ = ["DynamicSlingIndex", "MutationReport"]


@dataclass(frozen=True)
class MutationReport:
    """What one mutation batch (or re-freeze) did to the index."""

    #: Edges actually added / removed (no-op edges are filtered out).
    edges_added: int
    edges_removed: int
    #: How many targets had their reverse pushes re-run.
    affected_targets: int
    #: Every source node whose answers may have changed — the exact set a
    #: cache keyed by source must invalidate (closed under both pair sides).
    affected_sources: tuple[int, ...]
    #: The index version after this batch (monotonically increasing).
    version: int
    #: Certified staleness bound of answers served after this batch.
    epsilon_stale: float
    #: Wall-clock seconds spent repairing.
    seconds: float


class DynamicSlingIndex(SlingQueries):
    """A SLING index that stays queryable while its graph mutates.

    Wraps a plain (no space-reduction / accuracy-enhancement)
    :class:`SlingIndex` build and serves the same query core — every query
    reads one generation — with three additions: :meth:`add_edges` /
    :meth:`remove_edges` / :meth:`mutate` apply edge deltas incrementally,
    :meth:`refreeze` compacts them back into a frozen store with bitwise
    rebuild parity, and :attr:`version` / :meth:`staleness_bound` report
    the serving state for cache scoping and per-query staleness.
    """

    _kind = "dynamic SLING index"

    def __init__(
        self,
        graph: DiGraph,
        *,
        c: float = 0.6,
        epsilon: float = 0.025,
        delta: float | None = None,
        seed: int | None = None,
        adaptive_correction: bool = True,
        parameters: SlingParameters | None = None,
    ) -> None:
        self._base = SlingIndex(
            graph,
            c=c,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            adaptive_correction=adaptive_correction,
            parameters=parameters,
        )
        self._adaptive = adaptive_correction
        self._mutex = threading.Lock()
        self._state: ServingState | None = None
        self._mutation_count = 0
        self._refreeze_count = 0

    @classmethod
    def from_index(cls, index: SlingIndex) -> "DynamicSlingIndex":
        """Adopt an already-built plain :class:`SlingIndex` without rebuilding.

        The index must have been built without ``reduce_space`` /
        ``enhance_accuracy``: the overlay repair rewrites raw reverse-push
        entries, which those optimizations post-process in ways an
        incremental patch cannot reproduce.
        """
        if getattr(index, "_reduce_space", False) or getattr(
            index, "_enhance_accuracy", False
        ):
            raise ParameterError(
                "dynamic maintenance requires a plain SLING index "
                "(reduce_space=False, enhance_accuracy=False)"
            )
        dynamic = cls.__new__(cls)
        dynamic._base = index
        dynamic._adaptive = getattr(index, "_adaptive_correction", True)
        dynamic._mutex = threading.Lock()
        dynamic._state = index._state
        dynamic._mutation_count = 0
        dynamic._refreeze_count = 0
        return dynamic

    # ------------------------------------------------------------------ #
    # Build / introspection
    # ------------------------------------------------------------------ #
    def build(self, *, workers: int = 1) -> "DynamicSlingIndex":
        """Build the base index (if needed) and open generation 0."""
        with self._mutex:
            if self._state is not None:
                return self
            if not self._base.is_built:
                self._base.build(workers=workers)
            self._state = self._base._state
        return self

    @property
    def graph(self) -> DiGraph:
        """The *current* (post-mutation) graph."""
        return self._serving().graph

    @property
    def parameters(self) -> SlingParameters:
        """The resolved parameter set (shared with the base build)."""
        return self._base.parameters

    @property
    def version(self) -> int:
        """Monotonically increasing index version; bumped per mutation
        batch and per re-freeze."""
        return self._serving().version

    @property
    def is_dirty(self) -> bool:
        """Whether un-compacted deltas are outstanding."""
        return self._serving().dirty

    def staleness_bound(self) -> float:
        """The certified per-query staleness bound ``ε_stale``.

        ``2ε`` while deltas are outstanding (overlay answer and a
        from-scratch rebuild each carry the Theorem-1 ``ε`` budget against
        the mutated graph's SimRank, so they differ by at most ``2ε``),
        ``0.0`` once re-frozen — then answers are bitwise rebuild-identical.
        """
        return 2.0 * self._base.parameters.epsilon if self._serving().dirty else 0.0

    def statistics(self) -> dict:
        """Serving-state snapshot: version, dirtiness, overlay size."""
        gen = self._serving()
        return {
            "index_version": gen.version,
            "dirty": gen.dirty,
            "epsilon_stale": self.staleness_bound(),
            "overlay_nodes": len(gen.overlay),
            "overlay_entries": gen.overlay_entries,
            "mutations": self._mutation_count,
            "refreezes": self._refreeze_count,
        }

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_edges(
        self, edges: Iterable[tuple[int, int]]
    ) -> MutationReport:
        """Add directed edges incrementally; see :meth:`mutate`."""
        return self.mutate(added=edges)

    def remove_edges(
        self, edges: Iterable[tuple[int, int]]
    ) -> MutationReport:
        """Remove directed edges incrementally; see :meth:`mutate`."""
        return self.mutate(removed=edges)

    def mutate(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> MutationReport:
        """Apply one edge-delta batch and repair the index locally.

        Adding a present edge or removing an absent one is a no-op; a batch
        with no effective change does not bump the version.  Raises
        :class:`~repro.exceptions.GraphFormatError` for out-of-range
        endpoints or an edge listed on both sides.
        """
        start = time.perf_counter()
        added = list(added)
        removed = list(removed)
        with self._mutex:
            gen = self._serving()
            old_graph = gen.graph
            new_graph = old_graph.with_edges(added, removed)
            if new_graph is old_graph:
                return MutationReport(
                    edges_added=0,
                    edges_removed=0,
                    affected_targets=0,
                    affected_sources=(),
                    version=gen.version,
                    epsilon_stale=self.staleness_bound(),
                    seconds=time.perf_counter() - start,
                )
            actual_added = sorted(
                {
                    (int(u), int(v))
                    for u, v in added
                    if not old_graph.has_edge(int(u), int(v))
                }
            )
            actual_removed = sorted(
                {
                    (int(u), int(v))
                    for u, v in removed
                    if old_graph.has_edge(int(u), int(v))
                }
            )
            params = self._base.parameters
            sqrt_c, theta = params.sqrt_c, params.theta

            heads = {v for _, v in actual_added} | {
                v for _, v in actual_removed
            }
            detect = {u for u, _ in actual_added}
            detect |= {u for u, _ in actual_removed}
            detect |= heads
            for head in heads:
                detect.update(int(x) for x in old_graph.in_neighbors(head))

            affected_targets: set[int] = set()
            for node in detect:
                view = gen.query_view(node)
                values = np.asarray(view.values)
                targets = np.asarray(view.targets)
                affected_targets.update(
                    int(t) for t in targets[values > 0.0]
                )

            # The pre-mutation entries for the affected targets are read
            # back from the serving state (store columns ⊕ overlay) in one
            # vectorised scan rather than re-running the old-graph reverse
            # pushes: the patch set must transform *what is actually served*
            # into the new push's result, so diffing against the served
            # entries is both correct by construction and roughly halves
            # the repair cost.
            store = gen.store
            old_by_target: dict[int, dict[tuple[int, int], float]] = {
                target: {} for target in affected_targets
            }
            if affected_targets:
                affected_array = np.fromiter(
                    sorted(affected_targets), dtype=np.int64
                )
                mask = np.isin(
                    store.targets.astype(np.int64, copy=False), affected_array
                )
                entry_sources = np.repeat(
                    np.arange(store.num_nodes, dtype=np.int64),
                    np.diff(store.offsets),
                )
                for source, level, target, value in zip(
                    entry_sources[mask].tolist(),
                    store.levels[mask].tolist(),
                    store.targets[mask].tolist(),
                    store.values[mask].tolist(),
                ):
                    old_by_target[int(target)][
                        (int(source), int(level))
                    ] = float(value)
                for source, patch in gen.overlay.items():
                    for (level, target), value in patch.items():
                        entries = old_by_target.get(int(target))
                        if entries is None:
                            continue
                        if value == 0.0:
                            entries.pop((int(source), int(level)), None)
                        else:
                            entries[(int(source), int(level))] = value

            patches: dict[int, dict[tuple[int, int], float]] = {}
            affected_sources: set[int] = set()
            for target in sorted(affected_targets):
                old_entries = old_by_target[target]
                new_push = reverse_push(new_graph, target, sqrt_c, theta)
                seen: set[tuple[int, int]] = set()
                for level, frontier in new_push.items():
                    level = int(level)
                    for source, value in frontier.items():
                        source = int(source)
                        affected_sources.add(source)
                        seen.add((source, level))
                        if old_entries.get((source, level)) != value:
                            patches.setdefault(source, {})[
                                (level, target)
                            ] = float(value)
                for source, level in old_entries:
                    affected_sources.add(source)
                    if (source, level) not in seen:
                        # Tombstone: the position vanished on the new graph.
                        patches.setdefault(source, {})[(level, target)] = 0.0

            corrections = np.array(gen.corrections, dtype=np.float64, copy=True)
            walker = self._walker(new_graph)
            for head in sorted(heads):
                corrections[head] = estimate_correction_factor(
                    walker,
                    head,
                    params.epsilon_d,
                    params.delta_d,
                    adaptive=self._adaptive,
                ).value
            corrections.flags.writeable = False

            overlay = dict(gen.overlay)
            for source, entries in patches.items():
                merged = dict(overlay.get(source, ()))
                merged.update(entries)
                overlay[source] = merged

            new_version = gen.version + 1
            self._state = ServingState(
                new_graph,
                params,
                corrections,
                gen.store,
                overlay=overlay,
                version=new_version,
                dirty=True,
            )
            self._mutation_count += 1
            return MutationReport(
                edges_added=len(actual_added),
                edges_removed=len(actual_removed),
                affected_targets=len(affected_targets),
                affected_sources=tuple(sorted(affected_sources)),
                version=new_version,
                epsilon_stale=self.staleness_bound(),
                seconds=time.perf_counter() - start,
            )

    def _walker(self, graph: DiGraph) -> SqrtCWalker:
        """A walker on ``graph`` seeded like the base build.

        ``d̃_k`` draws from the stream of ``(seed, k)`` alone, so a repaired
        or re-frozen factor equals the one a rebuild on ``graph`` computes.
        """
        return SqrtCWalker(graph, self._base.parameters.c, seed=self._base._seed)

    # ------------------------------------------------------------------ #
    # Re-freeze
    # ------------------------------------------------------------------ #
    def refreeze(self, *, max_attempts: int = 3) -> bool:
        """Compact deltas into a fresh frozen generation, rebuild-parity.

        The merged store and full-recipe correction factors are computed
        *outside* the mutation lock; the new generation is installed only
        if no mutation landed meanwhile (retrying up to ``max_attempts``
        times).  Returns ``True`` when a clean generation is serving —
        including the trivial case of nothing to compact.

        After a successful re-freeze the store columns and correction
        factors are bitwise identical to ``SlingIndex(graph, seed=seed,
        ...).build()`` on the mutated graph, so every answer matches a
        from-scratch rebuild exactly.
        """
        for _ in range(max_attempts):
            snapshot = self._serving()
            if not snapshot.dirty:
                return True
            params = self._base.parameters
            store = self._merge_store(snapshot)
            corrections = estimate_all_correction_factors(
                self._walker(snapshot.graph),
                params.epsilon_d,
                params.delta_d,
                adaptive=self._adaptive,
            )
            corrections.flags.writeable = False
            with self._mutex:
                if self._state is not snapshot:
                    continue  # a mutation raced the compaction; recompute
                self._state = ServingState(
                    snapshot.graph,
                    params,
                    corrections,
                    store,
                    version=snapshot.version + 1,
                )
                self._refreeze_count += 1
                return True
        return False

    def refreeze_async(self, *, max_attempts: int = 3) -> threading.Thread:
        """Run :meth:`refreeze` on a background daemon thread.

        Readers keep serving from the current generation throughout; join
        the returned thread to wait for the swap."""
        thread = threading.Thread(
            target=self.refreeze,
            kwargs={"max_attempts": max_attempts},
            name="repro-dynamic-refreeze",
            daemon=True,
        )
        thread.start()
        return thread

    @staticmethod
    def _merge_store(gen: ServingState) -> PackedHittingStore:
        """Base columns + overlay (tombstones dropped) as a fresh store."""
        store = gen.store
        if not gen.overlay:
            return store
        num_nodes = store.num_nodes
        counts = np.empty(num_nodes, dtype=np.int64)
        levels_parts: list[np.ndarray] = []
        targets_parts: list[np.ndarray] = []
        values_parts: list[np.ndarray] = []
        for node in range(num_nodes):
            patch = gen.overlay.get(node)
            if patch is None:
                lo, hi = store.slice_bounds(node)
                levels_parts.append(store.levels[lo:hi])
                targets_parts.append(store.targets[lo:hi])
                values_parts.append(store.values[lo:hi])
                counts[node] = hi - lo
                continue
            view = gen.query_view(node)
            values = np.asarray(view.values)
            keep = values > 0.0
            levels_parts.append(np.asarray(view.levels)[keep])
            targets_parts.append(np.asarray(view.targets)[keep])
            values_parts.append(values[keep])
            counts[node] = int(keep.sum())
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return PackedHittingStore.from_columns(
            offsets,
            np.concatenate(levels_parts),
            np.concatenate(targets_parts),
            np.concatenate(values_parts),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gen = self._state
        if gen is None:
            return "DynamicSlingIndex(not built)"
        return (
            f"DynamicSlingIndex(n={gen.graph.num_nodes}, "
            f"version={gen.version}, dirty={gen.dirty})"
        )

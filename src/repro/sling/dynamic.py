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

2. **Local repair.**  The targets ``T`` are re-pushed on the new graph
   with :func:`~repro.sling.hitting.build_hitting_sets`: their frontiers are
   the columns of one pruned sparse product per level, so all of ``T`` is
   repaired in a few products.  A column's values do not depend on the
   other columns pushed with it, so each ``t``'s fresh records are bitwise
   a rebuild's.  The store's records whose target is in
   ``T`` are dropped, the fresh records take their place, and the lot is
   packed once with
   :meth:`~repro.sling.packed.PackedHittingStore.from_hitting_sets` — the
   packing step of every build path, so the repaired store is bitwise the
   one a rebuild on the new graph packs.  The sources of the dropped and
   the fresh records are the affected sources.  Correction factors are
   re-estimated only for the heads (whose ``c/|I(k)|`` term changed
   discretely).  ``d̃_k`` draws from node ``k``'s own stream, seeded by
   ``(seed, k)`` alone, so a repaired head's factor is bitwise the one a
   rebuild on the new graph computes.

3. **Bounded-staleness serving.**  Queries read an immutable *generation*
   — a :class:`~repro.sling.query.ServingState` ``(graph, store,
   corrections, version)`` — grabbed once per query by the shared query
   core; mutations and re-freezes publish a new generation atomically and
   never touch an old one, so readers are never blocked and an old
   generation is retired by the garbage collector once its in-flight
   queries drain.  While a generation is dirty its store equals a rebuild's
   on the new graph, but far-away correction factors may carry drift
   (their meeting probability ``µ`` is estimated on walks of the old
   graph); :meth:`DynamicSlingIndex.staleness_bound` therefore certifies
   ``ε_stale = 2ε`` — the repaired answer and a from-scratch rebuild each
   carry the Theorem-1 budget ``ε`` against the new graph's SimRank under
   the standard sampling guarantees, so they agree within ``2ε`` — and
   reports ``0.0`` once a re-freeze has landed.  The certificate does not
   yet hold when a mutation moves a non-head ``d_k`` by more than ``ε``
   (two in-neighbours of ``k`` sharing an ancestor, one of them the head):
   only the heads' factors are re-estimated before a re-freeze.

**Re-freeze** re-estimates *all* correction factors through the build's
d̃ driver, :func:`~repro.sling.correction.estimate_all_correction_factors`,
with the build's seeding rule (node ``k``'s stream from ``(seed, k)``, the seed
:meth:`SlingIndex.build` used) over the generation's store, so a re-frozen
index is **bitwise identical** — columns, corrections, and therefore
answers — to a from-scratch build on the mutated graph.  The estimation
runs outside the mutation lock and installs its generation only if no
mutation landed meanwhile (compare-and-swap on the generation object,
retried a bounded number of times).
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
from .hitting import HittingRecords, build_hitting_sets
from .index import SlingIndex
from .packed import PackedHittingStore
from .parameters import SlingParameters
from .query import ServingState, SlingQueries
from .walks import SqrtCWalker

__all__ = ["DynamicSlingIndex", "MutationReport"]

#: How often :meth:`DynamicSlingIndex.refreeze` recomputes after a mutation
#: raced it before giving up.
_REFREEZE_ATTEMPTS = 3


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
    :meth:`refreeze` re-estimates every correction factor for bitwise
    rebuild parity, and :attr:`version` / :meth:`staleness_bound` report
    the serving state for cache scoping and per-query staleness.
    """

    _kind = "dynamic SLING index"

    @classmethod
    def from_index(cls, index: SlingIndex, *, version: int = 0) -> "DynamicSlingIndex":
        """Adopt a built plain :class:`SlingIndex` without rebuilding.

        This is the only way to make a dynamic index; it serves ``version``
        (a generation loaded back from disk keeps its own).  It raises
        :class:`~repro.exceptions.IndexNotBuiltError` for an unbuilt index,
        and :class:`~repro.exceptions.ParameterError` for one built with
        ``reduce_space`` / ``enhance_accuracy``: the repair re-packs raw
        reverse-push records, which those optimizations post-process in
        ways a local repair cannot reproduce.
        """
        if index._reduce_space or index._enhance_accuracy:
            raise ParameterError(
                "dynamic maintenance requires a plain SLING index "
                "(reduce_space=False, enhance_accuracy=False)"
            )
        dynamic = cls.__new__(cls)
        dynamic._params = index.parameters
        dynamic._seed = index._seed
        dynamic._mutex = threading.Lock()
        state = index._serving()
        dynamic._state = ServingState(
            state.graph, state.parameters, state.corrections, state.store,
            version=version,
        )
        dynamic._mutation_count = 0
        dynamic._refreeze_count = 0
        dynamic._repushed_records = 0
        return dynamic

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        """The *current* (post-mutation) graph."""
        return self._serving().graph

    @property
    def parameters(self) -> SlingParameters:
        """The resolved parameter set (shared with the base build)."""
        return self._params

    @property
    def version(self) -> int:
        """Monotonically increasing index version; bumped per mutation
        batch and per re-freeze."""
        return self._serving().version

    @property
    def is_dirty(self) -> bool:
        """Whether a mutation landed since the last (re-)freeze."""
        return self._serving().dirty

    def staleness_bound(self) -> float:
        """The certified per-query staleness bound ``ε_stale``.

        ``2ε`` while dirty (the repaired answer and a from-scratch rebuild
        each carry the Theorem-1 ``ε`` budget against the mutated graph's
        SimRank, so they differ by at most ``2ε``), ``0.0`` once re-frozen
        — then answers are bitwise rebuild-identical.
        """
        return 2.0 * self._params.epsilon if self._serving().dirty else 0.0

    def statistics(self) -> dict:
        """Serving-state snapshot: version, dirtiness, repair volume.

        ``overlay_entries`` counts the hitting-set records re-pushed since
        the last (re-)freeze (0 when clean).
        """
        gen = self._serving()
        return {
            "index_version": gen.version,
            "dirty": gen.dirty,
            "epsilon_stale": self.staleness_bound(),
            "overlay_entries": self._repushed_records,
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
            params = self._params

            heads = {v for _, v in actual_added} | {
                v for _, v in actual_removed
            }
            detect = {u for u, _ in actual_added}
            detect |= {u for u, _ in actual_removed}
            detect |= heads
            for head in heads:
                detect.update(int(x) for x in old_graph.in_neighbors(head))

            store = gen.store
            affected_targets = np.unique(
                np.concatenate([store.node_entries(node)[1] for node in detect])
            )
            old = store.records()
            stale = np.isin(old.targets, affected_targets)
            fresh = build_hitting_sets(
                new_graph, params.sqrt_c, params.theta, targets=affected_targets
            )
            repaired = PackedHittingStore.from_hitting_sets(
                HittingRecords.concatenate([old.take(~stale), fresh])
            )
            touched = np.zeros(new_graph.num_nodes, dtype=bool)
            touched[old.sources[stale]] = True
            touched[fresh.sources] = True
            affected_sources = np.flatnonzero(touched)

            corrections = np.array(gen.corrections, dtype=np.float64, copy=True)
            walker = self._walker(new_graph)
            for head in sorted(heads):
                corrections[head] = estimate_correction_factor(
                    walker, head, params.epsilon_d, params.delta_d
                ).value
            corrections.flags.writeable = False

            new_version = gen.version + 1
            self._state = ServingState(
                new_graph,
                params,
                corrections,
                repaired,
                version=new_version,
                dirty=True,
            )
            self._mutation_count += 1
            self._repushed_records += fresh.num_records
            return MutationReport(
                edges_added=len(actual_added),
                edges_removed=len(actual_removed),
                affected_targets=int(affected_targets.shape[0]),
                affected_sources=tuple(affected_sources.tolist()),
                version=new_version,
                epsilon_stale=self.staleness_bound(),
                seconds=time.perf_counter() - start,
            )

    def _walker(self, graph: DiGraph) -> SqrtCWalker:
        """A walker on ``graph`` seeded like the base build.

        ``d̃_k`` draws from the stream of ``(seed, k)`` alone, so a repaired
        or re-frozen factor equals the one a rebuild on ``graph`` computes.
        """
        return SqrtCWalker(graph, self._params.c, seed=self._seed)

    # ------------------------------------------------------------------ #
    # Re-freeze
    # ------------------------------------------------------------------ #
    def refreeze(self) -> bool:
        """Re-estimate every correction factor: a clean, rebuild-parity generation.

        The factors are estimated *outside* the mutation lock; the new
        generation is installed only if no mutation landed meanwhile
        (recomputing a bounded number of times).  Returns ``True`` when a
        clean generation is serving — including the trivial case of
        nothing to re-freeze.

        Every mutation already leaves the store bitwise equal to a
        rebuild's, so after a successful re-freeze the store columns and
        correction factors are bitwise identical to ``SlingIndex(graph,
        seed=seed, ...).build()`` on the mutated graph, and so is every
        answer.
        """
        for _ in range(_REFREEZE_ATTEMPTS):
            snapshot = self._serving()
            if not snapshot.dirty:
                return True
            params = self._params
            corrections = estimate_all_correction_factors(
                self._walker(snapshot.graph), params.epsilon_d, params.delta_d
            )
            corrections.flags.writeable = False
            with self._mutex:
                if self._state is not snapshot:
                    continue  # a mutation raced the re-freeze; recompute
                self._state = ServingState(
                    snapshot.graph,
                    params,
                    corrections,
                    snapshot.store,
                    version=snapshot.version + 1,
                )
                self._refreeze_count += 1
                self._repushed_records = 0
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gen = self._state
        return (
            f"DynamicSlingIndex(n={gen.graph.num_nodes}, "
            f"version={gen.version}, dirty={gen.dirty})"
        )

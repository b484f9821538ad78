"""The SLING index (Sections 4-6 of the paper).

:class:`SlingIndex` ties together the building blocks of the other modules:

* correction factors ``d̃_k`` estimated by √c-walk sampling
  (:mod:`repro.sling.correction`, Algorithms 1 / 4),
* per-node hitting-probability sets ``H(v)`` built by reverse local push
  (:mod:`repro.sling.hitting`, Algorithm 2) and packed into columns
  (:mod:`repro.sling.packed`),
* the optional space-reduction and accuracy-enhancement optimizations
  (:mod:`repro.sling.optimizations`, Sections 5.2 / 5.3),

and serves the paper's query primitives through the shared query core of
:mod:`repro.sling.query`:

* :meth:`SlingIndex.single_pair` — Algorithm 3, ``O(1/ε)`` time,
* :meth:`SlingIndex.single_source` — Algorithm 6 (local push) or the naive
  n-fold application of Algorithm 3.

Every returned score carries the Theorem-1 guarantee: additive error at most
``ε`` with probability at least ``1 - δ`` over the randomness of the build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import IndexNotBuiltError, ParameterError
from ..graphs import DiGraph
from .correction import estimate_all_correction_factors
from .hitting import build_hitting_sets
from .optimizations import AccuracyEnhancer, SpaceReduction
from .packed import PackedHittingStore
from .parameters import SlingParameters
from .query import ServingState, SlingQueries
from .walks import SqrtCWalker, resolve_entropy

__all__ = ["SlingIndex", "BuildStatistics"]


@dataclass
class BuildStatistics:
    """Timings and size accounting collected while building the index."""

    correction_seconds: float = 0.0
    hitting_seconds: float = 0.0
    optimization_seconds: float = 0.0
    total_seconds: float = 0.0
    num_hitting_entries: int = 0
    num_reduced_nodes: int = 0
    workers: int = 1
    extra: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"build took {self.total_seconds:.3f}s "
            f"(corrections {self.correction_seconds:.3f}s, "
            f"hitting sets {self.hitting_seconds:.3f}s, "
            f"optimizations {self.optimization_seconds:.3f}s); "
            f"{self.num_hitting_entries} stored hitting probabilities, "
            f"{self.num_reduced_nodes} space-reduced nodes, "
            f"{self.workers} worker(s)"
        )


class SlingIndex(SlingQueries):
    """SimRank index with near-optimal query time and provable accuracy.

    Parameters
    ----------
    graph:
        The directed input graph.
    c:
        SimRank decay factor (paper default ``0.6``).
    epsilon:
        Worst-case additive error of every returned SimRank score
        (paper default ``0.025``).
    delta:
        Failure probability of preprocessing; defaults to ``1/n`` as in the
        paper's experiments.
    seed:
        Seed for the √c-walk sampling used by the correction-factor
        estimators; ``d̃_k`` draws from the stream derived from
        ``(seed, k)``.  ``None`` draws fresh entropy once per index, and a
        dynamic index's repairs and re-freezes reuse it.
    reduce_space:
        Enable the Section-5.2 space reduction.
    enhance_accuracy:
        Enable the Section-5.3 accuracy enhancement.
    error_split:
        Fraction of the error budget assigned to correction factors (the rest
        goes to the hitting probabilities); see :class:`SlingParameters`.
    parameters:
        A fully resolved :class:`SlingParameters` instance; overrides
        ``c`` / ``epsilon`` / ``delta`` / ``error_split`` when given.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.sling import SlingIndex
    >>> graph = generators.cycle(8)
    >>> index = SlingIndex(graph, epsilon=0.05, seed=7).build()
    >>> round(index.single_pair(0, 0), 3)
    1.0
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        c: float = 0.6,
        epsilon: float = 0.025,
        delta: float | None = None,
        seed: int | None = None,
        reduce_space: bool = False,
        enhance_accuracy: bool = False,
        error_split: float = 0.5,
        parameters: SlingParameters | None = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ParameterError("cannot index an empty graph")
        self._graph = graph
        if parameters is None:
            parameters = SlingParameters.from_accuracy_target(
                num_nodes=graph.num_nodes,
                c=c,
                epsilon=epsilon,
                delta=delta,
                error_split=error_split,
            )
        self._params = parameters
        self._seed = resolve_entropy(seed)
        self._reduce_space = reduce_space
        self._enhance_accuracy = enhance_accuracy

        self._state: ServingState | None = None
        self._build_stats: BuildStatistics | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        """The indexed graph."""
        return self._graph

    @property
    def parameters(self) -> SlingParameters:
        """The resolved parameter set (ε, θ, ε_d, ...)."""
        return self._params

    @property
    def build_statistics(self) -> BuildStatistics:
        """Timings and sizes from the last :meth:`build` call."""
        if self._build_stats is None:
            raise IndexNotBuiltError("SLING index")
        return self._build_stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "built" if self.is_built else "not built"
        return (
            f"SlingIndex(n={self._graph.num_nodes}, m={self._graph.num_edges}, "
            f"epsilon={self._params.epsilon}, {status})"
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self, *, workers: int = 1) -> "SlingIndex":
        """Build the index: correction factors, hitting sets, optimizations.

        The d̃ pass is :func:`~repro.sling.correction.estimate_all_correction_factors`,
        which runs inline for ``workers == 1`` and over a pool of ``workers``
        processes otherwise (Section 5.4); the push
        (:func:`~repro.sling.hitting.build_hitting_sets`) runs in this
        process.  The result is bitwise identical for any worker count,
        because every ``d̃_k`` draws from node ``k``'s own stream.  Returns
        ``self`` so construction can be chained.
        """
        start_total = time.perf_counter()
        params = self._params

        start = time.perf_counter()
        corrections = estimate_all_correction_factors(
            SqrtCWalker(self._graph, params.c, seed=self._seed),
            params.epsilon_d,
            params.delta_d,
            workers=workers,
        )
        correction_seconds = time.perf_counter() - start

        start = time.perf_counter()
        records = build_hitting_sets(self._graph, params.sqrt_c, params.theta)
        hitting_seconds = time.perf_counter() - start

        start = time.perf_counter()
        reduced = None
        num_reduced = 0
        if self._reduce_space:
            reduced, records = SpaceReduction(theta=params.theta).apply(
                self._graph, records
            )
            num_reduced = int(reduced.sum())

        # Pack the push records into the columnar store; everything
        # downstream (queries, persistence, size accounting) reads its arrays.
        start_pack = time.perf_counter()
        store = PackedHittingStore.from_hitting_sets(records)
        pack_seconds = time.perf_counter() - start_pack

        self._attach(corrections, store, reduced)
        optimization_seconds = time.perf_counter() - start
        self._build_stats = BuildStatistics(
            correction_seconds=correction_seconds,
            hitting_seconds=hitting_seconds,
            optimization_seconds=optimization_seconds,
            total_seconds=time.perf_counter() - start_total,
            num_hitting_entries=store.num_entries,
            num_reduced_nodes=num_reduced,
            workers=workers,
            extra={"pack_seconds": pack_seconds},
        )
        return self

    def _attach(
        self,
        corrections: np.ndarray,
        store: PackedHittingStore,
        reduced: np.ndarray | None,
    ) -> None:
        """Start serving ``store`` (built here, loaded or merged from disk).

        Marks the accuracy-enhancement entries from the store's canonical
        key order when enabled, so an index built in memory and the same
        index loaded from disk answer bitwise-identically.
        """
        params = self._params
        enhancer = None
        if self._enhance_accuracy:
            enhancer = AccuracyEnhancer(self._graph, params.epsilon, params.sqrt_c)
            enhancer.mark_all_packed(store)
        self._state = ServingState(
            self._graph,
            params,
            corrections,
            store,
            reduced=reduced if self._reduce_space else None,
            enhancer=enhancer,
        )

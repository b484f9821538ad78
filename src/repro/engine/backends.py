"""Similarity backends: one protocol, many SimRank computation strategies.

Every way this repository can answer a SimRank query — the SLING index
(Algorithms 3/6), in memory or memory-mapped from disk, and the baselines — is
wrapped in a :class:`SimilarityBackend` adapter exposing the same four
operations (``build``, ``single_pair``, ``single_source``, ``top_k``) plus
capability/cost flags (:class:`BackendInfo`) that the engine and the
``describe`` control request report.

Backends are registered in a string-keyed registry; :func:`create_backend`
instantiates one by name and :func:`resolve_backend_name` maps the paper's
figure labels ("SLING", "MC", "MC-sqrtc", "Linearize", ...) onto registry
keys so the evaluation drivers and the CLI can share one dispatch path.
"""

from __future__ import annotations

import abc
import dataclasses
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..baselines import (
    LinearizeIndex,
    MonteCarloIndex,
    PowerMethod,
    SqrtCMonteCarloIndex,
    iterations_for_error,
    naive_simrank,
)
from ..exceptions import IndexNotBuiltError, ParameterError
from ..graphs import DiGraph
from ..ranking import rank_top_k
from ..sling import (
    DynamicSlingIndex,
    MutationReport,
    SlingIndex,
    has_saved_index,
    load_index,
    save_index,
)

__all__ = [
    "BackendConfig",
    "BackendInfo",
    "SimilarityBackend",
    "SlingBackend",
    "DiskSlingBackend",
    "NaiveBackend",
    "PowerBackend",
    "MonteCarloBackend",
    "SqrtCMonteCarloBackend",
    "LinearizeBackend",
    "register_backend",
    "backend_names",
    "get_backend_class",
    "create_backend",
    "resolve_backend_name",
]


@dataclass(frozen=True)
class BackendConfig:
    """Construction knobs shared by every backend.

    The engine layer sits below :mod:`repro.evaluation`, so this mirrors (but
    does not import) ``MethodConfig``; the evaluation drivers translate one
    into the other.
    """

    c: float = 0.6
    epsilon: float = 0.025
    seed: int = 0
    mc_num_walks: int = 200
    sling_reduce_space: bool = False
    sling_enhance_accuracy: bool = False
    #: Directory for disk-backed indexes; a temporary directory when ``None``.
    work_directory: str | None = None
    #: When ``True`` and :attr:`work_directory` already holds a saved index,
    #: the disk backend mmaps it instead of rebuilding — how a pool of worker
    #: processes shares one prebuilt packed index at near-zero per-worker
    #: cost.  The saved index's own parameters win; only the graph shape is
    #: verified (:class:`~repro.exceptions.StorageError` on mismatch).
    reuse_saved_index: bool = False


@dataclass(frozen=True)
class BackendInfo:
    """Capability and cost flags describing a backend.

    ``build_cost`` / ``query_cost`` are coarse order-of-magnitude labels
    ("none", "walks", "index", "matrix"), not measurements — cheap enough to
    declare statically.
    """

    name: str
    #: Whether answers carry an additive-error guarantee vs. being exact.
    exact: bool = False
    #: Whether the preprocessed structures stay in main memory.
    in_memory: bool = True
    #: Whether the backend is usable beyond toy graphs (naive/power are not).
    scalable: bool = True
    #: Coarse preprocessing cost class: "none" | "walks" | "index" | "matrix".
    build_cost: str = "index"
    #: Coarse per-query cost class: "constant" | "linear" | "matrix-row".
    query_cost: str = "constant"
    #: Whether queries on a *built* backend are safe to run concurrently.
    #: Every bundled backend is read-only after ``build`` (walk fingerprints,
    #: score matrices, hitting sets, and the disk index's packed arrays are
    #: never mutated by a query), so they all declare ``True``; a backend that
    #: mutates per-query state (query-time RNG, unlocked memoisation, a shared
    #: file handle) must declare ``False`` and the engine will serialise its
    #: queries behind a lock instead of running them in parallel.
    thread_safe_queries: bool = True

    def as_dict(self) -> dict:
        """Plain-dict form for the ``describe`` control response."""
        return dataclasses.asdict(self)


class SimilarityBackend(abc.ABC):
    """Uniform adapter over one SimRank computation strategy.

    Subclasses declare their :class:`BackendInfo` as the class attribute
    ``info`` and implement ``build`` / ``single_pair`` / ``single_source`` /
    ``index_size_bytes``; ``top_k`` and ``all_pairs`` have generic
    implementations on top of ``single_source``.
    """

    info: BackendInfo = BackendInfo(name="abstract")

    def __init__(self, graph: DiGraph, config: BackendConfig | None = None) -> None:
        if graph.num_nodes == 0:
            raise ParameterError("cannot build a backend over an empty graph")
        self._graph = graph
        self._config = config or BackendConfig()
        self._built = False

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        """The graph this backend answers queries on."""
        return self._graph

    @property
    def config(self) -> BackendConfig:
        """The configuration the backend was created with."""
        return self._config

    @property
    def name(self) -> str:
        """Registry key of this backend."""
        return self.info.name

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError(f"{self.name} backend")

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def build(self) -> "SimilarityBackend":
        """Run preprocessing; returns ``self`` so construction can chain."""

    @abc.abstractmethod
    def single_pair(self, node_u: int, node_v: int) -> float:
        """Approximate SimRank score of one node pair."""

    @abc.abstractmethod
    def single_source(self, node: int) -> np.ndarray:
        """Approximate SimRank from ``node`` to every node, as ``(n,)``."""

    @abc.abstractmethod
    def index_size_bytes(self) -> int:
        """Size of the preprocessed structures, in bytes."""

    # ------------------------------------------------------------------ #
    # Mutation protocol (opt-in; only the in-memory SLING adapter today)
    # ------------------------------------------------------------------ #
    #: Whether :meth:`apply_mutation` is supported; static backends answer
    #: queries forever against the graph they were built on.
    supports_mutation: bool = False

    def apply_mutation(self, added=(), removed=()) -> "MutationReport":
        """Apply an edge delta in place (added/removed ``(u, v)`` lists).

        Mutation-capable backends override this; the default refuses so the
        service layer can surface a clean error instead of silently serving
        a stale index.
        """
        raise ParameterError(
            f"backend {self.info.name!r} does not support graph mutation"
        )

    def refreeze(self) -> bool:
        """Compact accumulated mutation deltas back to a frozen index.

        A no-op (``True``) for static backends: they have no deltas.
        """
        return True

    @property
    def index_version(self) -> int:
        """Monotonic mutation version (0 for a never-mutated backend)."""
        return 0

    def staleness_bound(self) -> float:
        """Certified additional error ε_stale of answers served right now."""
        return 0.0

    # ------------------------------------------------------------------ #
    def top_k(self, node: int, k: int) -> list[tuple[int, float]]:
        """The ``k`` nodes most similar to ``node`` (excluding itself).

        The copy here is deliberate: :func:`rank_top_k` masks the source
        in-place, and the ``single_source`` protocol does not promise a fresh
        array (a subclass may legitimately return a view into its index).
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        scores = np.array(self.single_source(node), dtype=np.float64, copy=True)
        return rank_top_k(scores, int(node), k)

    def all_pairs(self) -> np.ndarray:
        """All-pairs scores via one single-source query per node."""
        self._require_built()
        n = self._graph.num_nodes
        matrix = np.zeros((n, n), dtype=np.float64)
        for node in self._graph.nodes():
            matrix[node] = self.single_source(node)
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "built" if self._built else "not built"
        return f"{type(self).__name__}(n={self._graph.num_nodes}, {status})"


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, type[SimilarityBackend]] = {}

#: Figure labels and common spellings accepted by :func:`resolve_backend_name`.
_ALIASES: dict[str, str] = {
    "auto": "sling",
    "sling": "sling",
    "sling-disk": "sling-disk",
    "disk": "sling-disk",
    "disksling": "sling-disk",
    "naive": "naive",
    "power": "power",
    "mc": "montecarlo",
    "montecarlo": "montecarlo",
    "monte-carlo": "montecarlo",
    "mc-sqrtc": "montecarlo_sqrtc",
    "montecarlo_sqrtc": "montecarlo_sqrtc",
    "linearize": "linearize",
}


def register_backend(cls: type[SimilarityBackend]) -> type[SimilarityBackend]:
    """Class decorator adding a backend to the registry under ``cls.info.name``."""
    name = cls.info.name
    if name in _REGISTRY:
        raise ParameterError(f"backend {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def backend_names() -> list[str]:
    """All registered backend names, sorted."""
    return sorted(_REGISTRY)


def resolve_backend_name(label: str) -> str:
    """Map a figure label or alias ("SLING", "MC-sqrtc", ...) to a registry key."""
    key = _ALIASES.get(label.strip().lower())
    if key is None or key not in _REGISTRY:
        raise ParameterError(
            f"unknown backend {label!r}; known backends: {', '.join(backend_names())}"
        )
    return key


def get_backend_class(name: str) -> type[SimilarityBackend]:
    """Look up a backend class by registry key or alias."""
    return _REGISTRY[resolve_backend_name(name)]


def create_backend(
    name: str,
    graph: DiGraph,
    config: BackendConfig | None = None,
    *,
    build: bool = True,
) -> SimilarityBackend:
    """Instantiate (and by default build) a backend by registry name or alias."""
    backend = get_backend_class(name)(graph, config)
    if build:
        backend.build()
    return backend


# --------------------------------------------------------------------------- #
# SLING adapters
# --------------------------------------------------------------------------- #
@register_backend
class SlingBackend(SimilarityBackend):
    """In-memory :class:`SlingIndex` behind the backend protocol."""

    info = BackendInfo(
        name="sling",
        exact=False,
        in_memory=True,
        scalable=True,
        build_cost="index",
        query_cost="constant",
    )

    def __init__(self, graph: DiGraph, config: BackendConfig | None = None) -> None:
        super().__init__(graph, config)
        cfg = self._config
        self._index = SlingIndex(
            graph,
            c=cfg.c,
            epsilon=cfg.epsilon,
            seed=cfg.seed,
            reduce_space=cfg.sling_reduce_space,
            enhance_accuracy=cfg.sling_enhance_accuracy,
        )

    @property
    def index(self) -> SlingIndex:
        """The wrapped SLING index (build statistics, parameters, ...)."""
        return self._index

    @property
    def packed_store(self):
        """The frozen columnar store the index answers queries from."""
        self._require_built()
        return self._index.packed_store

    def build(self) -> "SlingBackend":
        self._index.build()
        self._built = True
        return self

    def single_pair(self, node_u: int, node_v: int) -> float:
        self._require_built()
        return self._index.single_pair(node_u, node_v)

    def single_source(self, node: int, *, method: str = "local_push") -> np.ndarray:
        self._require_built()
        return self._index.single_source(node, method=method)

    # ------------------------------------------------------------------ #
    # Mutation protocol
    # ------------------------------------------------------------------ #
    supports_mutation = True

    def apply_mutation(self, added=(), removed=()) -> MutationReport:
        """Apply an edge delta in place, promoting the wrapped index to a
        :class:`DynamicSlingIndex` on first use.

        Promotion adopts the already-built store and corrections without a
        rebuild, so the backend object — and any :class:`QueryEngine`
        fronting it — survives the mutation with its cache and statistics
        intact; the engine is told what changed via the returned report's
        ``affected_sources`` and ``version``.
        """
        if not self.supports_mutation:
            return super().apply_mutation(added, removed)
        self._require_built()
        if not isinstance(self._index, DynamicSlingIndex):
            self._index = DynamicSlingIndex.from_index(self._index)
        report = self._index.mutate(added=added, removed=removed)
        # Keep the backend's graph handle (degrees, bounds checks, repr)
        # pointing at the post-mutation graph.
        self._graph = self._index.graph
        return report

    def refreeze(self) -> bool:
        self._require_built()
        if not isinstance(self._index, DynamicSlingIndex):
            return True
        return self._index.refreeze()

    @property
    def index_version(self) -> int:
        if isinstance(self._index, DynamicSlingIndex):
            return self._index.version
        return 0

    def staleness_bound(self) -> float:
        if isinstance(self._index, DynamicSlingIndex):
            return self._index.staleness_bound()
        return 0.0

    def index_size_bytes(self) -> int:
        self._require_built()
        return self._index.index_size_bytes()

    def resident_bytes(self) -> int:
        """Actual in-memory footprint of the packed columns + corrections.

        Unlike :meth:`index_size_bytes` (the logical 12-bytes-per-entry
        Figure-4 accounting) this is the real allocation, read in O(1) off
        the store's array lengths.
        """
        self._require_built()
        return self._index.resident_bytes()

    def average_set_size(self) -> float:
        """Average stored hitting probabilities per node (Table-1 accounting)."""
        self._require_built()
        return self._index.average_set_size()


@register_backend
class DiskSlingBackend(SlingBackend):
    """SLING served from a saved, memory-mapped index.

    ``build`` saves the index and loads it back with
    ``load_index(..., mmap_mode="r")`` — or, with
    ``config.reuse_saved_index``, attaches to an index already saved in
    ``config.work_directory`` — so only the correction factors stay resident.
    Queries run through the same :class:`SlingIndex` as the in-memory
    backend.  Shared on-disk indexes are read-only: no mutation.
    """

    info = BackendInfo(
        name="sling-disk",
        exact=False,
        in_memory=False,
        scalable=True,
        build_cost="index",
        query_cost="constant",
    )
    supports_mutation = False

    def build(self) -> "DiskSlingBackend":
        cfg = self._config
        if cfg.work_directory is not None:
            directory = Path(cfg.work_directory)
        else:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-sling-disk-")
            directory = Path(self._tempdir.name)
        if not (cfg.reuse_saved_index and has_saved_index(directory)):
            save_index(self._index.build(), directory)
        # Zero-copy attach: the packed columns are memory-mapped; the only
        # per-process cost is the 8n bytes of correction factors.
        self._index = load_index(directory, self._graph, mmap_mode="r")
        self._built = True
        return self

    def resident_bytes(self) -> int:
        """Main-memory footprint: only the ``8n`` bytes of correction factors.

        The packed columns are memory-mapped, so their pages live in the
        kernel's cache, not this process's budget.
        """
        self._require_built()
        return 8 * self._graph.num_nodes


# --------------------------------------------------------------------------- #
# Baseline adapters
# --------------------------------------------------------------------------- #
@register_backend
class NaiveBackend(SimilarityBackend):
    """The textbook all-pairs fixed-point iteration (testing oracle).

    ``build`` materialises the full score matrix, so this is only usable on
    toy graphs — which is exactly its role as an independent oracle.
    """

    info = BackendInfo(
        name="naive",
        exact=True,
        in_memory=True,
        scalable=False,
        build_cost="matrix",
        query_cost="matrix-row",
    )

    def __init__(self, graph: DiGraph, config: BackendConfig | None = None) -> None:
        super().__init__(graph, config)
        self._matrix: np.ndarray | None = None

    def build(self) -> "NaiveBackend":
        cfg = self._config
        scores = naive_simrank(self._graph, c=cfg.c, epsilon=cfg.epsilon)
        n = self._graph.num_nodes
        matrix = np.zeros((n, n), dtype=np.float64)
        for (node_u, node_v), value in scores.items():
            matrix[node_u, node_v] = value
        self._matrix = matrix
        self._built = True
        return self

    def single_pair(self, node_u: int, node_v: int) -> float:
        self._require_built()
        assert self._matrix is not None
        return float(self._matrix[int(node_u), int(node_v)])

    def single_source(self, node: int) -> np.ndarray:
        self._require_built()
        assert self._matrix is not None
        return self._matrix[int(node)].copy()

    def index_size_bytes(self) -> int:
        self._require_built()
        assert self._matrix is not None
        return int(self._matrix.nbytes)


@register_backend
class PowerBackend(SimilarityBackend):
    """The power method (Section 3.1) behind the backend protocol."""

    info = BackendInfo(
        name="power",
        exact=True,
        in_memory=True,
        scalable=False,
        build_cost="matrix",
        query_cost="matrix-row",
    )

    def __init__(self, graph: DiGraph, config: BackendConfig | None = None) -> None:
        super().__init__(graph, config)
        cfg = self._config
        self._method = PowerMethod(graph, c=cfg.c, epsilon=cfg.epsilon)

    @property
    def method(self) -> PowerMethod:
        """The wrapped power-method instance."""
        return self._method

    def build(self) -> "PowerBackend":
        self._method.build()
        self._built = True
        return self

    def single_pair(self, node_u: int, node_v: int) -> float:
        self._require_built()
        return self._method.single_pair(node_u, node_v)

    def single_source(self, node: int) -> np.ndarray:
        self._require_built()
        return self._method.single_source(node)

    def index_size_bytes(self) -> int:
        self._require_built()
        return self._method.index_size_bytes()


class _MethodBackend(SimilarityBackend):
    """Shared plumbing for adapters over a built :class:`SimRankMethod`."""

    def __init__(self, graph: DiGraph, config: BackendConfig | None = None) -> None:
        super().__init__(graph, config)
        self._method = self._make_method()

    def _make_method(self):
        raise NotImplementedError

    @property
    def method(self):
        """The wrapped :class:`SimRankMethod` instance."""
        return self._method

    def build(self) -> "_MethodBackend":
        self._method.build()
        self._built = True
        return self

    def single_pair(self, node_u: int, node_v: int) -> float:
        self._require_built()
        return self._method.single_pair(node_u, node_v)

    def single_source(self, node: int) -> np.ndarray:
        self._require_built()
        return self._method.single_source(node)

    def index_size_bytes(self) -> int:
        self._require_built()
        return self._method.index_size_bytes()


@register_backend
class MonteCarloBackend(_MethodBackend):
    """The Fogaras & Rácz Monte-Carlo method (c-walks)."""

    info = BackendInfo(
        name="montecarlo",
        exact=False,
        in_memory=True,
        scalable=True,
        build_cost="walks",
        query_cost="linear",
    )

    def _make_method(self) -> MonteCarloIndex:
        cfg = self._config
        return MonteCarloIndex(
            self._graph,
            c=cfg.c,
            epsilon=cfg.epsilon,
            num_walks=cfg.mc_num_walks,
            seed=cfg.seed,
        )


@register_backend
class SqrtCMonteCarloBackend(_MethodBackend):
    """The √c-walk Monte-Carlo variant (Section 4.1)."""

    info = BackendInfo(
        name="montecarlo_sqrtc",
        exact=False,
        in_memory=True,
        scalable=True,
        build_cost="walks",
        query_cost="linear",
    )

    def _make_method(self) -> SqrtCMonteCarloIndex:
        cfg = self._config
        return SqrtCMonteCarloIndex(
            self._graph,
            c=cfg.c,
            epsilon=cfg.epsilon,
            num_walks=cfg.mc_num_walks,
            seed=cfg.seed,
        )


@register_backend
class LinearizeBackend(_MethodBackend):
    """The linearization method of Maehara et al."""

    info = BackendInfo(
        name="linearize",
        exact=False,
        in_memory=True,
        scalable=True,
        build_cost="index",
        query_cost="linear",
    )

    def _make_method(self) -> LinearizeIndex:
        cfg = self._config
        return LinearizeIndex(self._graph, c=cfg.c, seed=cfg.seed)


def naive_iteration_count(config: BackendConfig) -> int:
    """Iterations :class:`NaiveBackend` will run for its configured accuracy."""
    return iterations_for_error(config.c, config.epsilon)

"""Similarity backends: one protocol, many SimRank computation strategies.

Every way this repository can answer a SimRank query is a
:class:`SimilarityBackend` exposing the same operations (``build``,
``single_pair``, ``single_source``, ``index_size_bytes``, ``all_pairs``) plus
capability/cost flags (:class:`BackendInfo`) that the engine and the
``describe`` control request report.  Ranking lives one layer up, in
:meth:`QueryEngine.top_k <repro.engine.QueryEngine.top_k>`.

There are three backend classes: :class:`SlingBackend` (the SLING index of
Algorithms 3/6 in memory, and the only one that mutates),
:class:`DiskSlingBackend` (the same index saved and memory-mapped back), and
:class:`MethodBackend`, which serves any
:class:`~repro.baselines.SimRankMethod` — naive, power, Monte Carlo (c-walks
and √c-walks) and linearization.

The registry is one dict from name to factory; :func:`create_backend`
instantiates one by name and :func:`resolve_backend_name` maps the paper's
figure labels ("SLING", "MC", "MC-sqrtc", "Linearize", ...) onto registry
keys so the evaluation drivers and the CLI share one dispatch path.
"""

from __future__ import annotations

import abc
import dataclasses
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ..baselines import (
    LinearizeIndex,
    MonteCarloIndex,
    NaiveSimRank,
    PowerMethod,
    SimRankMethod,
    SqrtCMonteCarloIndex,
)
from ..exceptions import IndexNotBuiltError, ParameterError
from ..graphs import DiGraph
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
    "MethodBackend",
    "backend_names",
    "create_backend",
    "resolve_backend_name",
]


@dataclass(frozen=True)
class BackendConfig:
    """Construction knobs shared by every backend.

    The one settable configuration of a backend: the service, the CLI and
    the evaluation drivers all build backends from it.  Each backend reads
    the fields it needs (``mc_num_walks`` only the Monte-Carlo methods,
    ``work_directory`` only the disk-backed SLING index).
    """

    c: float = 0.6
    epsilon: float = 0.025
    seed: int = 0
    #: Monte-Carlo walks per node.  The paper-exact budget (Section 3.2) is
    #: hundreds of thousands per node and does not fit in memory; this
    #: scaled-down budget keeps the method representable.
    mc_num_walks: int = 200
    #: Directory for disk-backed indexes; a temporary directory when ``None``.
    #: When it already holds a saved index, the disk backend mmaps it
    #: instead of rebuilding — how a pool of worker processes shares one
    #: prebuilt packed index at near-zero per-worker cost.  The saved
    #: index's own parameters win; only the graph shape is verified
    #: (:class:`~repro.exceptions.StorageError` on mismatch).
    work_directory: str | None = None


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

    def as_dict(self) -> dict:
        """Plain-dict form for the ``describe`` control response."""
        return dataclasses.asdict(self)


class SimilarityBackend(abc.ABC):
    """Uniform adapter over one SimRank computation strategy.

    Subclasses declare their :class:`BackendInfo` as ``info`` and implement
    ``build`` / ``single_pair`` / ``single_source`` / ``index_size_bytes``;
    ``all_pairs`` has a generic implementation on top of ``single_source``.
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
        """Return a mutated index to a clean, rebuild-parity generation.

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
    def all_pairs(self) -> np.ndarray:
        """All-pairs scores via one single-source query per node."""
        self._require_built()
        graph = self.graph
        matrix = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.float64)
        for node in graph.nodes():
            matrix[node] = self.single_source(node)
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "built" if self._built else "not built"
        return f"{type(self).__name__}(n={self.graph.num_nodes}, {status})"


# --------------------------------------------------------------------------- #
# SLING adapters
# --------------------------------------------------------------------------- #
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

    def __init__(
        self,
        graph: DiGraph,
        config: BackendConfig | None = None,
        *,
        index: SlingIndex | DynamicSlingIndex | None = None,
    ) -> None:
        """``index``, when given, is an index over ``graph`` already built
        or loaded, which the backend serves as built (how a recovered
        generation is served without a rebuild)."""
        super().__init__(graph, config)
        cfg = self._config
        self._built = index is not None
        self._index = index if index is not None else SlingIndex(
            graph, c=cfg.c, epsilon=cfg.epsilon, seed=cfg.seed
        )

    @property
    def index(self) -> SlingIndex:
        """The wrapped SLING index (build statistics, parameters, ...)."""
        return self._index

    @property
    def graph(self) -> DiGraph:
        """The graph of the generation the index serves now."""
        return self._index.graph

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
        ``affected_sources``.  The index's serving generation is the one
        owner of :attr:`graph` and :attr:`index_version`: both read it.
        """
        if not self.supports_mutation:
            return super().apply_mutation(added, removed)
        self._require_built()
        if not isinstance(self._index, DynamicSlingIndex):
            self._index = DynamicSlingIndex.from_index(self._index)
        return self._index.mutate(added=added, removed=removed)

    def refreeze(self) -> bool:
        self._require_built()
        if not isinstance(self._index, DynamicSlingIndex):
            return True
        return self._index.refreeze()

    @property
    def index_version(self) -> int:
        return self._index.version

    def staleness_bound(self) -> float:
        if isinstance(self._index, DynamicSlingIndex):
            return self._index.staleness_bound()
        return 0.0

    def index_size_bytes(self) -> int:
        self._require_built()
        return self._index.index_size_bytes()



class DiskSlingBackend(SlingBackend):
    """SLING served from a saved, memory-mapped index.

    ``build`` attaches to the index saved in ``config.work_directory`` with
    ``load_index(..., mmap_mode="r")``, building and saving one first when
    the directory holds none, so only the correction factors stay resident.
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
        if not has_saved_index(directory):
            save_index(self._index.build(), directory)
        # Zero-copy attach: the packed columns are memory-mapped; the only
        # per-process cost is the 8n bytes of correction factors.
        self._index = load_index(directory, self._graph, mmap_mode="r")
        self._built = True
        return self


# --------------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------------- #
class MethodBackend(SimilarityBackend):
    """Any :class:`~repro.baselines.SimRankMethod` behind the backend protocol.

    ``make(graph, config)`` constructs the method; every query forwards to
    it, and the method's own checks (node range, built state) apply.
    """

    def __init__(
        self,
        graph: DiGraph,
        config: BackendConfig | None = None,
        *,
        info: BackendInfo,
        make: Callable[[DiGraph, BackendConfig], SimRankMethod],
    ) -> None:
        super().__init__(graph, config)
        self.info = info
        self._method = make(graph, self._config)

    def build(self) -> "MethodBackend":
        self._method.build()
        self._built = True
        return self

    def single_pair(self, node_u: int, node_v: int) -> float:
        return self._method.single_pair(node_u, node_v)

    def single_source(self, node: int) -> np.ndarray:
        return self._method.single_source(node)

    def index_size_bytes(self) -> int:
        return self._method.index_size_bytes()


def _walks(method: type[SimRankMethod]) -> Callable:
    """Factory for a Monte-Carlo method: both walk variants take one shape."""
    return lambda graph, cfg: method(
        graph, c=cfg.c, epsilon=cfg.epsilon, num_walks=cfg.mc_num_walks, seed=cfg.seed
    )


#: Each baseline's capability flags and its ``make(graph, config)`` factory.
_BASELINES = (
    (
        BackendInfo(
            name="naive", exact=True, scalable=False,
            build_cost="matrix", query_cost="matrix-row",
        ),
        lambda graph, cfg: NaiveSimRank(graph, c=cfg.c, epsilon=cfg.epsilon),
    ),
    (
        BackendInfo(
            name="power", exact=True, scalable=False,
            build_cost="matrix", query_cost="matrix-row",
        ),
        lambda graph, cfg: PowerMethod(graph, c=cfg.c, epsilon=cfg.epsilon),
    ),
    (
        BackendInfo(name="montecarlo", build_cost="walks", query_cost="linear"),
        _walks(MonteCarloIndex),
    ),
    (
        BackendInfo(name="montecarlo_sqrtc", build_cost="walks", query_cost="linear"),
        _walks(SqrtCMonteCarloIndex),
    ),
    (
        BackendInfo(name="linearize", build_cost="index", query_cost="linear"),
        lambda graph, cfg: LinearizeIndex(graph, c=cfg.c, seed=cfg.seed),
    ),
)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
#: Backend name -> factory ``(graph, config) -> SimilarityBackend``.
_REGISTRY: dict[str, Callable[..., SimilarityBackend]] = {
    "sling": SlingBackend,
    "sling-disk": DiskSlingBackend,
    **{
        info.name: partial(MethodBackend, info=info, make=make)
        for info, make in _BASELINES
    },
}

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


def backend_names() -> list[str]:
    """All registered backend names, sorted."""
    return sorted(_REGISTRY)


def resolve_backend_name(label: str) -> str:
    """Map a figure label or alias ("SLING", "MC-sqrtc", ...) to a registry key."""
    key = _ALIASES.get(label.strip().lower())
    if key is None:
        raise ParameterError(
            f"unknown backend {label!r}; known backends: {', '.join(backend_names())}"
        )
    return key


def create_backend(
    name: str,
    graph: DiGraph,
    config: BackendConfig | None = None,
    *,
    build: bool = True,
) -> SimilarityBackend:
    """Instantiate (and by default build) a backend by registry name or alias."""
    backend = _REGISTRY[resolve_backend_name(name)](graph, config)
    if build:
        backend.build()
    return backend

"""The request/response facade: named dataset sessions over query engines.

:class:`SimRankService` is the layer consumers talk to.  It owns a set of
named **dataset sessions** — each one a graph plus lazily-built
:class:`~repro.engine.QueryEngine` instances, one per backend actually
used — and answers typed :class:`~repro.service.queries.Query` objects with
:class:`~repro.service.results.QueryResult` envelopes.

The contract at this boundary is *no exceptions for bad requests*: an unknown
dataset, an out-of-range node, or an undecodable wire payload comes back as
an error envelope with a structured code, so callers (the ``repro batch``
JSONL runner today, an async/HTTP front end tomorrow) never have to guard a
dispatch with try/except.  Programming errors inside a backend are likewise
contained and reported as ``internal_error`` envelopes.

Typical use::

    service = SimRankService(ServiceConfig(scale=0.1))
    result = service.execute(TopKQuery(dataset="GrQc", node=3, k=5))
    assert result.ok and result.backend == "sling"

Sessions open lazily on first use (any registry dataset name works), or
explicitly — including over caller-supplied graphs::

    session = service.open_dataset("my-graph", graph=graph)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..engine import (
    PAIR_AMORTIZE_THRESHOLD,
    BackendConfig,
    QueryEngine,
    SlingBackend,
    backend_names,
    create_engine,
    merge_statistics_totals,
    resolve_backend_name,
)
from ..exceptions import ParameterError, ReproError
from ..graphs import DiGraph, datasets
from ..sling import DynamicSlingIndex, has_saved_index
from .control import ControlRequest
from .mutations import apply_mutation
from .queries import Query
from .results import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_NODE_OUT_OF_RANGE,
    ERROR_UNKNOWN_DATASET,
    QueryResult,
    SparseScores,
)
from .wire import PROTOCOL_VERSION

__all__ = ["ServiceConfig", "DatasetSession", "SimRankService"]

#: Bound on the canonical-name memo (raw client spelling -> session key);
#: cleared wholesale when full, so hostile name churn cannot grow it.
_CANONICAL_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide policy: how sessions load graphs and build engines."""

    #: Default backend label (registry name or alias) for every session.
    backend: str = "sling"
    #: Per-engine LRU capacity for single-source vectors (0 disables).
    cache_size: int = 128
    #: Fixed per-*process* cache budget, in single-source vectors.  When set
    #: it overrides :attr:`cache_size`: the budget is divided among the open
    #: sessions, summing to exactly the budget (re-divided on every
    #: open/close, shrinking engines evict LRU-first).  This is the
    #: serving-at-scale memory model: one worker box has a fixed amount of
    #: cache RAM, so sharding datasets across more workers gives each dataset
    #: a larger slice of it.
    cache_budget_vectors: int | None = None
    #: Root directory of prebuilt indexes (one subdirectory per dataset name,
    #: as written by :func:`repro.sling.save_index`).  A session whose name
    #: has a saved index under this root mmaps it read-only via the
    #: ``sling-disk`` backend instead of building — how every worker in a
    #: pool shares one packed index at near-zero per-worker cost.
    index_dir: str | None = None
    #: Stand-in scale applied when loading registry datasets.
    scale: float = 1.0
    #: Seed for registry dataset generation.
    seed: int = 0
    #: Standalone single-pair probes on one source before that source's
    #: vector is admitted to the cache; ``None`` disables cross-kind
    #: admission (forwarded to every engine).
    pair_admission_threshold: int | None = PAIR_AMORTIZE_THRESHOLD
    #: Directory for per-dataset mutation write-ahead logs.  When set, every
    #: acknowledged ``mutate`` is fsync'd to ``<wal_dir>/<dataset>.wal``
    #: before the ack, each re-freeze saves the generation as a snapshot,
    #: and (re)opening a dataset loads the snapshot and replays the tail, so
    #: a restarted worker serves the pre-crash dynamic index (see
    #: :mod:`repro.service.wal`).  ``None`` keeps mutations memory-only.
    wal_dir: str | None = None
    #: Accuracy / seed knobs forwarded to backend construction.
    backend_config: BackendConfig = field(default_factory=BackendConfig)


class DatasetSession:
    """One named dataset: its graph plus per-backend query engines.

    Engines build lazily on first use and are keyed by resolved backend
    name, so every alias of a backend ("auto", "SLING", ...) shares one
    engine and one index.

    The session keeps no copy of which graph and index version it serves:
    once a ``"sling"`` engine exists, :attr:`graph` and
    :attr:`index_version` read its backend, whose serving generation is
    their one owner; before that they are the graph the session opened
    over and ``0``.
    """

    def __init__(self, name: str, graph: DiGraph, config: ServiceConfig) -> None:
        self._name = name
        #: The graph the session opened over; a mutated ``"sling"``
        #: engine's backend serves the current one (see :attr:`graph`).
        self._base_graph = graph
        self._config = config
        #: Effective per-engine LRU capacity; the service re-divides a
        #: ``cache_budget_vectors`` budget into this as sessions come and go.
        self._cache_capacity = config.cache_size
        self._engines: OrderedDict[str, QueryEngine] = OrderedDict()
        #: Requested label (or ``None`` = service default) -> engine.  One
        #: dict lookup on the per-query hot path.
        self._by_label: dict[str | None, QueryEngine] = {}
        # Serialises lazy engine builds: concurrent first queries on the same
        # session wait for one index build instead of racing several.
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        """The session's name — the key queries address it by."""
        return self._name

    @property
    def graph(self) -> DiGraph:
        """The graph this session answers queries on: the ``"sling"``
        engine's current one, else the graph the session opened over."""
        engine = self._engines.get("sling")
        return engine.backend.graph if engine is not None else self._base_graph

    @property
    def num_nodes(self) -> int:
        """Node count of the session's graph (mutations keep it)."""
        return self._base_graph.num_nodes

    @property
    def index_version(self) -> int:
        """The index version the ``"sling"`` engine's backend serves (0 when
        there is none, or the graph was never mutated)."""
        engine = self._engines.get("sling")
        return engine.backend.index_version if engine is not None else 0

    def backends(self) -> list[str]:
        """Backends of the engines built so far, in first-use order."""
        return list(self._engines)

    def engine(self, backend: str | None = None) -> QueryEngine:
        """The engine for ``backend`` (default: the service's), building it
        on first use.

        Engines are keyed by the backend actually attached, so every alias
        spelling shares one engine — and with a saved index under
        ``index_dir``, ``"sling"`` and ``"sling-disk"`` share the one
        ``sling-disk`` engine (one mmap, one cache).  Thread-safe: the
        memoised fast path is one (GIL-atomic) dict read; the build path
        runs under the session lock, so concurrent first queries on a
        session produce exactly one engine per backend.
        """
        engine = self._by_label.get(backend)
        if engine is not None:
            return engine
        with self._lock:
            engine = self._by_label.get(backend)
            if engine is not None:
                return engine
            label = backend if backend is not None else self._config.backend
            name = resolve_backend_name(label)
            config = self._config.backend_config
            saved = self._saved_index_dir(name)
            if saved is not None:
                # A prebuilt index for this dataset exists: attach to it
                # zero-copy instead of building.  Answers are bitwise
                # identical to the index that was saved, so a pool of
                # workers sharing one index directory stays in exact
                # agreement.
                name = "sling-disk"
                config = replace(config, work_directory=str(saved))
            engine = self._engines.get(name)
            if engine is None:
                engine = create_engine(
                    self.graph,
                    backend=name,
                    config=config,
                    cache_size=self._cache_capacity,
                    pair_admission_threshold=self._config.pair_admission_threshold,
                )
                self._engines[name] = engine
            self._by_label[backend] = engine
            return engine

    def publish_sling(self, engine: QueryEngine) -> None:
        """Serve ``engine`` — the mutated or recovered ``sling`` engine — as
        this session's only engine; its backend then owns the session's
        graph and index version.

        Engines built against an older graph are dropped and rebuild
        lazily, and every label resolves afresh on its next query.
        """
        with self._lock:
            self._engines = OrderedDict(sling=engine)
            self._by_label = {}

    def adopt_sling(self, index: DynamicSlingIndex) -> None:
        """Serve ``index``, a generation loaded from disk, as this session's
        ``sling`` engine, without a build."""
        engine = QueryEngine(
            SlingBackend(index.graph, self._config.backend_config, index=index),
            cache_size=self._cache_capacity,
            pair_admission_threshold=self._config.pair_admission_threshold,
        )
        self.publish_sling(engine)

    def _saved_index_dir(self, key: str) -> Path | None:
        """The prebuilt-index directory for this dataset, when one should be
        used: ``config.index_dir`` is set, a saved index exists under
        ``<index_dir>/<name>``, and the requested backend ``key`` is a SLING
        flavour.  An explicitly pinned baseline backend is honoured — the
        operator asked for that computation."""
        root = self._config.index_dir
        if root is None or key not in ("sling", "sling-disk"):
            return None
        candidate = Path(root) / self._name
        return candidate if has_saved_index(candidate) else None

    def set_cache_capacity(self, cache_size: int) -> None:
        """Re-size every engine's LRU (and future engines') to ``cache_size``
        vectors — the service calls this when re-dividing its cache budget."""
        with self._lock:
            self._cache_capacity = cache_size
            engines = list(self._engines.values())
        for engine in engines:
            engine.resize_cache(cache_size)

    def statistics(self) -> dict:
        """Per-session statistics: graph size plus one entry per engine.

        Engine statistics are snapshotted, so the dict is consistent even
        while other threads keep querying the session.
        """
        return {
            "dataset": self._name,
            "num_nodes": self.num_nodes,
            "num_edges": self.graph.num_edges,
            "index_version": self.index_version,
            "engines": {
                key: engine.statistics_snapshot().as_dict()
                for key, engine in list(self._engines.items())
            },
        }

    def describe(self) -> dict:
        """Self-description for the ``describe`` control request: graph
        size plus one full :meth:`~repro.engine.QueryEngine.describe` entry
        per engine built so far."""
        return {
            "dataset": self._name,
            "num_nodes": self.num_nodes,
            "num_edges": self.graph.num_edges,
            "index_version": self.index_version,
            "engines": {
                key: engine.describe()
                for key, engine in list(self._engines.items())
            },
        }

    def total_queries(self) -> int:
        """Queries answered across every engine of this session."""
        return sum(e.statistics.total_queries for e in self._engines.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatasetSession({self._name!r}, n={self.num_nodes}, "
            f"engines={list(self._engines)})"
        )


class SimRankService:
    """Typed request/response API over named dataset sessions.

    Thread safety: one service may be shared by concurrent request threads
    (:class:`~repro.service.ParallelExecutor`, ``repro serve``).  Session
    management — opening, closing, listing — is serialised behind a service
    lock (so two threads first-touching the same dataset load its graph
    once); query execution only pays that lock when it has to open a
    session, and the per-query hot path stays lock-free down to the engine,
    whose own lock guards the cache and statistics.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config or ServiceConfig()
        self._sessions: OrderedDict[str, DatasetSession] = OrderedDict()
        #: Raw client spelling -> resolved session key.  Keeps case-variant
        #: traffic ("grqc" for "GrQc") on the lock-free execute fast path
        #: instead of paying the RLock + registry scan on every query.
        self._canonical_memo: dict[str, str] = {}
        #: Session key -> its open :class:`~repro.service.wal.MutationWAL`
        #: (only when :attr:`ServiceConfig.wal_dir` is set).
        self._wals: dict[str, object] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Session management
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> ServiceConfig:
        """The policy this service was created with."""
        return self._config

    def _canonical(self, name: str) -> str:
        """Resolve ``name`` case-insensitively against open sessions, then
        the dataset registry; unknown names pass through unchanged.

        Successful resolutions are memoized so repeat spellings skip the
        scans; pass-throughs are *not* — an unknown name must keep resolving
        freshly in case a session is later opened under a matching key.
        """
        memoized = self._canonical_memo.get(name)
        if memoized is not None:
            return memoized
        lowered = name.lower()
        for key in self._sessions:
            if key.lower() == lowered:
                self._memoize(name, key)
                return key
        for key in datasets.dataset_names():
            if key.lower() == lowered:
                self._memoize(name, key)
                return key
        return name

    def _memoize(self, name: str, key: str) -> None:
        if len(self._canonical_memo) >= _CANONICAL_MEMO_LIMIT:
            self._canonical_memo.clear()
        self._canonical_memo[name] = key

    def _drop_memo_for(self, key: str) -> None:
        """Forget memo entries resolving to ``key`` — called when its session
        closes, so a stale spelling cannot shadow a later re-registration."""
        stale = [
            raw for raw, resolved in self._canonical_memo.items()
            if resolved == key
        ]
        for raw in stale:
            del self._canonical_memo[raw]

    def open_dataset(
        self, name: str, *, graph: DiGraph | None = None
    ) -> DatasetSession:
        """The session for ``name``, opening it if needed.

        Without ``graph``, the name must be a registry dataset
        (:func:`repro.graphs.datasets.load_dataset`, at the service's scale
        and seed); with ``graph``, any name registers the caller's graph as a
        session — how the examples serve generated graphs.  Re-opening an
        existing session returns it unchanged (a conflicting ``graph`` raises
        :class:`~repro.exceptions.ParameterError`).
        """
        with self._lock:
            key = self._canonical(name)
            session = self._sessions.get(key)
            if session is not None:
                if graph is not None and graph is not session.graph:
                    raise ParameterError(
                        f"dataset session {key!r} is already open over a "
                        "different graph"
                    )
                return session
            if graph is None:
                graph = datasets.load_dataset(
                    key, scale=self._config.scale, seed=self._config.seed
                )
            session = DatasetSession(key, graph, self._config)
            self._sessions[key] = session
            self._apply_cache_budget()
            if self._config.wal_dir is not None:
                from .mutations import recover_session
                from .wal import MutationWAL

                wal = MutationWAL(self._config.wal_dir, key)
                self._wals[key] = wal
                # Load the snapshot and replay the tail, so the fresh
                # session serves the pre-crash dynamic index.
                recover_session(session, wal)
            return session

    def close_dataset(self, name: str) -> bool:
        """Drop the session (graph, engines, caches); ``False`` if not open."""
        with self._lock:
            key = self._canonical(name)
            closed = self._sessions.pop(key, None) is not None
            if closed:
                self._drop_memo_for(key)
                self._apply_cache_budget()
                wal = self._wals.pop(key, None)
                if wal is not None:
                    wal.close()
            return closed

    def _apply_cache_budget(self) -> None:
        """Re-divide ``cache_budget_vectors`` among the open sessions.

        Called under the service lock whenever the session set changes; a
        no-op without a budget.  Fewer sessions per process (i.e. more
        workers sharding the same datasets) means a larger per-dataset LRU
        from the same fixed memory — the mechanism that makes scale-out pay
        on skewed workloads.
        """
        budget = self._config.cache_budget_vectors
        if budget is None or not self._sessions:
            return
        # The capacities sum to exactly the budget: every session gets the
        # floor share and the earliest-opened ``extra`` get one more, so a
        # budget smaller than the session count leaves some caches off (0).
        share, extra = divmod(max(budget, 0), len(self._sessions))
        for position, session in enumerate(self._sessions.values()):
            session.set_cache_capacity(share + (1 if position < extra else 0))

    def close_all(self) -> None:
        """Drop every session."""
        with self._lock:
            self._sessions.clear()
            self._canonical_memo.clear()
            for wal in self._wals.values():
                wal.close()
            self._wals.clear()

    def wal_for(self, name: str):
        """The open WAL for ``name``'s session, or ``None`` (no ``wal_dir``,
        or the session is not open)."""
        with self._lock:
            return self._wals.get(self._canonical(name))

    def list_datasets(self) -> list[str]:
        """Names of the open sessions, in opening order."""
        with self._lock:
            return list(self._sessions)

    def statistics(self) -> dict:
        """Aggregate statistics: per-session detail plus service-wide totals.

        Per-engine numbers come from consistent snapshots, so the totals add
        up even while other threads keep executing queries.
        """
        with self._lock:
            sessions = list(self._sessions.items())
        per_dataset = {}
        engine_dicts: list[dict] = []
        for name, session in sessions:
            detail = session.statistics()
            wal = self._wals.get(name)
            if wal is not None:
                detail["wal"] = wal.stats()
            per_dataset[name] = detail
            engine_dicts.extend(detail["engines"].values())
        # One definition of "service-wide totals", shared with the router's
        # fan-out merge: every engine counter and latency histogram bucket
        # summed, hit rates and latency percentiles recomputed from the sums
        # (rates and quantiles cannot be summed).
        totals = merge_statistics_totals(engine_dicts)
        return {"datasets": per_dataset, "totals": totals}

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Query,
        *,
        backend: str | None = None,
    ) -> QueryResult:
        """Answer one typed query; every failure is an error envelope.

        ``seconds`` on the envelope is the service-observed latency — on the
        first query of a session that includes the lazy graph load and index
        build.  ``backend`` pins a backend label for this query (``None``
        uses the session default).
        """
        start = time.perf_counter()
        kind, dataset = query.kind, query.dataset

        # Steady-state fast path: the session exists and its engine is memoized,
        # so reaching the engine costs two dict lookups.  Case-variant
        # spellings take one more through the canonical memo — still
        # lock-free — instead of falling into open_dataset's RLock and
        # registry scan on every query.
        session = self._sessions.get(dataset)
        if session is None:
            key = self._canonical_memo.get(dataset)
            if key is not None:
                session = self._sessions.get(key)
        if session is None:
            try:
                session = self.open_dataset(dataset)
            except ParameterError as exc:
                # A known dataset name that still fails to load is a
                # service-side problem (bad scale, broken generator), not the
                # client naming an unknown dataset.
                known = any(
                    key.lower() == dataset.lower()
                    for key in datasets.dataset_names()
                )
                code = ERROR_INTERNAL if known else ERROR_UNKNOWN_DATASET
                return self._fail(code, str(exc), query, start)
            except Exception as exc:  # noqa: BLE001 - the boundary must not leak
                return self._fail(
                    ERROR_INTERNAL, f"{type(exc).__name__}: {exc}", query, start
                )
        try:
            engine = session.engine(backend)
        except ParameterError as exc:
            return self._fail(ERROR_BAD_REQUEST, str(exc), query, start)
        except Exception as exc:  # noqa: BLE001 - lazy index builds can fail too
            return self._fail(
                ERROR_INTERNAL, f"{type(exc).__name__}: {exc}", query, start
            )

        n = session.num_nodes
        # Captured *before* the engine call: a mutation landing mid-query may
        # make the answer fresher than this stamp, never staler — the
        # backend's generation owns the version, and the engine cache serves
        # only entries stamped with the version that generation serves now.
        # Claiming a version newer than the served value would defeat the
        # ``index_version`` echo clients use to reason about staleness.
        version = session.index_version
        try:
            if kind == "single_pair":
                if query.node_u >= n or query.node_v >= n:
                    return self._out_of_range(query, session, start)
                value: object = engine.single_pair(query.node_u, query.node_v)
            elif kind == "single_source":
                if query.node >= n:
                    return self._out_of_range(query, session, start)
                value = SparseScores.from_dense(
                    engine.single_source(query.node)
                )
            elif kind == "top_k":
                if query.node >= n:
                    return self._out_of_range(query, session, start)
                value = [
                    {"rank": rank, "node": node, "score": score}
                    for rank, (node, score) in enumerate(
                        engine.top_k(query.node, query.k), start=1
                    )
                ]
            else:
                return self._fail(
                    ERROR_BAD_REQUEST, f"unsupported query kind {kind!r}",
                    query, start,
                )
        except ReproError as exc:
            return self._fail(ERROR_BAD_REQUEST, str(exc), query, start)
        except Exception as exc:  # noqa: BLE001 - the boundary must not leak
            return self._fail(
                ERROR_INTERNAL, f"{type(exc).__name__}: {exc}", query, start
            )

        # Attributed per calling thread — under concurrent execution the
        # aggregate counters interleave, so a counter delta would claim other
        # threads' hits as this request's.
        record = engine.last_query_record
        cache_hit = record.cache_hit if record is not None else None
        # Only mutated sessions stamp a version, so the wire form of a
        # static service is byte-for-byte what it was before mutations
        # existed.
        return QueryResult.success(
            kind=kind,
            dataset=session.name,
            value=value,
            backend=engine.backend.name,
            seconds=time.perf_counter() - start,
            cache_hit=cache_hit,
            index_version=version if version > 0 else None,
        )

    @staticmethod
    def _fail(code: str, message: str, query: Query, start: float) -> QueryResult:
        return QueryResult.failure(
            code, message, kind=query.kind, dataset=query.dataset,
            seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _out_of_range(
        query: Query, session: DatasetSession, start: float
    ) -> QueryResult:
        nodes = {
            name: value
            for name in ("node", "node_u", "node_v")
            if (value := getattr(query, name, None)) is not None
            and value >= session.num_nodes
        }
        described = ", ".join(f"{name}={value}" for name, value in nodes.items())
        return QueryResult.failure(
            ERROR_NODE_OUT_OF_RANGE,
            f"{described} out of range for dataset {session.name!r} "
            f"with {session.num_nodes} nodes",
            kind=query.kind,
            dataset=query.dataset,
            seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def hello_payload(self) -> dict:
        """The ``hello`` frame a serve loop opens with (minus encoding):
        protocol version, available backends, and open datasets.

        Shared with the in-process client transport, so both transports
        advertise identically.
        """
        return {
            "v": PROTOCOL_VERSION,
            "frame": "hello",
            "protocol": PROTOCOL_VERSION,
            "backends": ["auto", *backend_names()],
            "default_backend": self._config.backend,
            "datasets": self.list_datasets(),
            "registry": list(datasets.dataset_names()),
        }

    def describe(self, dataset: str | None = None) -> dict:
        """Self-description: the whole service, or one *open* session.

        The service-level form carries the protocol version, backends, open
        sessions, and the session-shaping config; the session-level form
        delegates to :meth:`DatasetSession.describe` (graph size, per-engine
        backend info, cache state, statistics).  Raises
        :class:`~repro.exceptions.ParameterError` for a session that is not
        open — describing must stay cheap, so it never triggers a graph
        load or index build.
        """
        if dataset is None:
            return {
                "protocol": PROTOCOL_VERSION,
                "backends": ["auto", *backend_names()],
                "datasets": self.list_datasets(),
                "registry": list(datasets.dataset_names()),
                "config": {
                    "backend": self._config.backend,
                    "cache_size": self._config.cache_size,
                    "cache_budget_vectors": self._config.cache_budget_vectors,
                    "pair_admission_threshold": (
                        self._config.pair_admission_threshold
                    ),
                    "index_dir": self._config.index_dir,
                    "wal_dir": self._config.wal_dir,
                    "scale": self._config.scale,
                    "seed": self._config.seed,
                },
            }
        with self._lock:
            session = self._sessions.get(self._canonical(dataset))
        if session is None:
            raise ParameterError(
                f"dataset session {dataset!r} is not open; "
                "open_dataset it first (describe never opens sessions)"
            )
        return session.describe()

    def execute_control(self, request: ControlRequest) -> QueryResult:
        """Answer one control-plane request as a :class:`QueryResult`.

        Same boundary contract as :meth:`execute`: failures come back as
        structured error envelopes, never exceptions.  ``shutdown`` only
        *acknowledges* here — actually stopping is the serve loop's job
        (it watches for the acknowledged envelope); an in-process caller
        has nothing to stop.
        """
        start = time.perf_counter()
        kind = request.kind
        dataset = getattr(request, "dataset", None)
        try:
            if kind == "ping":
                value: object = {"pong": True, "protocol": PROTOCOL_VERSION}
            elif kind == "list_datasets":
                value = {"datasets": self.list_datasets()}
            elif kind == "stats":
                value = self.statistics()
            elif kind == "open_dataset":
                already = self._canonical(dataset) in self.list_datasets()
                session = self.open_dataset(dataset)
                value = {
                    "dataset": session.name,
                    "num_nodes": session.num_nodes,
                    "num_edges": session.graph.num_edges,
                    "already_open": already,
                }
                dataset = session.name
            elif kind == "close_dataset":
                value = {"dataset": dataset, "closed": self.close_dataset(dataset)}
            elif kind == "describe":
                value = self.describe(dataset)
            elif kind == "mutate":
                # Owns its full error mapping (unknown dataset, out-of-range
                # endpoints, read-only backend) in repro.service.mutations.
                return apply_mutation(self, request, start)
            elif kind == "shutdown":
                value = {"stopping": True}
            else:
                return QueryResult.failure(
                    ERROR_BAD_REQUEST,
                    f"unsupported control kind {kind!r}",
                    kind=kind,
                    dataset=dataset,
                    seconds=time.perf_counter() - start,
                )
        except ParameterError as exc:
            known = dataset is not None and any(
                key.lower() == dataset.lower() for key in datasets.dataset_names()
            )
            code = ERROR_UNKNOWN_DATASET
            if kind == "open_dataset" and known:
                # A registry dataset that fails to *load* is a service-side
                # problem, mirroring the lazy-open path in execute().
                code = ERROR_INTERNAL
            return QueryResult.failure(
                code, str(exc), kind=kind, dataset=dataset,
                seconds=time.perf_counter() - start,
            )
        except Exception as exc:  # noqa: BLE001 - the boundary must not leak
            return QueryResult.failure(
                ERROR_INTERNAL, f"{type(exc).__name__}: {exc}",
                kind=kind, dataset=dataset,
                seconds=time.perf_counter() - start,
            )
        return QueryResult.success(
            kind=kind,
            dataset=dataset,
            value=value,
            backend=None,
            seconds=time.perf_counter() - start,
            cache_hit=None,
        )

    def execute_request(
        self,
        request: Query | ControlRequest | QueryResult,
        *,
        backend: str | None = None,
    ) -> QueryResult:
        """Answer a typed request from either plane (the union dispatch).

        A pre-failed :class:`QueryResult` (from envelope decoding) passes
        through untouched, so callers can feed decoded lines in blindly.
        """
        if isinstance(request, QueryResult):
            return request
        if isinstance(request, ControlRequest):
            return self.execute_control(request)
        return self.execute(request, backend=backend)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimRankService(sessions={self.list_datasets()}, "
            f"backend={self._config.backend!r})"
        )

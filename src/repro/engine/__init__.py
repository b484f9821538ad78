"""Unified query-engine layer over SLING and every baseline method.

This package puts one execution surface in front of all the ways the
repository can answer a SimRank query:

* :mod:`repro.engine.backends` — the :class:`SimilarityBackend` protocol, a
  string-keyed registry, and adapter classes wrapping :class:`SlingIndex`
  (built in memory, or saved and memory-mapped back by the ``sling-disk``
  backend) and the naive / power / Monte-Carlo / linearize baselines;
* :mod:`repro.engine.engine` — :class:`QueryEngine`, which executes
  queries with an LRU cache of single-source score vectors, aggregate
  counters and a fixed-bucket latency histogram per query kind × cache
  outcome (constant-size, merged exactly by
  :func:`merge_statistics_totals`), and :func:`create_engine`, which builds
  a named backend and wraps it in one.

This package is the *middle* layer of the serving stack::

    repro.service   SimRankService: typed requests -> QueryResult envelopes,
       |            named dataset sessions, JSONL wire protocol
    repro.engine    QueryEngine: LRU cache, statistics
       |
    backends        SLING index, disk-backed SLING, baselines

Consumers (the CLI, the experiment drivers, the examples, ``repro batch``)
talk to :class:`repro.service.SimRankService`, which opens one engine per
(dataset, backend) pair through :func:`create_engine`; the engine is an
internal layer — reach for it directly only when embedding a single backend
without session management (tests, micro-benchmarks).
"""

from .backends import (
    BackendConfig,
    BackendInfo,
    DiskSlingBackend,
    LinearizeBackend,
    MonteCarloBackend,
    NaiveBackend,
    PowerBackend,
    SimilarityBackend,
    SlingBackend,
    SqrtCMonteCarloBackend,
    backend_names,
    create_backend,
    get_backend_class,
    register_backend,
    resolve_backend_name,
)
from .engine import (
    ENGINE_TOTAL_COUNTERS,
    LATENCY_BUCKET_EDGES,
    PAIR_AMORTIZE_THRESHOLD,
    EngineStatistics,
    QueryEngine,
    QueryRecord,
    create_engine,
    hit_rate_by_kind,
    histogram_quantiles,
    latency_bucket,
    latency_quantiles,
    merge_statistics_totals,
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
    "backend_names",
    "create_backend",
    "get_backend_class",
    "register_backend",
    "resolve_backend_name",
    "QueryEngine",
    "EngineStatistics",
    "QueryRecord",
    "ENGINE_TOTAL_COUNTERS",
    "PAIR_AMORTIZE_THRESHOLD",
    "LATENCY_BUCKET_EDGES",
    "latency_quantiles",
    "latency_bucket",
    "histogram_quantiles",
    "hit_rate_by_kind",
    "merge_statistics_totals",
    "create_engine",
]

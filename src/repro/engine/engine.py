"""The query engine: query execution, caching, statistics.

:class:`QueryEngine` fronts one :class:`SimilarityBackend` and adds the
things no individual backend provides:

* **an LRU cache** of single-source score vectors, so repeated and
  overlapping workloads (top-k dashboards, all-pairs sweeps, skewed query
  mixes) skip recomputation entirely;
* **statistics** — aggregate counters (queries by kind, cache hit rate,
  evictions, total time, backend used) and a fixed-bucket latency
  histogram per query kind × cache outcome, over the engine's lifetime (or
  since a reset), as plain dictionaries for the CLI's ``--json`` mode.

Derived queries route through the cache: ``top_k`` ranks a cached
single-source vector, and a ``single_pair`` whose source vector is already
cached is answered from it without touching the backend.  The cache is
shared *across* query kinds with explicit cross-kind admission — a source
probed by enough pair queries (``pair_admission_threshold``)
gets its vector computed and admitted so subsequent traffic of every kind
hits.  An entry leaves the cache by LRU eviction, by a capacity resize, or
when a mutation of the index invalidates it.  The backend's serving
generation owns the index version: every entry is stamped with the version
the backend served when its computation started, and a lookup drops an entry
whose stamp differs from the version the backend serves now, so a vector is
served only by the generation it was computed on, or one that
:meth:`QueryEngine.invalidate_cache` certified it unchanged for.
:func:`merge_statistics_totals` is the single definition of aggregated
cache/latency statistics used by the service layer and the router alike;
histograms merge exactly, by adding bucket counts.

Thread safety
-------------
An engine may be shared by concurrent query threads (the
:class:`~repro.service.ParallelExecutor` and ``repro serve`` do exactly
that).  The contract is:

* every public query method is safe to call from any number of threads,
  and backend queries run concurrently (every backend is read-only after
  ``build``);
* the LRU cache and the aggregate statistics are guarded by one internal
  lock, so counters never lose updates and evictions never corrupt the
  ordered dict — backend computation happens *outside* the lock, so cache
  misses execute concurrently (two threads missing on the same source may
  both compute it; the stores are idempotent);
* :attr:`statistics` is the live, mutating object — read it for cheap
  monitoring; use :meth:`statistics_snapshot` for a consistent copy;
* :attr:`last_query_record` is **per-thread**: it describes the most recent
  query *of the calling thread*, which is how the service layer attributes
  a cache hit to the request it is answering without racing other threads.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from itertools import accumulate
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import ParameterError, WireFormatError
from ..graphs import DiGraph
from ..ranking import rank_top_k
from .backends import BackendConfig, SimilarityBackend, create_backend

__all__ = [
    "QueryEngine",
    "create_engine",
    "EngineStatistics",
    "QueryRecord",
    "LATENCY_QUANTILES",
    "LATENCY_BUCKET_EDGES",
    "ENGINE_TOTAL_COUNTERS",
    "PAIR_AMORTIZE_THRESHOLD",
    "latency_quantiles",
    "latency_bucket",
    "histogram_quantiles",
    "hit_rate_by_kind",
    "merge_statistics_totals",
]

#: The default ``pair_admission_threshold`` for cross-kind cache admission:
#: a source probed this many times by ``single_pair`` queries gets its
#: vector computed and admitted to the shared single-source cache (see
#: :class:`QueryEngine`).
PAIR_AMORTIZE_THRESHOLD = 4

#: Bound on the table tracking pair probe misses per source
#: (admission pressure); oldest entries are dropped beyond this.
_PAIR_COUNT_LIMIT = 4096

#: The latency quantiles reported by :func:`latency_quantiles` — the tail
#: percentiles a serving operator watches (p50 for the typical query, p95/p99
#: for the tail that dominates user-perceived latency at scale).
LATENCY_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def latency_quantiles(seconds: Sequence[float]) -> dict:
    """Nearest-rank p50/p95/p99 over a sample of latencies, plus the count.

    Nearest-rank (the ceil-of-q*n order statistic) rather than interpolation:
    every reported value is a latency that actually occurred.  Empty samples
    yield ``count: 0`` with no quantile keys, so a kind that has never been
    queried does not fabricate a 0.0 latency.  Engine statistics apply the
    same rule to a histogram (:func:`histogram_quantiles`); this one serves
    client-side samples (benchmarks, the chaos report).
    """
    sample = sorted(float(value) for value in seconds)
    out: dict = {"count": len(sample)}
    if not sample:
        return out
    n = len(sample)
    for name, q in LATENCY_QUANTILES:
        # Nearest-rank: the smallest value with at least q*n samples <= it.
        rank = max(1, math.ceil(q * n))
        out[name] = sample[rank - 1]
    return out


#: Upper edges of the latency histogram's buckets, in seconds: bucket ``b``
#: holds latencies in ``(edge[b-1], edge[b]]``, ``edge[b] = 1 µs · 2^(b/8)``.
#: 8 buckets per octave bound a reported quantile's overstatement at
#: 2^(1/8) ≈ 9%.  Bucket 0 also holds anything faster than 1 µs, the last
#: (2^30 µs ≈ 18 min) anything slower.  Fixed, so every histogram merges.
LATENCY_BUCKET_EDGES = tuple(1e-6 * 2.0 ** (b / 8) for b in range(8 * 30 + 1))
_BUCKETS = len(LATENCY_BUCKET_EDGES)


def latency_bucket(seconds: float) -> int:
    """The histogram bucket a latency of ``seconds`` is counted in."""
    return min(bisect_left(LATENCY_BUCKET_EDGES, seconds), _BUCKETS - 1)


def histogram_quantiles(counts: Sequence[int]) -> dict:
    """:func:`latency_quantiles` over per-bucket ``counts``: each quantile is
    the upper edge of the bucket holding the nearest-rank sample, so within
    the histogram's range it lies in [sample, sample · 2^(1/8)]."""
    cumulative = list(accumulate(counts))
    n = cumulative[-1]
    out: dict = {"count": n}
    if n:
        for name, q in LATENCY_QUANTILES:
            rank = max(1, math.ceil(q * n))
            out[name] = LATENCY_BUCKET_EDGES[bisect_left(cumulative, rank)]
    return out


def _latency_fields(histogram: dict) -> dict:
    """A kind → ``"hit"``/``"miss"`` → per-bucket counts histogram as shipped:
    ``latency_histogram`` as sparse ``[bucket, count]`` pairs (bounded by the
    bucket count whatever the traffic), ``latency_percentiles`` per kind, and
    ``latency_percentiles_by_outcome`` — hit vs miss over every kind, the two
    latency worlds a cache operator compares."""
    pairs: dict[str, dict] = {}
    of_kind: dict[str, dict] = {}
    of_outcome = {"hit": [0] * _BUCKETS, "miss": [0] * _BUCKETS}
    for kind in sorted(histogram):
        summed = [0] * _BUCKETS
        for outcome, counts in sorted(histogram[kind].items()):
            pairs.setdefault(kind, {})[outcome] = [[b, c] for b, c in enumerate(counts) if c]
            summed = [a + b for a, b in zip(summed, counts)]
            of_outcome[outcome] = [a + b for a, b in zip(of_outcome[outcome], counts)]
        of_kind[kind] = histogram_quantiles(summed)
    return {
        "latency_histogram": pairs,
        "latency_percentiles": of_kind,
        "latency_percentiles_by_outcome": {
            outcome: histogram_quantiles(counts) for outcome, counts in of_outcome.items()
        },
    }


def _merge_latency_histogram(histogram: dict, shipped: object) -> None:
    """Add a shipped ``latency_histogram`` into ``histogram``.  The router
    decodes it off a worker's reply, so what no engine sends — a non-integer
    or out-of-range bucket, a negative count, an unknown outcome — raises
    :class:`WireFormatError` rather than index out of range or be summed."""
    if not isinstance(shipped, dict) or not all(
        isinstance(by_outcome, dict)
        and set(by_outcome) <= {"hit", "miss"}
        and all(isinstance(pairs, list) for pairs in by_outcome.values())
        for by_outcome in shipped.values()
    ):
        raise WireFormatError("latency_histogram must map kinds to hit/miss pair lists")
    for kind, by_outcome in shipped.items():
        for outcome, pairs in by_outcome.items():
            counts = histogram.setdefault(kind, {}).setdefault(outcome, [0] * _BUCKETS)
            for pair in pairs:
                if not (
                    isinstance(pair, list)
                    and len(pair) == 2
                    and all(type(value) is int for value in pair)
                    and 0 <= pair[0] < _BUCKETS
                    and pair[1] >= 0
                ):
                    raise WireFormatError(f"latency_histogram pair {pair!r} is malformed")
                counts[pair[0]] += pair[1]


def hit_rate_by_kind(
    hits_by_kind: dict[str, int], misses_by_kind: dict[str, int]
) -> dict[str, float]:
    """Per-kind cache hit rate: the fraction of queries of each kind that
    were answered from the cache.  A kind's "miss" here is any query not
    served from cache — including pair read-throughs that never consult it —
    so the rate answers "how much of this kind's traffic did the cache
    absorb", not "how often did a lookup succeed"."""
    rates: dict[str, float] = {}
    for kind in sorted(set(hits_by_kind) | set(misses_by_kind)):
        hits = hits_by_kind.get(kind, 0)
        total = hits + misses_by_kind.get(kind, 0)
        rates[kind] = hits / total if total else 0.0
    return rates


#: The additive counters summed by :func:`merge_statistics_totals`; shared by
#: the service's ``stats`` totals and the router's fan-out merge, and pinned
#: by tests asserting totals == sum(engines).
ENGINE_TOTAL_COUNTERS = (
    "total_queries",
    "single_pair_queries",
    "single_source_queries",
    "top_k_queries",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_admissions",
    "pair_probe_hits",
    "pair_probe_misses",
    "pair_admissions",
    "cache_invalidations",
)


def _shipped_count(value: object, what: str) -> int:
    """A counter off a worker's reply: a non-bool int >= 0, or
    :class:`WireFormatError`."""
    if type(value) is not int or value < 0:
        raise WireFormatError(f"{what} {value!r} is not a non-negative integer")
    return value


def merge_statistics_totals(engine_dicts: Iterable[dict]) -> dict:
    """Roll per-engine statistics dicts (:meth:`EngineStatistics.as_dict`
    form, or the same shape off the wire) into one totals dict.

    This is *the* definition of service-wide totals: counters are summed,
    per-kind hit/miss tallies merge by key, the overall and per-kind hit
    rates are recomputed from the summed counters (rates cannot be summed),
    latency histograms merge by adding bucket counts, and the latency
    percentiles are recomputed from the merged histogram with the same
    nearest-rank definition the per-engine dicts use.  Totals carry the
    merged ``latency_histogram`` too, so totals merge again like engines.
    Both :meth:`SimRankService.statistics` and the router's ``stats``
    fan-out merge call this one function, so an engine, a single server, and
    a sharded pool can never disagree about what a hit rate or a p99 means.
    Missing keys count as zero, so dicts recorded by older servers merge
    cleanly.  What no engine sends — a counter that is not a non-negative
    int (a string, a bool, a fraction), a ``total_seconds`` that is not a
    finite number >= 0, a per-kind tally that is not a dict of such
    counters, or a malformed histogram — raises :class:`WireFormatError`
    rather than be coerced and summed.
    """
    totals: dict = dict.fromkeys(ENGINE_TOTAL_COUNTERS, 0)
    totals["total_seconds"] = 0.0
    hits: dict[str, int] = {}
    misses: dict[str, int] = {}
    histogram: dict = {}
    for stats in engine_dicts:
        for key in ENGINE_TOTAL_COUNTERS:
            totals[key] += _shipped_count(stats.get(key, 0), key)
        seconds = stats.get("total_seconds", 0.0)
        if type(seconds) not in (int, float) or not 0.0 <= seconds < math.inf:
            raise WireFormatError(f"total_seconds {seconds!r} is not a finite number >= 0")
        totals["total_seconds"] += seconds
        for key, tally in (("hits_by_kind", hits), ("misses_by_kind", misses)):
            by_kind = stats.get(key, {})
            if not isinstance(by_kind, dict):
                raise WireFormatError(f"{key} must map kinds to counts")
            for kind, count in by_kind.items():
                tally[kind] = tally.get(kind, 0) + _shipped_count(count, f"{key}[{kind!r}]")
        _merge_latency_histogram(histogram, stats.get("latency_histogram", {}))
    lookups = totals["cache_hits"] + totals["cache_misses"]
    totals["cache_hit_rate"] = totals["cache_hits"] / lookups if lookups else 0.0
    totals["hits_by_kind"] = {kind: hits[kind] for kind in sorted(hits)}
    totals["misses_by_kind"] = {kind: misses[kind] for kind in sorted(misses)}
    totals["hit_rate_by_kind"] = hit_rate_by_kind(hits, misses)
    return {**totals, **_latency_fields(histogram)}


@dataclass(frozen=True)
class QueryRecord:
    """Latency and provenance of one executed query: what
    :attr:`QueryEngine.last_query_record` reports to the calling thread."""

    kind: str
    backend: str
    seconds: float
    cache_hit: bool


@dataclass
class EngineStatistics:
    """Aggregate counters across the engine's lifetime (or since a reset)."""

    backend: str = ""
    single_pair_queries: int = 0
    single_source_queries: int = 0
    top_k_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Vectors stored into the LRU (misses that completed, plus cross-kind
    #: pair admissions; concurrent misses on one source may store twice).
    cache_admissions: int = 0
    #: Cross-kind admissions: vectors computed because pair probes of their
    #: source crossed the admission threshold.
    pair_admissions: int = 0
    #: Pair queries answered from a cached source vector.  These also count
    #: into :attr:`cache_hits` — a pair served without touching the backend
    #: is cacheable work the cache absorbed.
    pair_probe_hits: int = 0
    #: Cached vectors dropped because the index they were computed against
    #: was mutated — either named as affected by
    #: :meth:`QueryEngine.invalidate_cache`, or found on lookup stamped with
    #: a version the backend no longer serves.
    cache_invalidations: int = 0
    #: Pair queries whose canonical source was not cached.  These deliberately
    #: do NOT count into :attr:`cache_misses`: the scalar read-through never
    #: asked the cache to do vector work, so counting it as a miss would
    #: deflate :attr:`cache_hit_rate` on pair-heavy traffic without the cache
    #: ever having a chance to serve it.
    pair_probe_misses: int = 0
    #: Per query kind: queries answered from the cache / not answered from
    #: the cache.  ``misses_by_kind`` includes pair read-throughs, so the
    #: per-kind rate reads "fraction of this kind's traffic the cache
    #: absorbed" (see :func:`hit_rate_by_kind`).
    hits_by_kind: dict = field(default_factory=dict)
    misses_by_kind: dict = field(default_factory=dict)
    total_seconds: float = 0.0
    #: Query kind -> ``"hit"``/``"miss"`` -> per-bucket query counts over
    #: :data:`LATENCY_BUCKET_EDGES`.
    latency_histogram: dict = field(default_factory=dict)

    @property
    def total_queries(self) -> int:
        """All queries answered, regardless of kind."""
        return (
            self.single_pair_queries
            + self.single_source_queries
            + self.top_k_queries
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when none were made)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable) for reporting."""
        return {
            "backend": self.backend,
            "total_queries": self.total_queries,
            "single_pair_queries": self.single_pair_queries,
            "single_source_queries": self.single_source_queries,
            "top_k_queries": self.top_k_queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_admissions": self.cache_admissions,
            "pair_probe_hits": self.pair_probe_hits,
            "pair_probe_misses": self.pair_probe_misses,
            "pair_admissions": self.pair_admissions,
            "cache_invalidations": self.cache_invalidations,
            "cache_hit_rate": self.cache_hit_rate,
            "hits_by_kind": {k: self.hits_by_kind[k] for k in sorted(self.hits_by_kind)},
            "misses_by_kind": {
                k: self.misses_by_kind[k] for k in sorted(self.misses_by_kind)
            },
            "hit_rate_by_kind": hit_rate_by_kind(
                self.hits_by_kind, self.misses_by_kind
            ),
            "total_seconds": self.total_seconds,
            **_latency_fields(self.latency_histogram),
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.total_queries} queries via {self.backend or '?'} in "
            f"{self.total_seconds:.3f}s "
            f"({self.single_pair_queries} pair, "
            f"{self.single_source_queries} source, "
            f"{self.top_k_queries} top-k); "
            f"cache hit rate {100.0 * self.cache_hit_rate:.1f}% "
            f"({self.cache_hits} hits, {self.cache_misses} misses, "
            f"{self.cache_evictions} evictions, "
            f"{self.pair_probe_hits}/{self.pair_probe_misses} pair probes, "
            f"{self.pair_admissions} pair admissions)"
        )

    def _record(self, record: QueryRecord) -> None:
        self.total_seconds += record.seconds
        counts = self.latency_histogram.setdefault(record.kind, {}).setdefault(
            "hit" if record.cache_hit else "miss", [0] * _BUCKETS
        )
        counts[latency_bucket(record.seconds)] += 1


class QueryEngine:
    """Execute SimRank queries over one backend.

    Parameters
    ----------
    backend:
        A built (or buildable) :class:`SimilarityBackend`.
    cache_size:
        Maximum number of single-source score vectors kept in the LRU cache;
        ``0`` disables caching (the evaluation drivers use this so figure
        timings measure the backend, not the cache).
    pair_admission_threshold:
        Cross-kind admission: once this many ``single_pair`` queries have
        probe-missed on the same canonical source, the next one computes
        that source's full vector, admits it to the shared cache, and
        answers from it — so a hot pair source starts serving ``top_k`` and
        ``single_source`` traffic too.  ``None`` disables admission.  Note
        the switch is observable in values within the backend's
        self-consistency: an admitted source's pairs are read from its
        vector rather than the scalar estimator (for SLING the two agree
        only within the accuracy target), deterministically as a function of
        the engine's query history.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.engine import create_backend, QueryEngine
    >>> graph = generators.two_level_community(2, 8, seed=1)
    >>> engine = QueryEngine(create_backend("power", graph))
    >>> scores = [engine.single_source(node) for node in (0, 1, 0)]
    >>> engine.statistics.cache_hits
    1
    """

    def __init__(
        self,
        backend: SimilarityBackend,
        *,
        cache_size: int = 128,
        pair_admission_threshold: int | None = PAIR_AMORTIZE_THRESHOLD,
    ) -> None:
        if cache_size < 0:
            raise ParameterError(f"cache_size must be >= 0, got {cache_size}")
        if pair_admission_threshold is not None and pair_admission_threshold < 1:
            raise ParameterError(
                "pair_admission_threshold must be >= 1 or None, got "
                f"{pair_admission_threshold}"
            )
        if not backend.is_built:
            backend.build()
        self._backend = backend
        self._cache_size = cache_size
        self._pair_admission_threshold = pair_admission_threshold
        #: node -> (vector, backend index version the vector was computed
        #: against); served only while the backend serves that version.
        self._cache: OrderedDict[int, tuple[np.ndarray, int]] = OrderedDict()
        #: Admission pressure: canonical source -> pair probe
        #: misses so far (bounded; reset when the source is admitted).
        self._pair_counts: OrderedDict[int, int] = OrderedDict()
        self._stats = EngineStatistics(backend=backend.name)
        # Guards the cache and the statistics; never held across a backend
        # computation, so concurrent misses overlap.
        self._lock = threading.RLock()
        self._tls = threading.local()

    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> SimilarityBackend:
        """The backend answering this engine's queries."""
        return self._backend

    @property
    def cache_size(self) -> int:
        """Capacity of the single-source LRU cache (0 = disabled)."""
        return self._cache_size

    @property
    def pair_admission_threshold(self) -> int | None:
        """Pair probe misses on one source before its vector is
        admitted to the cache (``None`` = cross-kind admission disabled)."""
        return self._pair_admission_threshold

    @property
    def statistics(self) -> EngineStatistics:
        """Aggregate statistics since construction (or the last reset).

        This is the live object — other threads may be updating it; use
        :meth:`statistics_snapshot` when a consistent view is needed.
        """
        return self._stats

    def statistics_snapshot(self) -> EngineStatistics:
        """A consistent copy of the statistics, safe to read and serialise
        while other threads keep querying."""
        with self._lock:
            return replace(
                self._stats,
                latency_histogram={
                    kind: {outcome: list(c) for outcome, c in by_outcome.items()}
                    for kind, by_outcome in self._stats.latency_histogram.items()
                },
                hits_by_kind=dict(self._stats.hits_by_kind),
                misses_by_kind=dict(self._stats.misses_by_kind),
            )

    def describe(self) -> dict:
        """One JSON-able self-description: backend capabilities, cache
        state, and a consistent statistics snapshot — what the service's
        ``describe`` control request reports per engine."""
        with self._lock:
            cached_vectors = len(self._cache)
        return {
            "backend": self._backend.name,
            "index_version": self._backend.index_version,
            "backend_info": self._backend.info.as_dict(),
            "cache_size": self._cache_size,
            "pair_admission_threshold": self._pair_admission_threshold,
            "cached_vectors": cached_vectors,
            "statistics": self.statistics_snapshot().as_dict(),
        }

    @property
    def last_query_record(self) -> QueryRecord | None:
        """The most recent query record *of the calling thread* (or ``None``).

        Thread-local by design: under concurrent execution the aggregate
        counters interleave, so "did *my* query hit the cache" can only be
        answered per thread.
        """
        return getattr(self._tls, "last_record", None)

    def reset_statistics(self) -> None:
        """Zero every counter; the cache contents are kept."""
        with self._lock:
            self._stats = EngineStatistics(backend=self._backend.name)

    @property
    def index_version(self) -> int:
        """The version of the index the backend serves now: ``0`` for a
        static index, bumped by every mutation and re-freeze of a dynamic
        one.  Cached vectors are never served across a version boundary."""
        return self._backend.index_version

    def clear_cache(self) -> None:
        """Drop every cached single-source vector (and admission pressure)."""
        with self._lock:
            self._cache.clear()
            self._pair_counts.clear()

    def invalidate_cache(self, affected: Iterable[int] | None = None) -> int:
        """Scope the cache to the backend's current version after a mutation.

        ``affected`` names the source nodes whose single-source vectors may
        have changed (the mutation's affected-source set): their cached
        vectors and admission pressure are dropped and counted as
        ``cache_invalidations``; every *surviving* entry is re-stamped with
        the version the backend now serves — the mutation certified it
        unchanged, so it keeps serving.  ``affected=None`` means "everything
        may have changed" (e.g. a re-freeze that resampled correction
        factors): the whole cache is dropped and counted.  Returns the
        number of entries invalidated.

        Until this runs, a lookup already drops any entry whose stamp
        differs from the backend's version, survivors included.
        """
        with self._lock:
            if affected is None:
                dropped = len(self._cache)
                self._cache.clear()
                self._pair_counts.clear()
                self._stats.cache_invalidations += dropped
                return dropped
            dropped = 0
            for node in {int(node) for node in affected}:
                if self._cache.pop(node, None) is not None:
                    dropped += 1
                self._pair_counts.pop(node, None)
            version = self._backend.index_version
            for node, (vector, _) in self._cache.items():
                self._cache[node] = (vector, version)
            self._stats.cache_invalidations += dropped
            return dropped

    def resize_cache(self, cache_size: int) -> None:
        """Change the LRU capacity in place, evicting oldest entries if the
        new capacity is smaller.  The service layer uses this to re-divide a
        fixed per-process cache budget as datasets are opened and closed, so
        a sharded worker that owns fewer datasets gives each one a larger
        slice of the same memory."""
        if cache_size < 0:
            raise ParameterError(f"cache_size must be >= 0, got {cache_size}")
        with self._lock:
            self._cache_size = cache_size
            while len(self._cache) > cache_size:
                self._cache.popitem(last=False)
                self._stats.cache_evictions += 1

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    def _cache_get_locked(self, node: int) -> np.ndarray | None:
        """The live cached vector for ``node`` or ``None``, dropping an entry
        stamped with a version the backend no longer serves and refreshing
        LRU order on a hit.  The caller must hold the lock and do its own
        hit/miss accounting — probe semantics differ by query kind."""
        entry = self._cache.get(node)
        if entry is None:
            return None
        vector, version = entry
        if version != self._backend.index_version:
            # The generation moved since this vector was computed (or since
            # invalidate_cache last certified it): never serve it.
            del self._cache[node]
            self._stats.cache_invalidations += 1
            return None
        self._cache.move_to_end(node)
        return vector

    def _cache_lookup(self, node: int) -> np.ndarray | None:
        if self._cache_size == 0:
            return None
        with self._lock:
            vector = self._cache_get_locked(node)
            if vector is not None:
                self._stats.cache_hits += 1
                return vector
            self._stats.cache_misses += 1
            return None

    def _cache_store(self, node: int, vector: np.ndarray, version: int) -> None:
        """Admit ``vector``, stamped with ``version`` — the backend's index
        version the caller read *before* computing it — unless the version
        moved mid-computation: that mutation may already have invalidated
        the source, and a later one would certify the stale vector as a
        survivor."""
        if self._cache_size == 0:
            return
        with self._lock:
            if version != self._backend.index_version:
                return
            self._cache[node] = (vector, version)
            self._cache.move_to_end(node)
            self._stats.cache_admissions += 1
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
                self._stats.cache_evictions += 1

    def cached_nodes(self) -> list[int]:
        """Source nodes currently cached, oldest first."""
        with self._lock:
            return list(self._cache)

    def _source_vector(self, node: int) -> tuple[np.ndarray, bool]:
        """``(vector, cache_hit)`` for ``node``, via the cache.

        The hit flag is returned explicitly rather than inferred from counter
        deltas, which would attribute other threads' hits to this query.
        Returns the cache-owned array; callers must copy before mutating.
        """
        node = int(node)
        vector = self._cache_lookup(node)
        if vector is not None:
            return vector, True
        return self._compute_and_store(node), False

    def _compute_and_store(self, node: int) -> np.ndarray:
        """Compute ``node``'s vector outside the lock and admit it, stamped
        with the backend's index version read before computing; the store
        is idempotent under concurrent misses on one source."""
        version = self._backend.index_version
        vector = np.asarray(self._backend.single_source(node), dtype=np.float64)
        self._cache_store(node, vector, version)
        return vector

    # ------------------------------------------------------------------ #
    # Single queries
    # ------------------------------------------------------------------ #
    def single_pair(self, node_u: int, node_v: int) -> float:
        """SimRank of one pair; answered from a cached source vector if present.

        The pair is canonicalised (smaller node first — SimRank is
        symmetric), and only the canonical source's cached vector may answer
        it.  This makes the result a deterministic function of the unordered
        pair and of the engine's query history — never of which endpoint
        happened to be cached first, which would let concurrent execution
        order leak into query values (score matrices are not bitwise
        symmetric, and SLING's single-source push and Algorithm 3 agree only
        within the accuracy target).  It also makes ``single_pair(u, v)``
        and ``single_pair(v, u)`` bitwise equal.

        Accounting: a probe that finds the vector counts as a cache hit
        (both ``cache_hits`` and ``pair_probe_hits``); a probe that finds
        nothing counts **only** as ``pair_probe_misses`` — the scalar
        read-through asked the backend, not the cache, for work, so it must
        not deflate ``cache_hit_rate``.  The exception is the probe miss
        that crosses ``pair_admission_threshold``: it commits the cache to
        computing and admitting the source's vector, so it is a real
        ``cache_miss`` (plus a ``pair_admission``) and the pair is answered
        from the newly admitted vector.
        """
        start = time.perf_counter()
        node_u, node_v = int(node_u), int(node_v)
        if node_v < node_u:
            node_u, node_v = node_v, node_u
        score: float | None = None
        hit = False
        admit = False
        if self._cache_size > 0:
            with self._lock:
                vector = self._cache_get_locked(node_u)
                if vector is not None:
                    self._stats.cache_hits += 1
                    self._stats.pair_probe_hits += 1
                    score = float(vector[node_v])
                    hit = True
                else:
                    self._stats.pair_probe_misses += 1
                    if self._note_pair_probe_miss(node_u):
                        self._stats.cache_misses += 1
                        self._stats.pair_admissions += 1
                        admit = True
        if score is None:
            if admit:
                score = float(self._compute_and_store(node_u)[node_v])
            else:
                score = float(self._backend.single_pair(node_u, node_v))
        self._finish("single_pair", start, cache_hit=hit)
        return score

    def _note_pair_probe_miss(self, node: int) -> bool:
        """Record one pair probe miss against ``node``; ``True`` when
        it crossed the admission threshold (which resets the count).  The
        caller must hold the lock."""
        threshold = self._pair_admission_threshold
        if threshold is None:
            return False
        count = self._pair_counts.get(node, 0) + 1
        if count >= threshold:
            self._pair_counts.pop(node, None)
            return True
        self._pair_counts[node] = count
        self._pair_counts.move_to_end(node)
        while len(self._pair_counts) > _PAIR_COUNT_LIMIT:
            self._pair_counts.popitem(last=False)
        return False

    def single_source(self, node: int) -> np.ndarray:
        """SimRank from ``node`` to every node; the result is caller-owned."""
        start = time.perf_counter()
        vector, hit = self._source_vector(node)
        self._finish("single_source", start, cache_hit=hit)
        return vector.copy()

    def top_k(self, node: int, k: int) -> list[tuple[int, float]]:
        """The ``k`` nodes most similar to ``node``, ranked."""
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        start = time.perf_counter()
        vector, hit = self._source_vector(node)
        ranked = rank_top_k(vector, int(node), k)
        self._finish("top_k", start, cache_hit=hit)
        return ranked

    # ------------------------------------------------------------------ #
    def _finish(self, kind: str, start: float, *, cache_hit: bool) -> None:
        elapsed = time.perf_counter() - start
        record = QueryRecord(
            kind=kind,
            backend=self._backend.name,
            seconds=elapsed,
            cache_hit=cache_hit,
        )
        with self._lock:
            if kind == "single_pair":
                self._stats.single_pair_queries += 1
            elif kind == "single_source":
                self._stats.single_source_queries += 1
            else:
                self._stats.top_k_queries += 1
            tally = (
                self._stats.hits_by_kind
                if cache_hit
                else self._stats.misses_by_kind
            )
            tally[kind] = tally.get(kind, 0) + 1
            self._stats._record(record)
        self._tls.last_record = record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryEngine(backend={self._backend.name!r}, "
            f"cache={len(self._cache)}/{self._cache_size}, "
            f"queries={self._stats.total_queries})"
        )


def create_engine(
    graph: DiGraph,
    *,
    backend: str = "sling",
    config: BackendConfig | None = None,
    cache_size: int = 128,
    pair_admission_threshold: int | None = PAIR_AMORTIZE_THRESHOLD,
) -> QueryEngine:
    """Build the ``backend`` (registry name or alias) over ``graph`` and wrap
    it in a ready-to-query engine; ``cache_size`` and
    ``pair_admission_threshold`` go to the engine's cache policy unchanged."""
    return QueryEngine(
        create_backend(backend, graph, config),
        cache_size=cache_size,
        pair_admission_threshold=pair_admission_threshold,
    )

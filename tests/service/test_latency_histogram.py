"""The latency histogram: exact merges, bounded quantiles, constant size.

Every engine records one fixed-bucket histogram per query kind × cache
outcome and ships it as sparse ``[bucket, count]`` pairs.
:func:`repro.engine.merge_statistics_totals` merges histograms by adding
bucket counts; it is the one merge behind an engine's dict, the service's
``stats`` totals and the router's fan-out.  Pinned here:

* merging the histograms of any split of a sample equals the histogram of
  the whole sample, so totals never depend on how traffic was sharded;
* a reported quantile is the upper edge of the nearest-rank sample's
  bucket, so it lies within a factor 2^(1/8) above the exact value;
* bucket pairs decoded off the wire are checked: a hostile pair raises
  :class:`WireFormatError`, and the router answers ``unavailable``;
* ``stats`` and ``describe`` do not grow with the number of queries.
"""

from __future__ import annotations

import itertools
import json
import re
import types

import pytest
import test_socket_server
from hypothesis import given, settings, strategies as st
from test_router import converse, request_line

from repro.engine import (
    LATENCY_BUCKET_EDGES,
    histogram_quantiles,
    latency_bucket,
    latency_quantiles,
    merge_statistics_totals,
)
from repro.engine import engine as engine_module
from repro.exceptions import WireFormatError
from repro.graphs import generators
from repro.service import (
    Address,
    DescribeRequest,
    ParallelExecutor,
    Router,
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    StatsRequest,
    TopKQuery,
)
from repro.service.net.socket_server import SocketServer

KINDS = ("single_pair", "single_source", "top_k")

#: Latencies strictly inside the histogram's range, where the 2^(1/8)
#: bound holds (the end buckets also hold what lies outside it).
IN_RANGE = st.floats(min_value=2e-6, max_value=1e3)


def shipped(samples) -> dict:
    """An engine-dict-shaped payload holding only the histogram of
    ``(kind, cache_hit, seconds)`` samples, counted here independently of
    the engine's own recording."""
    counts: dict = {}
    for kind, hit, seconds in samples:
        by_bucket = counts.setdefault(kind, {}).setdefault(
            "hit" if hit else "miss", {}
        )
        bucket = latency_bucket(seconds)
        by_bucket[bucket] = by_bucket.get(bucket, 0) + 1
    return {
        "latency_histogram": {
            kind: {
                outcome: [[b, c] for b, c in sorted(by_bucket.items())]
                for outcome, by_bucket in sorted(by_outcome.items())
            }
            for kind, by_outcome in sorted(counts.items())
        }
    }


class TestExactMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(st.sampled_from(KINDS), st.booleans(), IN_RANGE),
            min_size=1,
            max_size=120,
        ),
        cuts=st.lists(st.integers(0, 120), max_size=4),
    )
    def test_merged_splits_equal_the_whole(self, samples, cuts):
        bounds = sorted({0, len(samples), *(c % (len(samples) + 1) for c in cuts)})
        parts = [samples[a:b] for a, b in itertools.pairwise(bounds)]
        whole = merge_statistics_totals([shipped(samples)])
        merged = merge_statistics_totals([shipped(part) for part in parts])
        assert whole["latency_histogram"] == shipped(samples)["latency_histogram"]
        assert merged["latency_histogram"] == whole["latency_histogram"]
        for view in ("latency_percentiles", "latency_percentiles_by_outcome"):
            assert merged[view] == whole[view]
        # Totals carry their histogram, so they merge again like engines.
        again = merge_statistics_totals(
            [merge_statistics_totals([shipped(part)]) for part in parts]
        )
        assert again["latency_histogram"] == whole["latency_histogram"]

    @settings(max_examples=60, deadline=None)
    @given(seconds=st.lists(IN_RANGE, min_size=1, max_size=200))
    def test_quantiles_lie_within_one_bucket_above_the_exact_value(self, seconds):
        counts = [0] * len(LATENCY_BUCKET_EDGES)
        for value in seconds:
            counts[latency_bucket(value)] += 1
        reported = histogram_quantiles(counts)
        exact = latency_quantiles(seconds)
        assert reported["count"] == exact["count"] == len(seconds)
        for name in ("p50", "p95", "p99"):
            assert exact[name] <= reported[name]
            # Each edge is computed as 1 µs · 2^(b/8) on its own, so allow
            # a rounding ulp on the ratio between neighbouring edges.
            assert reported[name] <= exact[name] * 2 ** (1 / 8) * (1 + 1e-12)

    def test_percentiles_read_the_merged_histogram(self):
        fast = [("top_k", True, 1e-4)] * 90
        slow = [("top_k", False, 1e-2)] * 10
        totals = merge_statistics_totals([shipped(fast), shipped(slow)])
        top_k = totals["latency_percentiles"]["top_k"]
        assert top_k["count"] == 100
        assert top_k["p50"] == LATENCY_BUCKET_EDGES[latency_bucket(1e-4)]
        assert top_k["p95"] == LATENCY_BUCKET_EDGES[latency_bucket(1e-2)]
        by_outcome = totals["latency_percentiles_by_outcome"]
        assert by_outcome["hit"]["count"] == 90
        assert by_outcome["miss"]["count"] == 10

    def test_latencies_outside_the_range_land_in_the_end_buckets(self):
        assert latency_bucket(0.0) == 0
        assert latency_bucket(1e-6) == 0
        assert latency_bucket(1e9) == len(LATENCY_BUCKET_EDGES) - 1


#: ``[bucket, count]`` pairs no engine ever sends.
HOSTILE_PAIRS = {
    "string bucket": ["3", 1],
    "float bucket": [3.0, 1],
    "bool bucket": [True, 1],
    "negative bucket": [-1, 1],
    "bucket past the end": [len(LATENCY_BUCKET_EDGES), 1],
    "negative count": [3, -1],
    "float count": [3, 1.5],
    "short pair": [3],
    "long pair": [3, 1, 1],
    "not a pair": 3,
}


def hostile(pair) -> dict:
    return {"total_queries": 1, "latency_histogram": {"top_k": {"miss": [pair]}}}


class TestHostileInput:
    @pytest.mark.parametrize("pair", HOSTILE_PAIRS.values(), ids=HOSTILE_PAIRS)
    def test_merge_refuses_a_hostile_pair(self, pair):
        with pytest.raises(WireFormatError):
            merge_statistics_totals([shipped([("top_k", False, 1e-3)]), hostile(pair)])

    @pytest.mark.parametrize(
        "histogram",
        [[], {"top_k": []}, {"top_k": {"maybe": [[3, 1]]}}, {"top_k": {"hit": 3}}],
        ids=["not an object", "kind not an object", "unknown outcome", "pairs not a list"],
    )
    def test_merge_refuses_a_hostile_shape(self, histogram):
        with pytest.raises(WireFormatError):
            merge_statistics_totals([{"latency_histogram": histogram}])

    def test_router_answers_unavailable_for_each_hostile_pair(self, monkeypatch):
        """A worker whose ``stats`` holds a hostile pair is answered
        ``unavailable``, as for any malformed worker reply: not an internal
        error, and not a total with the pair summed into it."""
        service = test_socket_server.make_service()
        worker = SocketServer(
            ParallelExecutor(service, workers=1),
            address=Address(family="tcp", host="127.0.0.1", port=0),
        )
        worker.start()

        class _StubPool:
            count = 1
            chunk_size = None
            on_restart = None

            def worker_address(self, index):
                return worker.address

        router = Router(
            _StubPool(), address=Address(family="tcp", host="127.0.0.1", port=0)
        )
        router.start()

        def worker_stats(engine_dict: dict) -> dict:
            monkeypatch.setattr(
                service,
                "statistics",
                lambda: {"datasets": {"GrQc": {"engines": {"sling": engine_dict}}}},
            )
            [answer] = converse(router, [request_line(StatsRequest())], 1)
            return answer

        try:
            for name, pair in HOSTILE_PAIRS.items():
                answer = worker_stats(hostile(pair))
                assert answer["ok"] is False, name
                assert answer["error"]["code"] == "unavailable", name
            # The same worker's well-formed histogram still merges.
            answer = worker_stats(shipped([("top_k", False, 1e-3)]))
            assert answer["ok"] is True
            top_k = answer["value"]["totals"]["latency_percentiles"]["top_k"]
            assert top_k["count"] == 1
        finally:
            router.stop(stop_pool=False)
            worker.stop()


class TestConstantSize:
    def test_stats_and_describe_do_not_grow_with_traffic(self, monkeypatch):
        """After 10×N queries of the same kinds, ``stats`` and ``describe``
        are no larger than after N.  Every query takes exactly 100 µs on a
        fake engine clock, so both runs fill the same buckets; numbers are
        compared as one digit each, because a count's digits grow with
        its value whatever the layout."""
        ticks = itertools.count()
        monkeypatch.setattr(
            engine_module,
            "time",
            types.SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-4),
        )
        service = SimRankService(ServiceConfig(backend="power", cache_size=4))
        service.open_dataset("alpha", graph=generators.two_level_community(2, 6, seed=3))
        block = [
            SingleSourceQuery("alpha", 0),  # miss, then a hit on every repeat
            SingleSourceQuery("alpha", 0),
            TopKQuery("alpha", 0, 3),
            TopKQuery("alpha", 1, 3),
            SinglePairQuery("alpha", 0, 5),
            SinglePairQuery("alpha", 6, 9),
        ]

        def sizes() -> tuple[int, int]:
            stats = service.execute_control(StatsRequest()).value
            described = service.execute_control(DescribeRequest(dataset="alpha"))
            for payload in (stats, described.value):
                assert "recent_queries" not in json.dumps(payload)
            return tuple(
                len(re.sub(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", "0", json.dumps(payload)))
                for payload in (stats, described.value)
            )

        for query in block:
            assert service.execute(query).ok
        after_n = sizes()
        for _ in range(9):
            for query in block:
                assert service.execute(query).ok
        after_10n = sizes()
        stats = service.statistics()
        assert stats["totals"]["total_queries"] == 10 * len(block)
        assert after_10n[0] <= after_n[0]
        assert after_10n[1] <= after_n[1]
        pairs = [
            pair
            for by_outcome in stats["totals"]["latency_histogram"].values()
            for outcome_pairs in by_outcome.values()
            for pair in outcome_pairs
        ]
        assert len(pairs) <= len(LATENCY_BUCKET_EDGES) * len(KINDS) * 2

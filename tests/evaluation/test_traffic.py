"""Unit tests for the realistic-traffic workload generator."""

from __future__ import annotations

import json

import pytest

from repro.evaluation.traffic import (
    TrafficPattern,
    generate_traffic,
    events_to_jsonl,
    replay_events,
    summarize_events,
    traffic_sources,
)
from repro.exceptions import ParameterError
from repro.graphs import generators
from repro.service import ServiceConfig, SimRankService
from repro.service.wire import decode_envelope

NODE_COUNTS = {"GrQc": 120, "HepTh": 80}


class TestTrafficPattern:
    def test_defaults_validate(self):
        pattern = TrafficPattern()
        # The kind mix leaves 20% of the traffic to pair queries.
        assert 1.0 - pattern.top_k_fraction - pattern.single_source_fraction == (
            pytest.approx(0.20)
        )

    def test_as_dict_round_trips(self):
        pattern = TrafficPattern(seed=5, pair_mode="cold", source_span=16)
        rebuilt = TrafficPattern(**pattern.as_dict())
        assert rebuilt == pattern

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_queries": -1},
            {"zipf_exponent": 0.0},
            {"hot_set_size": 0},
            {"drift_every": -1},
            {"burst_hot_bias": 1.5},
            {"tail_fraction": -0.1},
            {"top_k_fraction": 0.8, "single_source_fraction": 0.4},
            {"k": 0},
            {"source_region": 0.0},
            {"source_region": 1.2},
            {"source_span": 1},
            {"pair_mode": "lukewarm"},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ParameterError):
            TrafficPattern(**kwargs)


class TestGenerateTraffic:
    def test_deterministic_for_same_seed(self):
        pattern = TrafficPattern(num_queries=300, seed=11)
        first = generate_traffic(NODE_COUNTS, pattern)
        second = generate_traffic(NODE_COUNTS, pattern)
        assert [e.to_wire() for e in first] == [e.to_wire() for e in second]

    def test_different_seeds_differ(self):
        base = TrafficPattern(num_queries=300, seed=0)
        other = TrafficPattern(num_queries=300, seed=1)
        assert [e.to_wire() for e in generate_traffic(NODE_COUNTS, base)] != [
            e.to_wire() for e in generate_traffic(NODE_COUNTS, other)
        ]

    def test_stream_shape(self):
        pattern = TrafficPattern(num_queries=400, seed=2)
        events = generate_traffic(NODE_COUNTS, pattern)
        assert len(events) == 400
        assert [e.index for e in events] == list(range(400))
        summary = summarize_events(events)
        assert summary["num_queries"] == 400
        assert set(summary["by_dataset"]) == set(NODE_COUNTS)
        assert set(summary["by_kind"]) <= {
            "single_pair", "single_source", "top_k"
        }
        assert summary["by_phase"]["burst"] > 0
        assert summary["by_phase"]["steady"] > 0

    def test_zipf_skew_concentrates_traffic(self):
        # The top handful of sources must absorb far more than a uniform
        # share of vector-query traffic.
        pattern = TrafficPattern(
            num_queries=2000, seed=3, drift_every=0, burst_every=0,
            tail_fraction=0.0, source_span=100,
        )
        events = generate_traffic({"GrQc": 400}, pattern)
        counts: dict[int, int] = {}
        total = 0
        for event in events:
            node = getattr(event.query, "node", None)
            if node is not None:
                counts[node] = counts.get(node, 0) + 1
                total += 1
        top_share = sum(sorted(counts.values(), reverse=True)[:10]) / total
        assert top_share > 0.4  # uniform over 100 sources would give 0.10

    def test_drift_shifts_the_hot_set(self):
        quiet = dict(burst_every=0, tail_fraction=0.0, source_span=50)
        drifting = TrafficPattern(
            num_queries=2000, seed=4, drift_every=100, drift_step=7, **quiet
        )
        events = generate_traffic({"GrQc": 200}, drifting)
        half = len(events) // 2

        def top_sources(slice_):
            counts: dict[int, int] = {}
            for event in slice_:
                node = getattr(event.query, "node", None)
                if node is not None:
                    counts[node] = counts.get(node, 0) + 1
            return {
                node for node, _ in
                sorted(counts.items(), key=lambda kv: -kv[1])[:5]
            }

        assert top_sources(events[:half]) != top_sources(events[half:])

    def test_kind_mix_tracks_fractions(self):
        pattern = TrafficPattern(
            num_queries=3000, seed=5, top_k_fraction=0.5,
            single_source_fraction=0.25,
        )
        summary = summarize_events(generate_traffic(NODE_COUNTS, pattern))
        by_kind = summary["by_kind"]
        assert by_kind["top_k"] / 3000 == pytest.approx(0.5, abs=0.05)
        assert by_kind["single_source"] / 3000 == pytest.approx(0.25, abs=0.05)
        assert by_kind["single_pair"] / 3000 == pytest.approx(0.25, abs=0.05)

    def test_cold_pairs_stay_outside_the_source_region(self):
        pattern = TrafficPattern(
            num_queries=600, seed=6, pair_mode="cold", source_span=20,
            top_k_fraction=0.3, single_source_fraction=0.1,
        )
        events = generate_traffic({"GrQc": 100}, pattern)
        sources = set(traffic_sources(events).get("GrQc", []))
        assert sources  # vector queries exist and stay inside the span
        assert max(sources) < 20
        pair_nodes = {
            node
            for event in events
            if event.kind == "single_pair"
            for node in (event.query.node_u, event.query.node_v)
        }
        assert pair_nodes
        assert min(pair_nodes) >= 20
        assert sources.isdisjoint(pair_nodes)

    def test_wire_round_trip(self):
        pattern = TrafficPattern(num_queries=50, seed=7)
        events = generate_traffic(NODE_COUNTS, pattern)
        for line in events_to_jsonl(events).splitlines():
            envelope = decode_envelope(json.loads(line))
            assert envelope.request.kind in (
                "single_pair", "single_source", "top_k"
            )

    def test_rejects_empty_and_tiny_inputs(self):
        with pytest.raises(ParameterError):
            generate_traffic({}, TrafficPattern())
        with pytest.raises(ParameterError):
            generate_traffic({"tiny": 3}, TrafficPattern())
        with pytest.raises(ParameterError):
            # cold mode needs two nodes outside the region
            generate_traffic(
                {"x": 8}, TrafficPattern(pair_mode="cold", source_region=1.0)
            )


class TestReplay:
    def test_replay_through_a_service(self):
        graph = generators.cycle(16)
        service = SimRankService(ServiceConfig(backend="power"))
        service.open_dataset("ring", graph=graph)
        pattern = TrafficPattern(num_queries=40, seed=8)
        events = generate_traffic({"ring": graph.num_nodes}, pattern)
        results = replay_events(service, events)
        assert len(results) == 40
        assert all(result.ok for result in results)
        assert [r.kind for r in results] == [e.kind for e in events]


class TestMutationEvents:
    NODE_COUNTS = {"GrQc": 120}

    def pattern(self, **kwargs):
        kwargs.setdefault("num_queries", 300)
        kwargs.setdefault("seed", 21)
        kwargs.setdefault("mutation_fraction", 0.1)
        return TrafficPattern(**kwargs)

    def test_zero_fraction_reproduces_the_static_stream(self):
        static = generate_traffic(self.NODE_COUNTS, TrafficPattern(seed=21))
        gated = generate_traffic(
            self.NODE_COUNTS, TrafficPattern(seed=21, mutation_fraction=0.0)
        )
        assert [e.to_wire() for e in static] == [e.to_wire() for e in gated]
        assert all(e.kind != "mutate" for e in static)

    def test_mutate_events_appear_and_are_deterministic(self):
        events = generate_traffic(self.NODE_COUNTS, self.pattern())
        mutations = [e for e in events if e.kind == "mutate"]
        assert mutations, "a 10% mutation fraction must produce events"
        again = generate_traffic(self.NODE_COUNTS, self.pattern())
        assert [e.to_wire() for e in events] == [e.to_wire() for e in again]
        summary = summarize_events(events)
        assert summary["by_kind"]["mutate"] == len(mutations)

    def test_removals_only_target_stream_added_edges(self):
        events = generate_traffic(
            self.NODE_COUNTS, self.pattern(mutation_batch=2)
        )
        added, removed = set(), []
        for event in events:
            if event.kind != "mutate":
                continue
            for edge in event.query.remove:
                removed.append(tuple(edge))
                assert tuple(edge) in added, "removal of a foreign edge"
                added.discard(tuple(edge))
            added.update(map(tuple, event.query.add))
        assert removed, "the storm should oscillate, not only grow"

    def test_refreeze_every_nth_mutation(self):
        events = generate_traffic(
            self.NODE_COUNTS, self.pattern(mutation_refreeze_every=2)
        )
        flags = [e.query.refreeze for e in events if e.kind == "mutate"]
        assert any(flags)
        assert flags == [
            (i + 1) % 2 == 0 for i in range(len(flags))
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mutation_fraction": -0.1},
            {"mutation_fraction": 1.5},
            {"mutation_batch": 0},
            {"mutation_refreeze_every": -1},
        ],
    )
    def test_invalid_mutation_knobs_raise(self, kwargs):
        with pytest.raises(ParameterError):
            TrafficPattern(**kwargs)

    def test_replay_applies_mutations_through_the_service(self):
        graph = generators.two_level_community(3, 10, seed=7)
        service = SimRankService(ServiceConfig(backend="sling"))
        service.open_dataset("toy", graph=graph)
        pattern = TrafficPattern(
            num_queries=60, seed=4, mutation_fraction=0.1,
            mutation_refreeze_every=3,
        )
        events = generate_traffic({"toy": graph.num_nodes}, pattern)
        assert any(e.kind == "mutate" for e in events)
        results = replay_events(service, events)
        assert all(result.ok for result in results), [
            r.error for r in results if not r.ok
        ]
        acks = [r for r in results if r.kind == "mutate"]
        versions = [r.value["index_version"] for r in acks]
        assert versions == sorted(versions)
        assert service.statistics()["datasets"]["toy"]["index_version"] == max(
            versions
        )
        # Queries served after the first mutation carry its stamp.
        post = [
            r for r in results[results.index(acks[0]) + 1:] if r.kind != "mutate"
        ]
        assert post and all(r.index_version >= 1 for r in post)

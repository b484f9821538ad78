"""Validation and wire round-trips for the typed query dataclasses."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError, WireFormatError
from repro.service import (
    QUERY_KINDS,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
    query_from_wire,
)

ALL_QUERIES = [
    SinglePairQuery("GrQc", 3, 5),
    SingleSourceQuery("GrQc", 3),
    TopKQuery("GrQc", node=3, k=5),
]


class TestValidation:
    def test_kinds_registry_covers_every_query(self):
        assert set(QUERY_KINDS) == {"single_pair", "single_source", "top_k"}

    @pytest.mark.parametrize("dataset", ["", "   ", None, 7])
    def test_rejects_bad_dataset(self, dataset):
        with pytest.raises(ParameterError):
            SingleSourceQuery(dataset, 0)

    @pytest.mark.parametrize("node", [-1, 1.5, "3", None, True])
    def test_rejects_bad_nodes(self, node):
        with pytest.raises(ParameterError):
            SingleSourceQuery("GrQc", node)
        with pytest.raises(ParameterError):
            SinglePairQuery("GrQc", node, 0)
        with pytest.raises(ParameterError):
            SinglePairQuery("GrQc", 0, node)

    @pytest.mark.parametrize("k", [0, -3, 2.5, "5", None, True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ParameterError):
            TopKQuery("GrQc", node=0, k=k)

    def test_queries_are_frozen(self):
        query = TopKQuery("GrQc", node=3, k=5)
        with pytest.raises(AttributeError):
            query.k = 10

    def test_queries_are_hashable_values(self):
        assert TopKQuery("GrQc", node=3, k=5) == TopKQuery("GrQc", node=3, k=5)
        assert len({SingleSourceQuery("GrQc", 1), SingleSourceQuery("GrQc", 1)}) == 1


class TestWireRoundTrip:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.kind)
    def test_round_trip_every_kind(self, query):
        assert query_from_wire(query.to_wire()) == query

    def test_to_wire_carries_kind_and_fields(self):
        payload = TopKQuery("GrQc", node=3, k=5).to_wire()
        assert payload == {"kind": "top_k", "dataset": "GrQc", "node": 3, "k": 5}

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "top_k",
            {},
            {"kind": "nope", "dataset": "GrQc"},
            {"dataset": "GrQc", "node": 3},  # no kind
            {"kind": "top_k", "dataset": "GrQc", "node": 3},  # missing k
            {"kind": "top_k", "dataset": "GrQc", "node": 3, "k": 5, "x": 1},
            {"kind": "all_pairs", "dataset": "GrQc"},  # retired kind
        ],
    )
    def test_malformed_payloads_raise_wire_errors(self, payload):
        with pytest.raises(WireFormatError):
            query_from_wire(payload)

    def test_field_value_violations_raise_parameter_errors(self):
        with pytest.raises(ParameterError):
            query_from_wire({"kind": "top_k", "dataset": "GrQc", "node": 3, "k": 0})
        with pytest.raises(ParameterError):
            query_from_wire(
                {"kind": "single_pair", "dataset": "GrQc", "node_u": -1, "node_v": 0}
            )

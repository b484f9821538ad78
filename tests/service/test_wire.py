"""JSONL wire-protocol round-trips for requests and result envelopes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import WireFormatError
from repro.service import (
    AllPairsQuery,
    QueryError,
    QueryResult,
    SinglePairQuery,
    SingleSourceQuery,
    SparseScores,
    TopKQuery,
    decode_request,
    decode_result,
    encode_request,
    encode_result,
    result_from_wire,
)

SUCCESS_ENVELOPES = [
    QueryResult.success(
        kind="single_pair", dataset="GrQc", value=0.25, backend="sling",
        plan={"backend": "sling", "reason": "r"}, seconds=0.001, cache_hit=True,
    ),
    QueryResult.success(
        kind="single_source", dataset="GrQc",
        value=SparseScores.from_dense(np.array([0.0, 0.5, 1.0])),
        backend="power", plan=None, seconds=0.2, cache_hit=False,
    ),
    QueryResult.success(
        kind="top_k", dataset="AS",
        value=[{"rank": 1, "node": 4, "score": 0.9}],
        backend="sling", plan={"backend": "sling"}, seconds=0.01, cache_hit=False,
    ),
    QueryResult.success(
        kind="all_pairs", dataset="AS", value=[[0.0, 1.0], [1.0, 0.0]],
        backend="naive", plan=None, seconds=1.5, cache_hit=None,
    ),
]


class TestRequestLines:
    @pytest.mark.parametrize(
        "query",
        [
            SinglePairQuery("GrQc", 3, 5),
            SingleSourceQuery("GrQc", 3),
            TopKQuery("GrQc", node=3, k=5),
            AllPairsQuery("GrQc"),
        ],
        ids=lambda q: q.kind,
    )
    def test_encode_decode_round_trip(self, query):
        line = encode_request(query)
        assert json.loads(line)["kind"] == query.kind  # one JSON object per line
        assert "\n" not in line
        assert decode_request(line) == query

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(WireFormatError):
            decode_request("{not json")

    def test_decode_rejects_non_object_lines(self):
        with pytest.raises(WireFormatError):
            decode_request("[1, 2, 3]")


class TestResultLines:
    @pytest.mark.parametrize("result", SUCCESS_ENVELOPES, ids=lambda r: r.kind)
    def test_success_round_trip_every_kind(self, result):
        line = encode_result(result)
        assert "\n" not in line
        assert decode_result(line) == result

    def test_error_round_trip(self):
        result = QueryResult.failure(
            "unknown_dataset", "no such dataset", kind="top_k",
            dataset="Nope", seconds=0.1,
        )
        decoded = decode_result(encode_result(result))
        assert decoded == result
        assert decoded.error == QueryError("unknown_dataset", "no such dataset")
        assert not decoded.ok

    def test_error_wire_shape(self):
        payload = QueryResult.failure("bad_request", "boom").to_wire()
        assert payload["ok"] is False
        assert payload["error"] == {"code": "bad_request", "message": "boom"}
        assert "value" not in payload  # error envelopes carry no value fields

    def test_success_wire_shape(self):
        payload = SUCCESS_ENVELOPES[0].to_wire()
        assert payload["ok"] is True
        assert "error" not in payload
        assert set(payload) == {
            "ok", "kind", "dataset", "seconds", "value", "backend", "plan",
            "cache_hit",
        }

    @pytest.mark.parametrize(
        "payload",
        [
            "nope",
            {},
            {"ok": "yes"},
            {"ok": False},  # error envelope without an error object
            {"ok": False, "error": "boom"},
            {"ok": False, "error": {"message": "no code"}},
        ],
    )
    def test_malformed_result_payloads_raise(self, payload):
        with pytest.raises(WireFormatError):
            result_from_wire(payload)

    def test_single_source_wire_shape_is_its_nonzeros(self):
        payload = SUCCESS_ENVELOPES[1].to_wire()
        assert payload["value"] == {"n": 3, "index": [1, 2], "value": [0.5, 1.0]}


def _sparse_payload(**value) -> dict:
    base = {"n": 4, "index": [0, 2], "value": [1.0, 0.25]}
    return {"ok": True, "kind": "single_source", "dataset": "GrQc",
            "value": {**base, **value}}


class TestHostileSparseValues:
    """A malformed ``single_source`` value is a typed decode failure."""

    def test_well_formed_payload_decodes(self):
        result = result_from_wire(_sparse_payload())
        assert result.value == SparseScores(4, [0, 2], [1.0, 0.25])
        assert np.asarray(result.value).tolist() == [1.0, 0.0, 0.25, 0.0]

    def test_empty_vector_decodes(self):
        result = result_from_wire(_sparse_payload(n=0, index=[], value=[]))
        assert np.asarray(result.value).shape == (0,)

    @pytest.mark.parametrize(
        "value",
        [
            {"n": -1},
            {"n": "4"},
            {"n": 4.0},
            {"n": True},
            {"n": None},
            {"index": "0,2"},
            {"index": {"0": 1}},
            {"value": "1.0,0.25"},
            {"value": None},
            {"index": [0]},
            {"value": [1.0, 0.25, 0.5]},
            {"index": [0, 4]},
            {"index": [-1, 2]},
            {"index": [2, 0]},
            {"index": [2, 2]},
            {"index": [0, 2.0]},
            {"index": [False, 2]},
            {"value": [1.0, "0.25"]},
            {"value": [1.0, None]},
            {"value": [True, 0.25]},
        ],
        ids=[
            "n-negative", "n-string", "n-float", "n-bool", "n-null",
            "index-string", "index-object", "value-string-list", "value-null",
            "length-short", "length-long", "index-at-n", "index-negative",
            "index-unsorted", "index-duplicate", "index-float", "index-bool",
            "value-string", "value-null-item", "value-bool",
        ],
    )
    def test_malformed_sparse_value_raises_wire_format_error(self, value):
        payload = _sparse_payload(**value)
        with pytest.raises(WireFormatError):
            result_from_wire(payload)
        # The same payload arriving as a JSON line fails the same way.
        line = json.dumps(payload)
        with pytest.raises(WireFormatError):
            decode_result(line)

    @pytest.mark.parametrize("value", [[1.0, 0.0, 0.25, 0.0], "dense", None])
    def test_non_object_value_raises(self, value):
        payload = {**_sparse_payload(), "value": value}
        with pytest.raises(WireFormatError):
            result_from_wire(payload)

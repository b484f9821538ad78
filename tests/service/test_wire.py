"""JSONL wire-protocol round-trips for requests and result envelopes."""

from __future__ import annotations

import base64
import json
import struct

import numpy as np
import pytest

from repro.engine import BackendConfig
from repro.exceptions import WireFormatError
from repro.graphs import generators
from repro.service import (
    QueryError,
    QueryResult,
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    SparseScores,
    TopKQuery,
    decode_envelope_line,
    encode_frame,
    encode_response,
    response_frames,
    result_from_frames,
    result_from_wire,
)

#: A well-formed served ``single_pair`` line, for hostile-field variants.
PAIR_LINE = {
    "ok": True, "kind": "single_pair", "dataset": "GrQc", "seconds": 0.25,
    "value": 0.5, "backend": "sling", "cache_hit": False,
}


SUCCESS_ENVELOPES = [
    QueryResult.success(
        kind="single_pair", dataset="GrQc", value=0.25, backend="sling",
        seconds=0.001, cache_hit=True,
    ),
    QueryResult.success(
        kind="single_source", dataset="GrQc",
        value=SparseScores.from_dense(np.array([0.0, 0.5, 1.0])),
        backend="power", seconds=0.2, cache_hit=False,
    ),
    QueryResult.success(
        kind="top_k", dataset="AS",
        value=[{"rank": 1, "node": 4, "score": 0.9}],
        backend="sling", seconds=0.01, cache_hit=False,
    ),
    QueryResult.success(
        kind="top_k", dataset="HepTh",
        value=[
            {"rank": rank, "node": node, "score": score}
            for rank, (node, score) in enumerate(
                [(17, 1.0), (3, 0.25), (40, 0.25), (2, 0.0), (9, -0.0)], start=1
            )
        ],
        backend="sling", seconds=0.01, cache_hit=True,
    ),
    QueryResult.success(
        kind="top_k", dataset="AS", value=[], backend="sling", seconds=0.01,
        cache_hit=False,
    ),
]


def decode_line(line: str) -> QueryResult:
    """One monolithic response line back into a result, as clients do."""
    return result_from_frames([json.loads(line)])


class TestRequestLines:
    @pytest.mark.parametrize(
        "query",
        [
            SinglePairQuery("GrQc", 3, 5),
            SingleSourceQuery("GrQc", 3),
            TopKQuery("GrQc", node=3, k=5),
        ],
        ids=lambda q: q.kind,
    )
    def test_encode_decode_round_trip(self, query):
        line = encode_frame(query.to_wire())
        assert json.loads(line)["kind"] == query.kind  # one JSON object per line
        assert "\n" not in line
        envelope = decode_envelope_line(line)
        assert envelope.request == query and envelope.id is None

    @pytest.mark.parametrize("line", ["{not json", "[1, 2, 3]"])
    def test_undecodable_lines_are_bad_request_envelopes(self, line):
        request = decode_envelope_line(line).request
        assert isinstance(request, QueryResult)
        assert request.error.code == "bad_request"

    def test_retired_all_pairs_kind_is_a_bad_request(self):
        request = decode_envelope_line('{"kind":"all_pairs","dataset":"GrQc"}').request
        assert isinstance(request, QueryResult)
        assert request.error.code == "bad_request"
        assert "unknown request kind 'all_pairs'" in request.error.message


class TestResultLines:
    @pytest.mark.parametrize("result", SUCCESS_ENVELOPES, ids=lambda r: r.kind)
    def test_success_round_trip_every_kind(self, result):
        line = encode_response(result, id=1)
        assert "\n" not in line
        assert decode_line(line) == result

    def test_error_round_trip(self):
        result = QueryResult.failure(
            "unknown_dataset", "no such dataset", kind="top_k",
            dataset="Nope", seconds=0.1,
        )
        decoded = decode_line(encode_response(result))
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
            "ok", "kind", "dataset", "seconds", "value", "backend", "cache_hit",
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

    @pytest.mark.parametrize(
        "payload",
        [
            {**PAIR_LINE, "seconds": "x"},
            {**PAIR_LINE, "seconds": None},
            {**PAIR_LINE, "seconds": [1]},
            {**PAIR_LINE, "seconds": True},
            {**PAIR_LINE, "seconds": float("nan")},
            {**PAIR_LINE, "seconds": float("inf")},
            {**PAIR_LINE, "index_version": "x"},
            {**PAIR_LINE, "index_version": [1]},
            {**PAIR_LINE, "index_version": 1.5},
            {**PAIR_LINE, "index_version": True},
            {"ok": False, "error": {"code": 5}},
            {"ok": False, "error": {"code": "bad_request", "message": 7}},
            {"ok": False, "seconds": "x", "error": {"code": "c", "message": "m"}},
            {"ok": True, "kind": 5, "dataset": [1], "backend": {},
             "cache_hit": "yes"},
            {**PAIR_LINE, "kind": 5},
            {**PAIR_LINE, "dataset": [1]},
            {**PAIR_LINE, "backend": {}},
            {**PAIR_LINE, "cache_hit": "yes"},
            {**PAIR_LINE, "cache_hit": 1},
            {"ok": False, "kind": ["ping"], "error": {"code": "c", "message": "m"}},
            {**PAIR_LINE, "value": "0.5"},
            {**PAIR_LINE, "value": None},
            {**PAIR_LINE, "value": True},
            {**PAIR_LINE, "value": float("nan")},
            {**PAIR_LINE, "value": float("inf")},
        ],
    )
    def test_hostile_server_frames_are_wire_format_errors(self, payload):
        with pytest.raises(WireFormatError):
            result_from_wire(payload)
        # The socket client reassembles every response through this path.
        with pytest.raises(WireFormatError):
            result_from_frames([{"v": 2, "id": 1, **payload}])

    def test_legacy_degraded_key_is_ignored(self):
        # Older servers stamped ``"degraded": true`` on cascade answers under
        # load; a client still decodes such a line, dropping the key.
        payload = {**SUCCESS_ENVELOPES[1].to_wire(), "degraded": True}
        decoded = result_from_wire(payload)
        assert decoded == SUCCESS_ENVELOPES[1]
        assert "degraded" not in decoded.to_wire()

    def test_legacy_plan_key_is_ignored(self):
        # Older servers stamped the backend planner's decision on every
        # success envelope; a client still decodes such a line, dropping it.
        plan = {"backend": "sling", "reason": "r", "estimated_index_bytes": 1}
        payload = {**SUCCESS_ENVELOPES[0].to_wire(), "plan": plan}
        decoded = result_from_wire(payload)
        assert decoded == SUCCESS_ENVELOPES[0]
        assert "plan" not in decoded.to_wire()

    def test_served_envelopes_never_carry_degraded(self):
        service = SimRankService(ServiceConfig(backend="power"))
        service.open_dataset("cycle", graph=generators.cycle(6))
        for query in (
            SingleSourceQuery("cycle", 0),
            TopKQuery("cycle", node=0, k=2),
            SinglePairQuery("cycle", 0, 3),
        ):
            payload = service.execute(query).to_wire()
            assert payload["ok"] is True
            assert "degraded" not in payload
            assert "plan" not in payload

    def test_served_single_pair_line_is_compact(self):
        service = SimRankService(
            ServiceConfig(backend_config=BackendConfig(epsilon=0.1, seed=0))
        )
        service.open_dataset("GrQc", graph=generators.two_level_community(2, 8, seed=1))
        result = service.execute(SinglePairQuery("GrQc", 0, 1))
        assert result.ok and result.backend == "sling"
        line = encode_response(result, id=1)
        assert "plan" not in json.loads(line)
        assert len(line) <= 160

    def test_single_source_wire_shape_is_its_nonzeros(self):
        payload = SUCCESS_ENVELOPES[1].to_wire()
        assert payload["value"] == {
            "n": 3, "index": _ids(1, 2), "value": _scores(0.5, 1.0),
        }


@pytest.mark.parametrize(
    "result",
    [
        *SUCCESS_ENVELOPES,
        QueryResult.failure("unknown_dataset", "no such dataset", kind="top_k",
                            dataset="Nope", seconds=0.1),
        QueryResult.success(kind="stats", dataset=None, value={"totals": {}},
                            backend=None, seconds=0.02, cache_hit=None),
    ],
    ids=lambda r: r.kind,
)
@pytest.mark.parametrize("chunk_size", [None, 1])
def test_decoded_frames_re_encode_byte_for_byte(result, chunk_size):
    # The router decodes every worker reply and its pump encodes the result
    # again: the client must see the worker's exact lines.
    lines = list(response_frames(result, id="r", chunk_size=chunk_size))
    decoded = result_from_frames([json.loads(line) for line in lines])
    assert list(response_frames(decoded, id="r", chunk_size=chunk_size)) == lines


def _ids(*ids: int) -> str:
    """Base64 of little-endian int32 ids, built with the standard library."""
    return base64.b64encode(struct.pack(f"<{len(ids)}i", *ids)).decode()


def _scores(*scores: float) -> str:
    """Base64 of little-endian float64 scores."""
    return base64.b64encode(struct.pack(f"<{len(scores)}d", *scores)).decode()


def _sparse_payload(**value) -> dict:
    base = {"n": 4, "index": _ids(0, 2), "value": _scores(1.0, 0.25)}
    return {"ok": True, "kind": "single_source", "dataset": "GrQc",
            "value": {**base, **value}}


#: Hostile ``single_source`` values, each a :class:`WireFormatError`.
HOSTILE_SPARSE_VALUES = {
    "n-negative": {"n": -1},
    "n-string": {"n": "4"},
    "n-float": {"n": 4.0},
    "n-bool": {"n": True},
    "n-null": {"n": None},
    "n-too-large-for-int32-ids": {"n": 2**31},
    "index-list": {"index": [0, 2]},
    "value-list": {"value": [1.0, 0.25]},
    "index-object": {"index": {"0": 1}},
    "value-null": {"value": None},
    "index-bad-character": {"index": _ids(0, 2)[:-2] + "!="},
    "value-space": {"value": " " + _scores(1.0, 0.25)},
    "index-non-ascii": {"index": "AAAAAAIAAAé="},
    "index-missing-padding": {"index": _ids(0, 2).rstrip("=")},
    "value-extra-padding": {"value": _scores(1.0, 0.25) + "=="},
    "value-padding-after-whole-quantum": {
        "index": _ids(0, 1, 2), "value": _scores(1.0, 0.5, 0.25) + "==",
    },
    "index-not-whole-ids": {"index": base64.b64encode(b"\0" * 6).decode()},
    "value-not-whole-scores": {"value": base64.b64encode(b"\0" * 12).decode()},
    "counts-short": {"index": _ids(0)},
    "counts-long": {"value": _scores(1.0, 0.25, 0.5)},
    "index-at-n": {"index": _ids(0, 4)},
    "index-above-n": {"index": _ids(0, 2**31 - 1)},
    "index-negative": {"index": _ids(-1, 2)},
    "index-descending": {"index": _ids(2, 0)},
    "index-repeated": {"index": _ids(2, 2)},
    "value-nan": {"value": _scores(1.0, float("nan"))},
    "value-inf": {"value": _scores(float("inf"), 0.25)},
    "value-minus-inf": {"value": _scores(1.0, float("-inf"))},
}


class TestHostileSparseValues:
    """A malformed ``single_source`` value is a typed decode failure."""

    def test_well_formed_payload_decodes(self):
        result = result_from_wire(_sparse_payload())
        assert result.value == SparseScores(4, [0, 2], [1.0, 0.25])
        assert result.value.index.dtype == np.int32
        assert result.value.value.dtype == np.float64
        assert not result.value.index.flags.writeable
        assert not result.value.value.flags.writeable
        assert np.asarray(result.value).tolist() == [1.0, 0.0, 0.25, 0.0]

    def test_empty_vector_decodes(self):
        result = result_from_wire(_sparse_payload(n=0, index="", value=""))
        assert np.asarray(result.value).shape == (0,)

    @pytest.mark.parametrize(
        "value", list(HOSTILE_SPARSE_VALUES.values()),
        ids=list(HOSTILE_SPARSE_VALUES),
    )
    def test_malformed_sparse_value_raises_wire_format_error(self, value):
        payload = _sparse_payload(**value)
        with pytest.raises(WireFormatError):
            result_from_wire(payload)
        # The same payload arriving as a JSON line fails the same way.
        line = json.dumps(payload)
        with pytest.raises(WireFormatError):
            decode_line(line)

    @pytest.mark.parametrize("value", [[1.0, 0.0, 0.25, 0.0], "dense", None])
    def test_non_object_value_raises(self, value):
        payload = {**_sparse_payload(), "value": value}
        with pytest.raises(WireFormatError):
            result_from_wire(payload)

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1e999"]
    )
    def test_decimal_score_lists_are_refused(self, literal):
        # The decimal list form is gone: a score list, finite or not (the
        # JSON literals Python reads as NaN and infinities), is refused.
        line = json.dumps(_sparse_payload(index=[0], value=[0.0])).replace(
            "[0.0]", f"[{literal}]"
        )
        with pytest.raises(WireFormatError):
            decode_line(line)


def _top_k_payload(**value) -> dict:
    base = {"index": _ids(4, 0, 7), "value": _scores(0.9, 0.5, 0.5)}
    return {**PAIR_LINE, "kind": "top_k", "value": {**base, **value}}


def _entries(*pairs) -> list:
    """The pre-column ``top_k`` wire form: a list of rank/node/score dicts."""
    return [
        {"rank": rank, "node": node, "score": score}
        for rank, node, score in pairs
    ]


#: Hostile ``top_k`` values, each a :class:`WireFormatError`.  The list
#: ones are the retired decimal form, which used to decode even with
#: negative or repeated nodes, ranks out of order and rising scores.
HOSTILE_TOP_K_VALUES = {
    "entries": _entries((1, 4, 0.9)),
    "entries-negative-node": _entries((1, -3, 0.9)),
    "entries-repeated-node": _entries((1, 4, 0.9), (2, 4, 0.5)),
    "entries-ranks-out-of-order": _entries((5, 4, 0.9), (1, 0, 0.5)),
    "entries-rising-scores": _entries((1, 4, 0.5), (2, 0, 0.9)),
    "string": "oops",
    "null": None,
    "index-list": {"index": [4, 0, 7]},
    "value-list": {"value": [0.9, 0.5, 0.5]},
    "index-missing": {"index": None},
    "index-bad-character": {"index": _ids(4, 0, 7)[:-1] + "!"},
    "value-space": {"value": " " + _scores(0.9, 0.5, 0.5)},
    "index-missing-padding": {"index": _ids(4, 0).rstrip("="),
                              "value": _scores(0.9, 0.5)},
    "value-extra-padding": {"value": _scores(0.9, 0.5, 0.5) + "=="},
    "index-not-whole-ids": {"index": base64.b64encode(b"\0" * 10).decode()},
    "value-not-whole-scores": {"value": base64.b64encode(b"\0" * 20).decode()},
    "counts-short": {"index": _ids(4, 0)},
    "counts-long": {"value": _scores(0.9, 0.5, 0.5, 0.1)},
    "node-negative": {"index": _ids(4, -1, 7)},
    "node-repeated": {"index": _ids(4, 0, 4)},
    "scores-rising": {"value": _scores(0.5, 0.9, 0.5)},
    "score-nan": {"value": _scores(0.9, float("nan"), 0.5)},
    "score-inf": {"value": _scores(float("inf"), 0.5, 0.5)},
    "score-minus-inf": {"value": _scores(0.9, 0.5, float("-inf"))},
}


class TestHostileTopKValues:
    """A ``top_k`` value travels as ``single_source``'s two columns, and a
    malformed one is a typed decode failure."""

    def test_well_formed_payload_decodes_to_ranked_entries(self):
        result = result_from_wire(_top_k_payload())
        assert result.value == _entries((1, 4, 0.9), (2, 0, 0.5), (3, 7, 0.5))
        for entry in result.value:
            assert type(entry["rank"]) is int and type(entry["node"]) is int
            assert type(entry["score"]) is float

    def test_empty_list_decodes(self):
        assert result_from_wire(_top_k_payload(index="", value="")).value == []

    def test_wire_shape_is_two_columns(self):
        result = next(r for r in SUCCESS_ENVELOPES if r.kind == "top_k")
        assert result.to_wire()["value"] == {"index": _ids(4), "value": _scores(0.9)}

    @pytest.mark.parametrize(
        "value", list(HOSTILE_TOP_K_VALUES.values()),
        ids=list(HOSTILE_TOP_K_VALUES),
    )
    def test_malformed_top_k_value_raises_wire_format_error(self, value):
        result_from_wire(_top_k_payload())  # the frame it is a variant of
        payload = (
            _top_k_payload(**value) if type(value) is dict
            else {**_top_k_payload(), "value": value}
        )
        with pytest.raises(WireFormatError, match="top_k"):
            result_from_wire(payload)
        with pytest.raises(WireFormatError):
            decode_line(json.dumps(payload))


class TestRetiredAllPairsValues:
    """Served ``all_pairs`` is gone: neither its rows nor its row chunks
    decode any more."""

    @pytest.mark.parametrize("value", ["garbage", [[0.0, 1.0], [1.0, 0.0]], None])
    def test_monolithic_value_raises(self, value):
        payload = {**PAIR_LINE, "kind": "all_pairs", "value": value}
        with pytest.raises(WireFormatError):
            result_from_wire(payload)

    def test_row_chunks_raise(self):
        line = (
            '{"v":2,"frame":"partial","id":1,"kind":"all_pairs","seq":0,'
            '"offset":0,"value":[[1e999],"x"]}'
        )
        done = {**PAIR_LINE, "v": 2, "frame": "done", "id": 1,
                "kind": "all_pairs", "chunks": 1, "total": 2}
        del done["value"]
        with pytest.raises(WireFormatError):
            result_from_frames([json.loads(line), done])


class TestSparseScoresValue:
    """The in-process value: read-only columns, bitwise equality."""

    def test_from_dense_keeps_arrays_not_lists(self):
        value = SparseScores.from_dense(np.array([0.0, 0.5, -0.0, 0.0, 1.0]))
        assert value.index.dtype == np.int32 and value.index.tolist() == [1, 2, 4]
        assert value.value.dtype == np.float64
        with pytest.raises(ValueError):
            value.value[0] = 2.0

    def test_constructor_leaves_the_callers_array_writeable(self):
        index = np.array([1, 3], dtype=np.int32)
        SparseScores(4, index, [0.5, 0.5])
        assert index.flags.writeable

    def test_equality_is_bitwise(self):
        value = SparseScores(3, [1], [0.0])
        assert value == SparseScores(3, np.array([1]), np.array([0.0]))
        assert value != SparseScores(3, [1], [-0.0])  # different bits
        assert value != SparseScores(4, [1], [0.0])
        assert value != SparseScores(3, [2], [0.0])
        assert value != [0.0, 0.0, 0.0]
        nan = SparseScores(2, [0], [float("nan")])
        assert nan == SparseScores(2, [0], [float("nan")])  # same bits

    def test_refuses_ids_beyond_int32(self):
        with pytest.raises(ValueError):
            SparseScores(2**31, [], [])
        with pytest.raises(ValueError):
            SparseScores(4, [0, 1], [0.5])


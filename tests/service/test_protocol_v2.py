"""Protocol v2: request envelopes, response frames, chunked streaming.

Covers the wire-level tentpole pieces — versioned envelopes with id echo,
``partial``/``done`` streaming with exact reassembly, compact encoding —
plus the v1 back-compat guarantee: a recorded v1 JSONL transcript replayed
through ``repro serve`` yields byte-equivalent ``value`` fields, and the
sparse ``single_source`` encoding (nonzero chunking, exact densification).
"""

from __future__ import annotations

import base64
import io
import json
import struct

import numpy as np
import pytest

from repro.exceptions import WireFormatError
from repro.service import (
    PROTOCOL_VERSION,
    PingRequest,
    QueryResult,
    ServiceConfig,
    ShutdownRequest,
    SimRankClient,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    SparseScores,
    TopKQuery,
    decode_envelope,
    decode_envelope_line,
    encode_frame,
    encode_response,
    response_frames,
    result_from_frames,
)

from repro.cli import main

#: Fast settings shared by every serve invocation (mirrors test_serve_cli).
FAST = ["--scale", "0.05", "--epsilon", "0.1", "--mc-walks", "30"]


def run_serve_frames(capsys, lines, *extra):
    """Run ``repro serve`` over a stdin payload; return every output frame."""
    import sys

    stdin = sys.stdin
    sys.stdin = io.StringIO("\n".join(lines) + "\n")
    try:
        exit_code = main(["serve", *FAST, *extra])
    finally:
        sys.stdin = stdin
    captured = capsys.readouterr()
    frames = [json.loads(line) for line in captured.out.splitlines() if line]
    return exit_code, frames, captured.err


def fast_service():
    return SimRankService(ServiceConfig(scale=0.05, seed=0))


class TestRequestEnvelope:
    def test_bare_v1_line_decodes_as_v2_with_null_id(self):
        env = decode_envelope({"kind": "top_k", "dataset": "GrQc", "node": 3, "k": 5})
        assert env.request == TopKQuery("GrQc", node=3, k=5)
        assert env.id is None
        assert env.chunk_size is None

    @pytest.mark.parametrize("request_id", [0, 7, "req-42", "", -3])
    def test_id_round_trips(self, request_id):
        env = decode_envelope(
            {"v": 2, "id": request_id, "kind": "single_source",
             "dataset": "GrQc", "node": 1}
        )
        assert env.id == request_id
        assert env.request == SingleSourceQuery("GrQc", 1)

    def test_control_kinds_decode_through_the_envelope(self):
        env = decode_envelope({"id": 1, "kind": "ping"})
        assert env.request == PingRequest()

    @pytest.mark.parametrize("bad_id", [1.5, True, [1], {"a": 1}])
    def test_invalid_ids_fail_without_echo(self, bad_id):
        env = decode_envelope({"id": bad_id, "kind": "ping"})
        assert isinstance(env.request, QueryResult)
        assert env.request.error.code == "bad_request"
        assert env.id is None  # an unechoable id is not echoed

    @pytest.mark.parametrize("bad_version", [0, 3, "2", 2.0, True])
    def test_unsupported_versions_are_rejected_with_id_echo(self, bad_version):
        env = decode_envelope({"v": bad_version, "id": 9, "kind": "ping"})
        assert isinstance(env.request, QueryResult)
        assert "protocol version" in env.request.error.message
        assert env.id == 9

    @pytest.mark.parametrize("bad_chunk", [0, -1, "big", 1.5, False])
    def test_invalid_chunk_sizes_are_rejected(self, bad_chunk):
        env = decode_envelope(
            {"id": 3, "chunk_size": bad_chunk, "kind": "single_source",
             "dataset": "GrQc", "node": 0}
        )
        assert isinstance(env.request, QueryResult)
        assert "chunk_size" in env.request.error.message
        assert env.id == 3

    def test_envelope_keys_do_not_leak_into_the_body(self):
        # A v1 decoder would reject "id" as an unexpected field; the v2
        # decoder strips envelope keys before strict body validation.
        env = decode_envelope(
            {"v": 2, "id": 1, "chunk_size": 4, "kind": "single_pair",
             "dataset": "GrQc", "node_u": 0, "node_v": 1}
        )
        assert env.request == SinglePairQuery("GrQc", 0, 1)
        assert env.chunk_size == 4

    def test_undecodable_body_keeps_the_id(self):
        env = decode_envelope({"id": "abc", "kind": "top_k", "dataset": "GrQc"})
        assert isinstance(env.request, QueryResult)
        assert env.request.error.code == "bad_request"
        assert env.id == "abc"

    def test_invalid_json_line_is_total(self):
        env = decode_envelope_line("{definitely not json")
        assert isinstance(env.request, QueryResult)
        assert "invalid JSON" in env.request.error.message

    def test_non_object_payloads_fail(self):
        env = decode_envelope([1, 2, 3])
        assert isinstance(env.request, QueryResult)
        assert env.request.error.code == "bad_request"


class TestCompactEncoding:
    """Satellite: wire lines carry no padded whitespace."""

    def test_requests_encode_compactly(self):
        line = encode_frame(TopKQuery("GrQc", node=3, k=5).to_wire())
        assert line == json.dumps(json.loads(line), separators=(",", ":"))

    def test_results_encode_compactly(self):
        result = QueryResult.success(
            kind="top_k", dataset="GrQc",
            value=[{"rank": 1, "node": 4, "score": 0.9}],
            backend="sling", seconds=0.01,
            cache_hit=False,
        )
        for line in (encode_response(result), encode_response(result, id=1)):
            assert line == json.dumps(json.loads(line), separators=(",", ":"))

    def test_frames_encode_compactly(self):
        result = QueryResult.success(
            kind="single_source", dataset="GrQc",
            value=SparseScores.from_dense(np.full(64, 0.1)),
            backend="sling", seconds=0.01, cache_hit=False,
        )
        for line in response_frames(result, id=2, chunk_size=16):
            assert line == json.dumps(json.loads(line), separators=(",", ":"))


def _success_single_source(n=100):
    return QueryResult.success(
        kind="single_source", dataset="GrQc",
        value=SparseScores.from_dense(np.arange(1, n + 1) / n),
        backend="sling", seconds=0.5,
        cache_hit=False,
    )


class TestResponseFrames:
    def test_monolithic_response_echoes_id_and_version(self):
        result = _success_single_source(4)
        (line,) = response_frames(result, id="r1")
        payload = json.loads(line)
        assert payload["v"] == PROTOCOL_VERSION
        assert payload["id"] == "r1"
        assert payload["ok"] is True
        assert payload["value"] == result.value.to_wire()
        assert "frame" not in payload

    def test_chunked_frames_are_bounded_and_ordered(self):
        result = _success_single_source(100)
        lines = list(response_frames(result, id=7, chunk_size=16))
        frames = [json.loads(line) for line in lines]
        partials, done = frames[:-1], frames[-1]
        assert len(partials) == 7  # ceil(100 / 16)
        assert all(f["frame"] == "partial" for f in partials)
        assert [f["seq"] for f in partials] == list(range(7))
        assert [f["offset"] for f in partials] == [16 * i for i in range(7)]
        assert all(
            len(base64.b64decode(f["value"]["index"])) <= 16 * 4
            for f in partials
        )
        assert all(f["id"] == 7 for f in frames)
        assert done["frame"] == "done"
        assert done["chunks"] == 7 and done["total"] == 100
        assert done["n"] == 100
        assert "value" not in done
        # Every frame line is far smaller than the monolithic line.
        (monolithic,) = response_frames(result, id=7)
        assert max(len(line) for line in lines) < len(monolithic)

    def test_reassembly_is_exact(self):
        result = _success_single_source(100)
        frames = [
            json.loads(line)
            for line in response_frames(result, id=1, chunk_size=9)
        ]
        rebuilt = result_from_frames(frames)
        assert rebuilt.value == result.value
        assert rebuilt.ok and rebuilt.kind == "single_source"
        assert rebuilt.backend == result.backend

    def test_short_values_never_chunk(self):
        result = _success_single_source(8)
        assert len(list(response_frames(result, id=1, chunk_size=8))) == 1

    def test_errors_never_chunk(self):
        failure = QueryResult.failure("bad_request", "boom", kind="single_source")
        lines = list(response_frames(failure, id=5, chunk_size=1))
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["id"] == 5 and payload["ok"] is False

    def test_unchunkable_kinds_never_chunk(self):
        result = QueryResult.success(
            kind="top_k", dataset="GrQc",
            value=[{"rank": i, "node": i, "score": 0.5} for i in range(1, 50)],
            backend="sling", seconds=0.1, cache_hit=True,
        )
        assert len(list(response_frames(result, id=1, chunk_size=2))) == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda frames: frames[:-1],                      # missing done
            lambda frames: [frames[1], frames[0], *frames[2:]],  # misordered
            lambda frames: [frames[0], *frames[2:]],          # gap
            lambda frames: [*frames[:-1],
                            {**frames[-1], "total": 999}],    # wrong total
        ],
        ids=["missing-done", "misordered", "gap", "wrong-total"],
    )
    def test_corrupt_frame_sequences_raise(self, mutate):
        frames = [
            json.loads(line)
            for line in response_frames(_success_single_source(64), id=1,
                                        chunk_size=8)
        ]
        with pytest.raises(WireFormatError):
            result_from_frames(mutate(frames))


def _frames(result, **kwargs) -> list[dict]:
    return [json.loads(line) for line in response_frames(result, id=1, **kwargs)]


def _bits(vector) -> np.ndarray:
    return np.asarray(vector, dtype=np.float64).view(np.int64)


def _ids(*ids: int) -> str:
    """Base64 of little-endian int32 ids, built with the standard library."""
    return base64.b64encode(struct.pack(f"<{len(ids)}i", *ids)).decode()


def _scores(*scores: float) -> str:
    """Base64 of little-endian float64 scores."""
    return base64.b64encode(struct.pack(f"<{len(scores)}d", *scores)).decode()


def _with_chunk(frames: list[dict], seq: int, **columns) -> list[dict]:
    """``frames`` with partial ``seq``'s value columns replaced."""
    frame = frames[seq]
    return [
        *frames[:seq],
        {**frame, "value": {**frame["value"], **columns}},
        *frames[seq + 1:],
    ]


class TestSparseSingleSource:
    """``single_source`` travels as its nonzeros and densifies bit for bit."""

    #: Zeros between the nonzeros, a ``-0.0`` (kept: nonzero by bits) and
    #: a score at the last node.
    DENSE = np.array([0.0, 0.5, 0.0, 0.0, 1e-300, -0.0, 0.0, 0.25, 0.0, 1.0 / 3])

    def _result(self, vector):
        return QueryResult.success(
            kind="single_source", dataset="GrQc",
            value=SparseScores.from_dense(vector),
            backend="sling", seconds=0.01, cache_hit=False,
        )

    def test_nonzeros_are_sent_and_densify_bitwise(self):
        result = self._result(self.DENSE)
        (monolithic,) = _frames(result)
        assert monolithic["value"] == {
            "n": 10,
            "index": _ids(1, 4, 5, 7, 9),
            "value": _scores(0.5, 1e-300, -0.0, 0.25, 1.0 / 3),
        }
        rebuilt = result_from_frames([monolithic])
        assert np.array_equal(_bits(rebuilt.value), _bits(self.DENSE))

    def test_self_only_vector(self):
        vector = np.zeros(50)
        vector[17] = 1.0
        result = self._result(vector)
        assert result.value.to_wire() == {
            "n": 50, "index": _ids(17), "value": _scores(1.0),
        }
        for chunk_size in (None, 1):
            rebuilt = result_from_frames(_frames(result, chunk_size=chunk_size))
            assert rebuilt.value == result.value
            assert np.array_equal(_bits(rebuilt.value), _bits(vector))

    def test_fully_dense_vector_stays_within_one_and_a_half_dense(self):
        vector = np.random.default_rng(0).random(6000)
        value = SparseScores.from_dense(vector)
        assert len(value.index) == 6000
        sparse_bytes = len(json.dumps(value.to_wire(), separators=(",", ":")))
        dense_bytes = len(json.dumps(vector.tolist(), separators=(",", ":")))
        assert sparse_bytes <= 1.5 * dense_bytes
        assert np.array_equal(_bits(value), _bits(vector))

    def test_chunks_count_nonzeros(self):
        result = self._result(self.DENSE)
        frames = _frames(result, chunk_size=2)
        partials, done = frames[:-1], frames[-1]
        assert [f["offset"] for f in partials] == [0, 2, 4]
        assert [f["value"]["index"] for f in partials] == [
            _ids(1, 4), _ids(5, 7), _ids(9),
        ]
        assert done["frame"] == "done"
        assert done["n"] == 10 and done["total"] == 5 and done["chunks"] == 3
        chunked = result_from_frames(frames)
        assert chunked.value == result_from_frames(_frames(result)).value
        assert np.array_equal(_bits(chunked.value), _bits(self.DENSE))

    def test_few_nonzeros_never_chunk(self):
        vector = np.zeros(1000)
        vector[[3, 500]] = 0.5
        assert len(_frames(self._result(vector), chunk_size=2)) == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda frames: [{**frames[0], "value": [0.5, 0.0]}, *frames[1:]],
            lambda frames: _with_chunk(frames, 0, value=_scores(0.5)),
            lambda frames: _with_chunk(
                frames, 0, index=_ids(1, 4, 5), value=_scores(0.5, 1.0, 1.0)
            ),
            lambda frames: _with_chunk(frames, 0, index=[1, 4]),
            lambda frames: _with_chunk(frames, 1, value=[-0.0, 0.25]),
            lambda frames: _with_chunk(frames, 1, index="BQAAAAcAAA=!"),
            lambda frames: _with_chunk(frames, 1, index=_ids(5, 7)[:-1]),
            lambda frames: _with_chunk(
                frames, 1, index=base64.b64encode(b"\0" * 6).decode()
            ),
            lambda frames: _with_chunk(frames, 1, index=_ids(4, 7)),
            lambda frames: _with_chunk(frames, 1, index=_ids(3, 7)),
            lambda frames: _with_chunk(frames, 2, index=_ids(10)),
            lambda frames: _with_chunk(frames, 0, index=_ids(-1, 4)),
            lambda frames: _with_chunk(
                frames, 1, value=_scores(float("nan"), 0.25)
            ),
            lambda frames: _with_chunk(frames, 2, value=_scores(float("inf"))),
            lambda frames: [*frames[:-1], {**frames[-1], "n": True}],
            lambda frames: [
                {**frames[0], "value": {**frames[1]["value"]}},
                {**frames[1], "value": {**frames[0]["value"]}},
                *frames[2:],
            ],
            lambda frames: [*frames[:-1], {**frames[-1], "n": 9}],
            lambda frames: [
                *frames[:-1],
                {k: v for k, v in frames[-1].items() if k != "n"},
            ],
        ],
        ids=[
            "dense-partial", "ragged-partial", "over-long-partial",
            "index-list", "value-list", "bad-base64-character",
            "wrong-padding", "index-not-whole-ids",
            "repeated-id-across-chunks", "descending-id-across-chunks",
            "index-at-n", "index-negative", "nan-score", "inf-score",
            "n-bool", "swapped-payloads", "n-too-small", "n-missing",
        ],
    )
    def test_corrupt_sparse_frames_raise(self, mutate):
        frames = _frames(self._result(self.DENSE), chunk_size=2)
        with pytest.raises(WireFormatError):
            result_from_frames(mutate(frames))

    def test_non_finite_scores_raise_monolithic_too(self):
        (frame,) = _frames(self._result(self.DENSE))
        for score in (float("nan"), float("inf"), float("-inf")):
            hostile = {**frame, "value": {**frame["value"], "value": _scores(
                0.5, 1e-300, score, 0.25, 1.0 / 3
            )}}
            with pytest.raises(WireFormatError):
                result_from_frames([hostile])

    def test_value_is_not_a_sequence(self):
        value = SparseScores.from_dense(self.DENSE)
        with pytest.raises(TypeError):
            len(value)
        with pytest.raises(TypeError):
            iter(value)
        with pytest.raises(TypeError):
            value[0]
        assert value.tolist() == self.DENSE.tolist()
        assert np.asarray(value, dtype=np.float32).dtype == np.float32


class TestTopKColumns:
    """``top_k`` travels as the same two columns as ``single_source``,
    in rank order, and is never chunked."""

    ENTRIES = [(12, 0.75), (3, 0.5), (8, 0.5), (0, 1e-300), (5, 0.0)]

    def _result(self, entries=ENTRIES):
        return QueryResult.success(
            kind="top_k", dataset="GrQc",
            value=[
                {"rank": rank, "node": node, "score": score}
                for rank, (node, score) in enumerate(entries, start=1)
            ],
            backend="sling", seconds=0.01, cache_hit=False,
        )

    def test_value_is_ids_and_scores_in_rank_order(self):
        (frame,) = _frames(self._result(), chunk_size=1)
        nodes, scores = zip(*self.ENTRIES)
        assert frame["value"] == {"index": _ids(*nodes), "value": _scores(*scores)}
        assert result_from_frames([frame]) == self._result()

    @pytest.mark.parametrize(
        "value",
        [
            [{"rank": 1, "node": 12, "score": 0.75}],
            {"index": _ids(12, 3, 8, 0, 5)},
            {"index": [12, 3, 8, 0, 5], "value": _scores(0.75, 0.5, 0.5, 0.0, 0.0)},
            {"index": _ids(12, 3), "value": [0.75, 0.5]},
            {"index": _ids(12, 3)[:-2] + "!=", "value": _scores(0.75, 0.5)},
            {"index": _ids(12, 3).rstrip("="), "value": _scores(0.75, 0.5)},
            {"index": base64.b64encode(b"\0" * 7).decode(), "value": _scores(0.5)},
            {"index": _ids(12), "value": base64.b64encode(b"\0" * 9).decode()},
            {"index": _ids(12, 3), "value": _scores(0.75)},
            {"index": _ids(12, -3), "value": _scores(0.75, 0.5)},
            {"index": _ids(12, 12), "value": _scores(0.75, 0.5)},
            {"index": _ids(12, 3), "value": _scores(0.5, 0.75)},
            {"index": _ids(12, 3), "value": _scores(0.75, float("nan"))},
            {"index": _ids(12), "value": _scores(float("inf"))},
        ],
        ids=[
            "entry-list", "value-missing", "index-list", "value-list",
            "bad-base64-character", "wrong-padding", "index-not-whole-ids",
            "value-not-whole-scores", "unequal-counts", "node-negative",
            "node-repeated", "scores-rising", "nan-score", "inf-score",
        ],
    )
    def test_hostile_top_k_frames_raise(self, value):
        (frame,) = _frames(self._result())
        assert set(frame["value"]) == {"index", "value"}  # the columns it replaces
        with pytest.raises(WireFormatError):
            result_from_frames([{**frame, "value": value}])

    def test_chunked_top_k_frames_raise(self):
        # Only single_source answers are chunked; a top_k "stream" is hostile.
        (frame,) = _frames(self._result())
        partial = {"v": 2, "frame": "partial", "id": 1, "kind": "top_k",
                   "seq": 0, "offset": 0, "value": frame["value"]}
        done = {key: value for key, value in frame.items() if key != "value"}
        done.update(frame="done", chunks=1, total=5)
        with pytest.raises(WireFormatError):
            result_from_frames([partial, done])


class TestServeV2:
    """The serve loop end of the protocol: hello, id echo, chunking."""

    def test_hello_frame_opens_the_stream(self, capsys):
        _, frames, _ = run_serve_frames(capsys, ['{"kind":"ping"}'])
        hello = frames[0]
        assert hello["frame"] == "hello"
        assert hello["protocol"] == PROTOCOL_VERSION
        assert "sling" in hello["backends"]
        assert hello["datasets"] == []  # nothing open yet
        assert "GrQc" in hello["registry"]

    def test_no_hello_suppresses_the_handshake(self, capsys):
        _, frames, _ = run_serve_frames(capsys, ['{"kind":"ping"}'], "--no-hello")
        assert all(f.get("frame") != "hello" for f in frames)

    def test_ids_are_echoed_in_arrival_order(self, capsys):
        lines = [
            '{"v":2,"id":"a","kind":"top_k","dataset":"GrQc","node":1,"k":2}',
            '{"kind":"top_k","dataset":"GrQc","node":1,"k":2}',
            '{"v":2,"id":17,"kind":"ping"}',
        ]
        _, frames, _ = run_serve_frames(capsys, lines)
        responses = [f for f in frames if "frame" not in f]
        assert [r["id"] for r in responses] == ["a", None, 17]
        assert all(r["v"] == PROTOCOL_VERSION for r in responses)

    def test_chunked_single_source_over_the_loop(self, capsys):
        lines = [
            '{"v":2,"id":1,"kind":"single_source","dataset":"GrQc","node":0}',
            '{"v":2,"id":2,"chunk_size":7,"kind":"single_source",'
            '"dataset":"GrQc","node":0}',
        ]
        _, frames, _ = run_serve_frames(capsys, lines)
        monolithic = next(f for f in frames if f.get("id") == 1)
        streamed = [f for f in frames if f.get("id") == 2]
        assert streamed[-1]["frame"] == "done"
        rebuilt = result_from_frames(streamed)
        assert rebuilt.value.to_wire() == monolithic["value"]

    def test_standard_library_reads_a_served_line(self, capsys):
        # The columns need no NumPy: ``base64`` and ``array`` decode a raw
        # served line (README's "Sparse single-source values" recipe), and
        # the vector is the one ``SimRankClient`` returns.
        import array
        import sys

        from repro.engine import BackendConfig

        _, frames, _ = run_serve_frames(
            capsys, ['{"kind":"single_source","dataset":"GrQc","node":0}']
        )
        (reply,) = [f for f in frames if "frame" not in f]

        # The five lines README shows, verbatim.
        index = array.array("i", base64.b64decode(reply["value"]["index"]))
        value = array.array("d", base64.b64decode(reply["value"]["value"]))
        if sys.byteorder == "big":
            index.byteswap(), value.byteswap()
        scores = dict(zip(index, value))  # node id -> score; absent ids score 0

        dense = [scores.get(node, 0.0) for node in range(reply["value"]["n"])]
        client = SimRankClient.in_process(
            config=ServiceConfig(
                scale=0.05, seed=0,
                backend_config=BackendConfig(epsilon=0.1, seed=0, mc_num_walks=30),
            )
        )
        try:
            expected = client.single_source("GrQc", 0)
        finally:
            client.close()
        assert len(index) > 1
        assert _bits(dense).tolist() == _bits(expected).tolist()

    def test_standard_library_reads_a_served_top_k_line(self, capsys):
        # README's recipe again: a top_k value is the same two columns, in
        # rank order, and decodes into what ``SimRankClient.top_k`` returns.
        import array
        import sys

        from repro.engine import BackendConfig

        _, frames, _ = run_serve_frames(
            capsys, ['{"kind":"top_k","dataset":"GrQc","node":3,"k":5}']
        )
        (reply,) = [f for f in frames if "frame" not in f]

        index = array.array("i", base64.b64decode(reply["value"]["index"]))
        value = array.array("d", base64.b64decode(reply["value"]["value"]))
        if sys.byteorder == "big":
            index.byteswap(), value.byteswap()
        top = [
            {"rank": rank, "node": node, "score": score}
            for rank, (node, score) in enumerate(zip(index, value), start=1)
        ]

        client = SimRankClient.in_process(
            config=ServiceConfig(
                scale=0.05, seed=0,
                backend_config=BackendConfig(epsilon=0.1, seed=0, mc_num_walks=30),
            )
        )
        try:
            expected = client.top_k("GrQc", 3, 5)
        finally:
            client.close()
        assert len(top) == 5
        assert top == expected

    def test_retired_all_pairs_is_a_bad_request(self, capsys):
        lines = ['{"v":2,"id":1,"kind":"all_pairs","dataset":"GrQc"}']
        _, frames, _ = run_serve_frames(capsys, lines)
        (reply,) = [f for f in frames if "frame" not in f]
        assert reply["id"] == 1 and reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"
        assert "unknown request kind 'all_pairs'" in reply["error"]["message"]

    def test_server_side_chunk_size_default(self, capsys):
        lines = ['{"v":2,"id":1,"kind":"single_source","dataset":"GrQc","node":0}']
        _, frames, _ = run_serve_frames(capsys, lines, "--chunk-size", "7")
        streamed = [f for f in frames if f.get("id") == 1]
        assert streamed[-1]["frame"] == "done"
        assert len(streamed) > 2


class TestV1TranscriptReplay:
    """A recorded v1 transcript replayed through the v2 serve loop yields
    the service's own wire ``value`` fields byte for byte."""

    TRANSCRIPT = [
        '{"kind":"top_k","dataset":"GrQc","node":3,"k":5}',
        '{"kind":"single_pair","dataset":"GrQc","node_u":1,"node_v":2}',
        '{"kind":"single_source","dataset":"GrQc","node":0}',
        '{"kind":"single_pair","dataset":"GrQc","node_u":2,"node_v":1}',
    ]

    def test_values_are_byte_equivalent(self, capsys):
        # The recorded expectation: the PR 2 service API, same settings as
        # the serve loop's FAST flags (scale 0.05, epsilon 0.1, 30 walks).
        from repro.engine import BackendConfig

        service = SimRankService(
            ServiceConfig(
                scale=0.05, seed=0,
                backend_config=BackendConfig(epsilon=0.1, seed=0, mc_num_walks=30),
            )
        )
        expected = [
            json.dumps(
                service.execute_request(
                    decode_envelope(json.loads(line)).request
                ).to_wire()["value"],
                separators=(",", ":"),
            )
            for line in self.TRANSCRIPT
        ]

        exit_code, frames, _ = run_serve_frames(capsys, self.TRANSCRIPT)
        assert exit_code == 0
        replayed = [f for f in frames if "frame" not in f]
        assert len(replayed) == len(expected)
        assert all(r["ok"] for r in replayed)
        got = [
            json.dumps(r["value"], separators=(",", ":")) for r in replayed
        ]
        assert got == expected

    def test_v1_lines_still_decode_through_v1_entry_points(self):
        for line in self.TRANSCRIPT:
            assert decode_envelope_line(line).id is None

    def test_v2_response_lines_decode_with_result_from_frames(self):
        result = _success_single_source(4)
        decoded = result_from_frames([json.loads(encode_response(result, id=3))])
        assert decoded == result


class TestShutdownControl:
    def test_shutdown_stops_the_serve_loop(self, capsys):
        lines = [
            '{"v":2,"id":1,"kind":"top_k","dataset":"GrQc","node":1,"k":2}',
            '{"v":2,"id":2,"kind":"shutdown"}',
        ]
        exit_code, frames, err = run_serve_frames(capsys, lines)
        assert exit_code == 0
        responses = [f for f in frames if "frame" not in f]
        assert responses[-1]["kind"] == "shutdown"
        assert responses[-1]["value"] == {"stopping": True}
        assert "2/2 ok" in err

    def test_requests_after_shutdown_are_not_answered(self, capsys):
        import sys

        # Feed the loop through a pipe-like single stream: everything is
        # available up front, but the reader must stop at the shutdown ack.
        lines = [
            '{"v":2,"id":1,"kind":"ping"}',
            '{"v":2,"id":2,"kind":"shutdown"}',
        ] + [
            json.dumps({"v": 2, "id": 100 + i, "kind": "ping"})
            for i in range(50)
        ]
        exit_code, frames, _ = run_serve_frames(capsys, lines)
        assert exit_code == 0
        responses = [f for f in frames if "frame" not in f]
        answered = [r["id"] for r in responses]
        assert answered[:2] == [1, 2]
        # In-flight requests may drain, but the tail must not: the reader
        # stopped, so far fewer than the 50 trailing pings were answered.
        assert len(answered) < 20

    def test_in_process_shutdown_matches(self):
        service = fast_service()
        result = service.execute_control(ShutdownRequest())
        assert result.ok and result.value == {"stopping": True}

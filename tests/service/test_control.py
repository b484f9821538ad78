"""The control plane: typed requests, service semantics, hostile frames.

The hostile-frame suite covers the PR's required adversarial cases:
unknown kinds, ``shutdown`` mid-batch, ``close_dataset`` with queries in
flight, duplicate ``id``s, and v1/v2 mixed streams.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.cli import main
from repro.exceptions import ParameterError, WireFormatError
from repro.service import (
    CONTROL_KINDS,
    CloseDatasetRequest,
    DescribeRequest,
    ListDatasetsRequest,
    OpenDatasetRequest,
    ParallelExecutor,
    PingRequest,
    ServiceConfig,
    ShutdownRequest,
    SimRankService,
    SingleSourceQuery,
    StatsRequest,
    control_from_wire,
    request_from_wire,
)
from repro.service.wire import decode_envelope

FAST = ["--scale", "0.05", "--epsilon", "0.1", "--mc-walks", "30"]


def fast_service(**kwargs):
    kwargs.setdefault("scale", 0.05)
    kwargs.setdefault("seed", 0)
    return SimRankService(ServiceConfig(**kwargs))


class TestControlWire:
    @pytest.mark.parametrize(
        "request_obj",
        [
            PingRequest(),
            OpenDatasetRequest("GrQc"),
            CloseDatasetRequest("GrQc"),
            ListDatasetsRequest(),
            StatsRequest(),
            DescribeRequest(),
            DescribeRequest(dataset="GrQc"),
            ShutdownRequest(),
        ],
        ids=lambda r: f"{r.kind}{'-ds' if getattr(r, 'dataset', None) else ''}",
    )
    def test_round_trip(self, request_obj):
        assert control_from_wire(request_obj.to_wire()) == request_obj

    def test_every_kind_is_registered(self):
        assert set(CONTROL_KINDS) == {
            "ping", "open_dataset", "close_dataset", "list_datasets",
            "stats", "describe", "mutate", "shutdown",
        }

    def test_describe_dataset_is_optional(self):
        assert control_from_wire({"kind": "describe"}) == DescribeRequest()

    def test_unknown_control_kind_raises(self):
        with pytest.raises(WireFormatError, match="unknown control kind"):
            control_from_wire({"kind": "reboot"})

    def test_missing_required_field_raises(self):
        with pytest.raises(WireFormatError, match="missing field"):
            control_from_wire({"kind": "open_dataset"})

    def test_unexpected_field_raises(self):
        with pytest.raises(WireFormatError, match="unexpected field"):
            control_from_wire({"kind": "ping", "force": True})

    def test_empty_dataset_raises(self):
        with pytest.raises(ParameterError):
            control_from_wire({"kind": "close_dataset", "dataset": "  "})

    def test_union_decoder_routes_both_planes(self):
        assert request_from_wire({"kind": "ping"}) == PingRequest()
        assert request_from_wire(
            {"kind": "single_source", "dataset": "GrQc", "node": 1}
        ) == SingleSourceQuery("GrQc", 1)
        with pytest.raises(WireFormatError, match="unknown request kind"):
            request_from_wire({"kind": "explode"})


class TestExecuteControl:
    def test_ping(self):
        result = fast_service().execute_control(PingRequest())
        assert result.ok and result.kind == "ping"
        assert result.value == {"pong": True, "protocol": 2}

    def test_open_list_close_lifecycle(self):
        service = fast_service()
        opened = service.execute_control(OpenDatasetRequest("GrQc"))
        assert opened.ok
        assert opened.value["already_open"] is False
        assert opened.value["num_nodes"] > 0
        again = service.execute_control(OpenDatasetRequest("GrQc"))
        assert again.value["already_open"] is True

        listed = service.execute_control(ListDatasetsRequest())
        assert listed.value == {"datasets": ["GrQc"]}

        closed = service.execute_control(CloseDatasetRequest("GrQc"))
        assert closed.ok and closed.value["closed"] is True
        assert service.list_datasets() == []
        re_closed = service.execute_control(CloseDatasetRequest("GrQc"))
        assert re_closed.ok and re_closed.value["closed"] is False

    def test_open_unknown_dataset_is_an_error_envelope(self):
        result = fast_service().execute_control(OpenDatasetRequest("Nope"))
        assert not result.ok
        assert result.error.code == "unknown_dataset"

    def test_stats_matches_service_statistics(self):
        service = fast_service()
        service.execute(SingleSourceQuery("GrQc", 1))
        result = service.execute_control(StatsRequest())
        assert result.ok
        assert result.value == service.statistics()
        assert result.value["totals"]["total_queries"] == 1

    def test_describe_service(self):
        service = fast_service()
        result = service.execute_control(DescribeRequest())
        assert result.ok
        assert result.value["protocol"] == 2
        assert "sling" in result.value["backends"]
        assert result.value["config"]["scale"] == 0.05

    def test_describe_open_session_exposes_engine_detail(self):
        service = fast_service()
        service.execute(SingleSourceQuery("GrQc", 1))
        result = service.execute_control(DescribeRequest(dataset="GrQc"))
        assert result.ok
        detail = result.value
        assert detail["num_nodes"] > 0 and detail["num_edges"] > 0
        engine = detail["engines"]["sling"]
        assert engine["backend"] == "sling"
        assert engine["backend_info"]["thread_safe_queries"] is True
        assert engine["cached_vectors"] == 1
        assert engine["statistics"]["single_source_queries"] == 1
        assert "plan" not in engine

    def test_describe_unopened_session_is_an_error_not_a_build(self):
        service = fast_service()
        result = service.execute_control(DescribeRequest(dataset="GrQc"))
        assert not result.ok
        assert result.error.code == "unknown_dataset"
        assert service.list_datasets() == []  # describing must not open

    def test_control_envelopes_carry_no_backend(self):
        result = fast_service().execute_control(PingRequest())
        assert result.backend is None
        assert result.cache_hit is None and result.seconds >= 0.0

    def test_execute_request_dispatches_both_planes(self):
        service = fast_service()
        assert service.execute_request(PingRequest()).kind == "ping"
        assert service.execute_request(SingleSourceQuery("GrQc", 0)).ok


def run_batch(capsys, lines, *extra):
    import sys

    stdin = sys.stdin
    sys.stdin = io.StringIO("\n".join(lines) + "\n")
    try:
        exit_code = main(["batch", *FAST, *extra])
    finally:
        sys.stdin = stdin
    captured = capsys.readouterr()
    envelopes = [json.loads(line) for line in captured.out.splitlines() if line]
    return exit_code, envelopes, captured.err


class TestHostileFrames:
    """Adversarial wire input must come back as envelopes, never crashes."""

    def test_unknown_kind_is_a_bad_request_envelope(self, capsys):
        exit_code, envelopes, err = run_batch(
            capsys, ['{"kind":"format_disk"}', '{"kind":"ping"}']
        )
        assert exit_code == 1  # the bad line fails the batch
        assert [e["ok"] for e in envelopes] == [False, True]
        assert envelopes[0]["error"]["code"] == "bad_request"
        assert "unknown request kind" in envelopes[0]["error"]["message"]
        assert "Traceback" not in err

    def test_duplicate_ids_are_answered_independently(self, capsys):
        lines = [
            '{"v":2,"id":"dup","kind":"ping"}',
            '{"v":2,"id":"dup","kind":"top_k","dataset":"GrQc","node":1,"k":2}',
            '{"v":2,"id":"dup","kind":"ping"}',
        ]
        exit_code, envelopes, _ = run_batch(capsys, lines)
        assert exit_code == 0
        assert [e["id"] for e in envelopes] == ["dup", "dup", "dup"]
        assert [e["kind"] for e in envelopes] == ["ping", "top_k", "ping"]
        assert all(e["ok"] for e in envelopes)

    def test_v1_v2_mixed_stream(self, capsys):
        lines = [
            '{"kind":"top_k","dataset":"GrQc","node":1,"k":2}',         # v1
            '{"v":2,"id":1,"kind":"top_k","dataset":"GrQc","node":1,"k":2}',
            '{"v":1,"kind":"single_pair","dataset":"GrQc","node_u":0,"node_v":1}',
            '{"v":2,"id":2,"kind":"list_datasets"}',
            '{"v":3,"id":3,"kind":"ping"}',                             # future
        ]
        exit_code, envelopes, _ = run_batch(capsys, lines)
        assert exit_code == 1  # the v3 line is rejected
        assert [e["id"] for e in envelopes] == [None, 1, None, 2, 3]
        assert [e["ok"] for e in envelopes] == [True, True, True, True, False]
        # v1 and v2 spellings of the same query answer identically.
        assert envelopes[0]["value"] == envelopes[1]["value"]
        assert envelopes[3]["value"] == {"datasets": ["GrQc"]}
        assert "protocol version" in envelopes[4]["error"]["message"]

    def test_shutdown_mid_batch_stops_processing(self, capsys):
        lines = [
            '{"kind":"ping"}',
            '{"v":2,"id":"bye","kind":"shutdown"}',
            '{"kind":"ping"}',
            '{"kind":"ping"}',
        ]
        exit_code, envelopes, err = run_batch(capsys, lines)
        assert exit_code == 0  # everything answered before the stop was ok
        assert [e["kind"] for e in envelopes] == ["ping", "shutdown"]
        assert envelopes[1]["id"] == "bye"
        assert "2/2 ok" in err

    def test_shutdown_mid_batch_with_workers(self, capsys):
        lines = ['{"kind":"ping"}'] * 3 + ['{"kind":"shutdown"}']
        exit_code, envelopes, _ = run_batch(capsys, lines, "--workers", "2")
        assert exit_code == 0
        assert [e["kind"] for e in envelopes] == ["ping"] * 3 + ["shutdown"]

    def test_close_dataset_with_queries_in_flight(self):
        """Concurrent closes interleaved with queries: every request gets a
        well-formed envelope and the service stays consistent."""
        service = fast_service()
        service.open_dataset("GrQc")
        errors: list = []
        barrier = threading.Barrier(6)

        def query_worker():
            barrier.wait()
            for node in range(10):
                result = service.execute(SingleSourceQuery("GrQc", node % 5))
                # Lazy re-open means closes never break queries...
                if not result.ok:
                    errors.append(result)

        def close_worker():
            barrier.wait()
            for _ in range(10):
                result = service.execute_control(CloseDatasetRequest("GrQc"))
                if not result.ok:
                    errors.append(result)

        threads = [threading.Thread(target=query_worker) for _ in range(4)] + [
            threading.Thread(target=close_worker) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # ...and the control plane still reports a coherent state.
        final = service.execute_control(ListDatasetsRequest())
        assert final.ok and set(final.value["datasets"]) <= {"GrQc"}

    def test_control_through_parallel_executor(self):
        """Control frames ride the executor like any other request: one
        result per submission, and identical control requests each run."""
        service = fast_service()
        payloads = [
            {"kind": "open_dataset", "dataset": "GrQc"},
            {"kind": "single_source", "dataset": "GrQc", "node": 1},
            {"v": 2, "id": 9, "kind": "stats"},
            {"kind": "close_dataset", "dataset": "GrQc"},
            {"kind": "close_dataset", "dataset": "GrQc"},
        ]
        with ParallelExecutor(service, workers=2) as executor:
            futures = [
                executor.submit(decode_envelope(payload)) for payload in payloads
            ]
            results = [future.result() for future in futures]
        assert [r.kind for r in results] == [
            "open_dataset", "single_source", "stats", "close_dataset",
            "close_dataset",
        ]
        assert all(r.ok for r in results)
        # Both closes really ran: at most one found the dataset open.
        assert results[3].value["closed"] in (True, False)
        assert [results[3].value["closed"], results[4].value["closed"]].count(
            True
        ) <= 1

    def test_garbage_ids_and_bodies_never_traceback(self, capsys):
        lines = [
            '{"id":{"nested":1},"kind":"ping"}',
            '{"v":"two","kind":"ping"}',
            '{"chunk_size":-5,"kind":"single_source","dataset":"GrQc","node":0}',
            "[]",
            "null",
            '"shutdown"',
        ]
        exit_code, envelopes, err = run_batch(capsys, lines)
        assert exit_code == 1
        assert len(envelopes) == len(lines)
        assert all(not e["ok"] for e in envelopes)
        assert all(e["error"]["code"] == "bad_request" for e in envelopes)
        assert "Traceback" not in err


class TestStatsControlMatchesShutdownDump:
    """Satellite: ``serve --stats`` is redundant-but-kept — the ``stats``
    control request returns the same snapshot on demand."""

    def test_in_flight_stats_equal_shutdown_dump(self, capsys):
        import sys

        lines = [
            '{"kind":"top_k","dataset":"GrQc","node":1,"k":3}',
            '{"kind":"single_pair","dataset":"GrQc","node_u":0,"node_v":1}',
            '{"v":2,"id":"s","kind":"stats"}',
        ]
        stdin = sys.stdin
        sys.stdin = io.StringIO("\n".join(lines) + "\n")
        try:
            exit_code = main(["serve", *FAST, "--stats"])
        finally:
            sys.stdin = stdin
        captured = capsys.readouterr()
        assert exit_code == 0
        frames = [json.loads(line) for line in captured.out.splitlines() if line]
        in_flight = next(f for f in frames if f.get("id") == "s")["value"]
        shutdown_dump = json.loads(captured.err[captured.err.index("{"):])
        assert in_flight == shutdown_dump
        assert in_flight["totals"]["total_queries"] == 2

"""End-to-end tests for the long-lived ``repro serve`` JSONL loop."""

from __future__ import annotations

import io
import json

from repro.cli import main

#: Fast settings shared by every serve invocation.
FAST = ["--scale", "0.05", "--epsilon", "0.1", "--mc-walks", "30"]


def run_serve(capsys, lines, *extra):
    """Run ``repro serve`` over a stdin payload; return (exit, envelopes, err).

    ``envelopes`` holds one entry per request, exactly as in protocol v1:
    protocol frames (the opening ``hello`` handshake, ``partial``/``done``
    streaming frames) carry a ``frame`` discriminator and are filtered out
    here; tests that need them use :func:`run_serve_frames`.
    """
    exit_code, frames, err = run_serve_frames(capsys, lines, *extra)
    return exit_code, [f for f in frames if "frame" not in f], err


def run_serve_frames(capsys, lines, *extra):
    """Like :func:`run_serve` but returning every output frame unfiltered."""
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


REQUESTS = [
    '{"kind":"top_k","dataset":"GrQc","node":3,"k":5}',
    '{"kind":"single_pair","dataset":"GrQc","node_u":1,"node_v":2}',
    '{"kind":"single_source","dataset":"GrQc","node":0}',
]


class TestServeLoop:
    def test_happy_path_in_arrival_order(self, capsys):
        exit_code, envelopes, err = run_serve(capsys, REQUESTS)
        assert exit_code == 0
        assert [envelope["kind"] for envelope in envelopes] == [
            "top_k",
            "single_pair",
            "single_source",
        ]
        assert all(envelope["ok"] for envelope in envelopes)
        assert "3/3 ok" in err and "workers: 1" in err

    def test_client_errors_become_envelopes_not_exit_codes(self, capsys):
        exit_code, envelopes, err = run_serve(
            capsys,
            [
                REQUESTS[0],
                "definitely not json",
                '{"kind":"top_k","dataset":"GrQc","node":999999,"k":3}',
                REQUESTS[1],
            ],
        )
        # A serving loop must not fail because a client sent a bad request.
        assert exit_code == 0
        assert [envelope["ok"] for envelope in envelopes] == [True, False, False, True]
        assert envelopes[1]["error"]["code"] == "bad_request"
        assert envelopes[2]["error"]["code"] == "node_out_of_range"
        assert "2/4 ok, 2 error(s)" in err

    def test_blank_lines_are_skipped(self, capsys):
        exit_code, envelopes, _ = run_serve(
            capsys, [REQUESTS[0], "", "   ", REQUESTS[1]]
        )
        assert exit_code == 0
        assert len(envelopes) == 2

    def test_sessions_interleave_and_stay_open(self, capsys):
        """Requests for several datasets interleave on one warm service."""
        lines = [
            '{"kind":"top_k","dataset":"GrQc","node":1,"k":3}',
            '{"kind":"top_k","dataset":"AS","node":1,"k":3}',
            '{"kind":"top_k","dataset":"GrQc","node":2,"k":3}',
            '{"kind":"single_pair","dataset":"AS","node_u":0,"node_v":1}',
        ]
        exit_code, envelopes, err = run_serve(capsys, lines)
        assert exit_code == 0
        assert [envelope["dataset"] for envelope in envelopes] == [
            "GrQc",
            "AS",
            "GrQc",
            "AS",
        ]
        # Both sessions were still open at shutdown (opened exactly once).
        assert "datasets: GrQc, AS" in err

    def test_workers_preserve_order_and_values(self, capsys):
        lines = [
            json.dumps({"kind": "top_k", "dataset": "GrQc", "node": n % 7, "k": 4})
            for n in range(24)
        ]
        exit_sequential, sequential, _ = run_serve(capsys, lines)
        exit_parallel, parallel, err = run_serve(capsys, lines, "--workers", "4")
        assert exit_sequential == exit_parallel == 0

        def strip(envelope):
            return {
                key: value
                for key, value in envelope.items()
                if key not in ("seconds", "cache_hit")
            }

        assert [strip(e) for e in parallel] == [strip(e) for e in sequential]
        assert "workers: 4" in err

    def test_broken_output_pipe_shuts_down_instead_of_hanging(self, capsys):
        """Regression: a dying writer (client closed stdout, as in
        ``repro serve | head -1``) must shut the loop down with a nonzero
        exit, not leave the reader blocked forever on a full queue."""
        import sys

        lines = [
            json.dumps({"kind": "top_k", "dataset": "GrQc", "node": n % 5, "k": 3})
            for n in range(40)  # far more than the workers*4 in-flight window
        ]

        class _BrokenOut:
            def write(self, text):
                raise BrokenPipeError("client went away")

            def flush(self):
                pass

        stdin, stdout = sys.stdin, sys.stdout
        sys.stdin = io.StringIO("\n".join(lines) + "\n")
        sys.stdout = _BrokenOut()
        try:
            exit_code = main(["serve", *FAST, "--workers", "2"])
        finally:
            sys.stdin, sys.stdout = stdin, stdout
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "output stream failed" in err
        assert "BrokenPipeError" in err

    def test_stats_dump_on_shutdown(self, capsys):
        exit_code, _, err = run_serve(capsys, REQUESTS, "--stats")
        assert exit_code == 0
        stats = json.loads(err[err.index("{"):])
        assert "GrQc" in stats["datasets"]
        assert stats["totals"]["total_queries"] == 3


class TestServeDeadlines:
    def test_queued_request_past_its_deadline_is_shed(self, capsys, monkeypatch):
        """``deadline_ms`` holds on the stdin loop as on sockets: a pair query
        queued behind a slow one on the only worker answers
        ``deadline_exceeded`` instead of running late."""
        monkeypatch.setenv("REPRO_FAULT_SLOW_MS", "400")
        lines = [
            '{"v":2,"id":1,"kind":"single_pair","dataset":"GrQc",'
            '"node_u":1,"node_v":2}',
            '{"v":2,"id":2,"kind":"single_pair","dataset":"GrQc",'
            '"node_u":3,"node_v":4,"deadline_ms":50}',
        ]
        exit_code, envelopes, _ = run_serve(capsys, lines, "--workers", "1")
        assert exit_code == 0
        assert [e["id"] for e in envelopes] == [1, 2]
        assert envelopes[0]["ok"] is True
        assert envelopes[1]["ok"] is False
        assert envelopes[1]["error"]["code"] == "deadline_exceeded"

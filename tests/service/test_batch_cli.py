"""End-to-end tests for the ``repro batch`` JSONL sub-command."""

from __future__ import annotations

import base64
import io
import json

import pytest

from repro.cli import main
from repro.service import result_from_frames

#: Fast settings shared by every batch invocation.
FAST = ["--scale", "0.05", "--epsilon", "0.1", "--mc-walks", "30"]


def run_batch(capsys, lines, *extra):
    """Run ``repro batch`` over a stdin payload; return (exit, envelopes, err)."""
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


class TestBatchHappyPath:
    def test_single_top_k_request(self, capsys):
        exit_code, envelopes, err = run_batch(
            capsys,
            ['{"kind":"top_k","dataset":"GrQc","node":3,"k":5}'],
            "--backend", "auto",
        )
        assert exit_code == 0
        assert len(envelopes) == 1
        envelope = envelopes[0]
        assert envelope["ok"] is True
        assert envelope["kind"] == "top_k"
        assert envelope["dataset"] == "GrQc"
        # Five ranked node ids and scores, as two base64 columns.
        assert len(base64.b64decode(envelope["value"]["index"])) == 5 * 4
        assert len(base64.b64decode(envelope["value"]["value"])) == 5 * 8
        assert result_from_frames([envelope]).value[0]["rank"] == 1
        assert envelope["backend"] == "sling"
        assert "plan" not in envelope
        assert envelope["seconds"] > 0.0
        assert "1/1 ok" in err

    def test_every_kind_and_blank_lines(self, capsys):
        exit_code, envelopes, _ = run_batch(
            capsys,
            [
                '{"kind":"single_pair","dataset":"GrQc","node_u":1,"node_v":2}',
                "",
                '{"kind":"single_source","dataset":"GrQc","node":1}',
                '{"kind":"top_k","dataset":"GrQc","node":1,"k":3}',
            ],
        )
        assert exit_code == 0
        assert [envelope["kind"] for envelope in envelopes] == [
            "single_pair", "single_source", "top_k",
        ]
        assert all(envelope["ok"] for envelope in envelopes)

    def test_sessions_are_reused_across_lines(self, capsys):
        request = '{"kind":"single_source","dataset":"GrQc","node":4}'
        exit_code, envelopes, _ = run_batch(capsys, [request, request])
        assert exit_code == 0
        assert envelopes[0]["cache_hit"] is False
        assert envelopes[1]["cache_hit"] is True

    def test_file_input_and_output(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        responses = tmp_path / "responses.jsonl"
        requests.write_text(
            '{"kind":"top_k","dataset":"GrQc","node":3,"k":2}\n'
            '{"kind":"single_pair","dataset":"GrQc","node_u":0,"node_v":1}\n',
            encoding="utf-8",
        )
        exit_code = main(
            ["batch", *FAST, "--input", str(requests), "--output", str(responses)]
        )
        assert exit_code == 0
        assert capsys.readouterr().out == ""  # everything went to the file
        lines = responses.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["ok"] for line in lines)


class TestBatchErrorEnvelopes:
    def test_bad_lines_yield_envelopes_and_nonzero_exit(self, capsys):
        exit_code, envelopes, err = run_batch(
            capsys,
            [
                "this is not json",
                '{"kind":"top_k","dataset":"NotADataset","node":3,"k":5}',
                '{"kind":"top_k","dataset":"GrQc","node":3,"k":5}',
                '{"kind":"top_k","dataset":"GrQc","node":99999999,"k":5}',
                '{"kind":"top_k","dataset":"GrQc","node":3,"k":-1}',
            ],
        )
        assert exit_code == 1
        assert [envelope["ok"] for envelope in envelopes] == [
            False, False, True, False, False,
        ]
        codes = [e["error"]["code"] for e in envelopes if not e["ok"]]
        assert codes == [
            "bad_request", "unknown_dataset", "node_out_of_range", "bad_request",
        ]
        assert "1/5 ok" in err and "4 error(s)" in err

    def test_no_traceback_on_garbage(self, capsys):
        exit_code, envelopes, err = run_batch(capsys, ["{{{{", "[1,2]", '"str"'])
        assert exit_code == 1
        assert len(envelopes) == 3
        assert all(not envelope["ok"] for envelope in envelopes)
        assert "Traceback" not in err

    def test_stats_flag_dumps_service_statistics(self, capsys):
        exit_code, _, err = run_batch(
            capsys,
            ['{"kind":"single_source","dataset":"GrQc","node":1}'],
            "--stats",
        )
        assert exit_code == 0
        assert '"totals"' in err


class TestBatchFiles:
    def test_missing_input_file_fails_cleanly(self, capsys):
        exit_code = main(["batch", *FAST, "--input", "/no/such/file.jsonl"])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "cannot read --input" in err
        assert "Traceback" not in err

    def test_unwritable_output_fails_cleanly(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"kind":"top_k","dataset":"GrQc","node":3,"k":2}\n')
        exit_code = main(
            ["batch", *FAST, "--input", str(requests),
             "--output", str(tmp_path / "missing-dir" / "out.jsonl")]
        )
        assert exit_code == 1
        assert "cannot write --output" in capsys.readouterr().err


class TestBatchLineNumbers:
    """Satellite: file input stamps decode failures with the bad line."""

    def test_malformed_file_lines_carry_their_line_number(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"kind":"top_k","dataset":"GrQc","node":1,"k":2}\n'
            "this is not json\n"
            "\n"
            '{"kind":"teleport"}\n'
            '{"kind":"top_k","dataset":"GrQc","node":2,"k":2}\n',
            encoding="utf-8",
        )
        output = tmp_path / "out.jsonl"
        exit_code = main(
            ["batch", *FAST, "--input", str(requests), "--output", str(output)]
        )
        assert exit_code == 1
        envelopes = [
            json.loads(line) for line in output.read_text().splitlines() if line
        ]
        assert [e["ok"] for e in envelopes] == [True, False, False, True]
        # Blank lines still count: the line numbers are positions in the
        # input file, so they point at the actual bad lines.
        assert envelopes[1]["error"]["detail"] == {"line": 2}
        assert envelopes[2]["error"]["detail"] == {"line": 4}

    def test_line_numbers_survive_workers(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"kind":"top_k","dataset":"GrQc","node":1,"k":2}\n{oops\n',
            encoding="utf-8",
        )
        output = tmp_path / "out.jsonl"
        exit_code = main(
            ["batch", *FAST, "--workers", "2",
             "--input", str(requests), "--output", str(output)]
        )
        assert exit_code == 1
        envelopes = [
            json.loads(line) for line in output.read_text().splitlines() if line
        ]
        assert envelopes[1]["error"]["detail"] == {"line": 2}

    def test_stdin_failures_carry_no_line_detail(self, capsys):
        _, envelopes, _ = run_batch(capsys, ["{broken"])
        assert "detail" not in envelopes[0]["error"]

    def test_execution_errors_carry_no_line_detail(self, capsys, tmp_path):
        # Only *decode* failures are malformed lines; a well-formed request
        # that fails to execute is not stamped.
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"kind":"top_k","dataset":"NotADataset","node":1,"k":2}\n',
            encoding="utf-8",
        )
        output = tmp_path / "out.jsonl"
        main(["batch", *FAST, "--input", str(requests), "--output", str(output)])
        (envelope,) = [
            json.loads(line) for line in output.read_text().splitlines() if line
        ]
        assert envelope["error"]["code"] == "unknown_dataset"
        assert "detail" not in envelope["error"]


class TestBatchParser:
    def test_batch_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["batch", "--backend", "FooBar"])


class TestBatchWorkers:
    """``--workers N`` must keep the sequential path's contract exactly."""

    LINES = [
        '{"kind":"top_k","dataset":"GrQc","node":%d,"k":4}' % (n % 9)
        for n in range(30)
    ] + [
        "{broken",
        '{"kind":"single_pair","dataset":"GrQc","node_u":1,"node_v":2}',
    ]

    def _strip(self, envelope):
        return {
            key: value
            for key, value in envelope.items()
            if key not in ("seconds", "cache_hit")
        }

    def test_parallel_output_matches_sequential(self, capsys):
        exit_seq, sequential, _ = run_batch(capsys, self.LINES)
        exit_par, parallel, err = run_batch(capsys, self.LINES, "--workers", "4")
        assert exit_seq == exit_par == 1  # the broken line fails either way
        assert len(parallel) == len(sequential) == len(self.LINES)
        assert [self._strip(e) for e in parallel] == [
            self._strip(e) for e in sequential
        ]
        assert "31/32 ok, 1 error(s)" in err

    def test_workers_with_file_io(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"kind":"top_k","dataset":"GrQc","node":1,"k":3}\n'
            '{"kind":"top_k","dataset":"GrQc","node":1,"k":3}\n'
        )
        output = tmp_path / "out.jsonl"
        exit_code = main(
            ["batch", *FAST, "--workers", "2",
             "--input", str(requests), "--output", str(output)]
        )
        assert exit_code == 0
        envelopes = [
            json.loads(line) for line in output.read_text().splitlines() if line
        ]
        assert len(envelopes) == 2
        assert envelopes[0]["value"] == envelopes[1]["value"]

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["batch", "--workers", "0"])


class TestBatchDeadlines:
    def test_queued_request_past_its_deadline_is_shed(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SLOW_MS", "400")
        exit_code, envelopes, _ = run_batch(
            capsys,
            [
                '{"kind":"single_pair","dataset":"GrQc","node_u":1,"node_v":2}',
                '{"kind":"single_pair","dataset":"GrQc","node_u":3,"node_v":4,'
                '"deadline_ms":50}',
            ],
        )
        assert exit_code == 1
        assert envelopes[0]["ok"] is True
        assert envelopes[1]["error"]["code"] == "deadline_exceeded"

"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

#: Common flags keeping every CLI invocation tiny and fast.
FAST = ["--scale", "0.05", "--epsilon", "0.1", "--mc-walks", "30"]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--datasets", "NotADataset"])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--methods", "Magic"])

    def test_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.datasets == list(("GrQc", "AS", "Wiki-Vote", "HepTh"))
        assert args.epsilon == 0.05

    def test_query_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--dataset", "GrQc"])


class TestRouterForwarding:
    def shared_dests(self) -> list[str]:
        """Every option ``router`` shares with ``serve``."""
        import argparse

        from repro.cli import _add_common_options, _add_service_options

        probe = argparse.ArgumentParser(add_help=False)
        _add_common_options(probe)
        _add_service_options(probe)
        return [action.dest for action in probe._actions]

    def test_worker_serve_args_round_trip_every_shared_option(self, tmp_path):
        from repro.cli import _worker_serve_args

        parser = build_parser()
        router = parser.parse_args([
            "router",
            "--scale", "0.07", "--epsilon", "0.2", "--seed", "5",
            "--mc-walks", "31", "--backend", "power",
            "--cache-size", "7",
            "--cache-budget", "11", "--pair-admit-after", "3",
            "--index-dir", str(tmp_path / "indexes"),
            "--wal-dir", str(tmp_path / "wal"),
            "--chunk-size", "13", "--worker-threads", "4",
        ])
        defaults = parser.parse_args(["router"])
        serve = parser.parse_args(["serve", *_worker_serve_args(router)])
        for dest in self.shared_dests():
            # A shared option this command line leaves at its default would
            # not prove anything; a new one must be added above.
            assert getattr(router, dest) != getattr(defaults, dest), dest
            assert getattr(serve, dest) == getattr(router, dest), dest
        assert serve.chunk_size == 13
        assert serve.workers == 4

    @pytest.mark.parametrize(
        "flag", ["--cache-ttl", "--degrade-pending", "--memory-budget-mb"]
    )
    def test_deleted_serving_flags_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", flag, "1"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_table3(self, capsys):
        assert main(["table3", *FAST]) == 0
        output = capsys.readouterr().out
        assert "GrQc" in output and "Indochina" in output

    def test_figure1(self, capsys):
        exit_code = main(
            ["figure1", *FAST, "--datasets", "GrQc", "--methods", "SLING", "--queries", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output and "SLING" in output

    def test_figure2(self, capsys):
        exit_code = main(
            ["figure2", *FAST, "--datasets", "GrQc", "--methods", "SLING", "--queries", "2"]
        )
        assert exit_code == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_figure3_and_4(self, capsys):
        assert main(["figure3", *FAST, "--datasets", "GrQc", "--methods", "SLING"]) == 0
        assert "Figure 3" in capsys.readouterr().out
        assert main(["figure4", *FAST, "--datasets", "GrQc", "--methods", "SLING"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_figure5_6_7(self, capsys):
        assert main(["figure5", *FAST, "--datasets", "GrQc", "--methods", "SLING"]) == 0
        assert "Figure 5" in capsys.readouterr().out
        assert main(["figure6", *FAST, "--datasets", "GrQc", "--methods", "SLING"]) == 0
        assert "Figure 6" in capsys.readouterr().out
        assert (
            main(["figure7", *FAST, "--datasets", "GrQc", "--methods", "SLING", "--k", "5"])
            == 0
        )
        assert "Figure 7" in capsys.readouterr().out

    def test_query_single_pair_and_top_k(self, capsys):
        exit_code = main(
            ["query", *FAST, "--dataset", "GrQc", "--source", "3", "--target", "5", "--top", "4"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "s(3, 5)" in output
        assert "top-4" in output

    def test_query_reports_engine_backend_and_statistics(self, capsys):
        exit_code = main(["query", *FAST, "--dataset", "GrQc", "--source", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "backend: sling" in output
        assert "engine:" in output

    def test_query_json_output(self, capsys):
        exit_code = main(
            [
                "query", *FAST, "--dataset", "GrQc",
                "--source", "3", "--target", "5", "--top", "4", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"] == "GrQc"
        assert payload["backend"] == "sling"
        assert "plan" not in payload
        assert payload["single_pair"]["source"] == 3
        assert 0.0 <= payload["single_pair"]["score"] <= 1.0
        assert len(payload["top_k"]) == 4
        assert payload["top_k"][0]["rank"] == 1
        assert payload["statistics"]["total_queries"] == 2

    def test_query_with_explicit_backend(self, capsys):
        exit_code = main(
            [
                "query", *FAST, "--dataset", "GrQc",
                "--source", "3", "--top", "2", "--backend", "power", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "power"
        assert payload["statistics"]["backend"] == "power"

    def test_query_disk_backend_by_name(self, capsys):
        exit_code = main(
            [
                "query", *FAST, "--dataset", "GrQc",
                "--source", "3", "--top", "2",
                "--backend", "sling-disk", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "sling-disk"

    def test_query_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--source", "1", "--backend", "FooBar"]
            )

    def test_query_supports_mc_sqrtc_method_in_figures(self, capsys):
        exit_code = main(
            ["figure1", *FAST, "--datasets", "GrQc", "--methods", "MC-sqrtc", "--queries", "5"]
        )
        assert exit_code == 0
        assert "MC-sqrtc" in capsys.readouterr().out


class TestWorkload:
    ARGS = ["workload", "--queries", "60", "--seed", "9", "--datasets", "GrQc"]

    def test_emits_wire_ready_jsonl_and_stderr_summary(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 60
        for index, line in enumerate(lines):
            payload = json.loads(line)
            assert payload["id"] == index
            assert payload["dataset"] == "GrQc"
            assert payload["kind"] in ("single_pair", "single_source", "top_k")
        # The stream goes to stdout; the shape summary must not pollute it.
        assert captured.err.startswith("workload: ")
        summary = json.loads(captured.err.removeprefix("workload: "))
        assert summary["num_queries"] == 60

    def test_same_flags_are_byte_identical(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first
        assert main(["workload", "--queries", "60", "--seed", "10"]) == 0
        assert capsys.readouterr().out != first

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "stream.jsonl"
        assert main([*self.ARGS, "--output", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # everything went to the file
        assert len(target.read_text().splitlines()) == 60

    def test_invalid_pattern_knobs_exit_2(self, capsys):
        code = main(
            ["workload", "--top-k-fraction", "0.9", "--source-fraction", "0.5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_workload_needs_no_accuracy_options(self):
        # The parser must not require epsilon/mc-walks for workload — the
        # command never computes a score (regression for the dispatch
        # ordering in main()).
        args = build_parser().parse_args(["workload"])
        assert not hasattr(args, "epsilon")

    def test_deadline_ms_stamps_every_emitted_envelope(self, capsys):
        assert main([*self.ARGS, "--deadline-ms", "250"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["deadline_ms"] == 250.0

    def test_no_deadline_omits_the_key(self, capsys):
        assert main(self.ARGS) == 0
        for line in capsys.readouterr().out.splitlines():
            assert "deadline_ms" not in json.loads(line)

    def test_chaos_profile_shapes_the_stream(self, capsys):
        assert main([*self.ARGS, "--chaos-profile", "mutation-storm"]) == 0
        kinds = {
            json.loads(line)["kind"]
            for line in capsys.readouterr().out.splitlines()
        }
        assert "mutate" in kinds

    def test_explicit_deadline_overrides_the_profile(self, capsys):
        # deadline-storm sets deadline_ms=250; an explicit flag must win.
        assert main(
            [*self.ARGS, "--chaos-profile", "deadline-storm",
             "--deadline-ms", "100"]
        ) == 0
        for line in capsys.readouterr().out.splitlines():
            assert json.loads(line)["deadline_ms"] == 100.0

    def test_unknown_chaos_profile_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, "--chaos-profile", "bogus"])
        assert excinfo.value.code == 2

    def test_non_positive_deadline_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, "--deadline-ms", "0"])
        assert excinfo.value.code == 2


class TestChaosCommand:
    def test_parser_accepts_the_drill_toggles(self):
        args = build_parser().parse_args(
            ["chaos", "--events", "5", "--seed", "3", "--no-kill",
             "--no-hostile", "--no-disk-full", "--no-slow-shard", "--no-wal"]
        )
        assert args.command == "chaos"
        assert args.events == 5
        assert args.no_kill and args.no_wal

    def test_invalid_profile_knobs_exit_2_before_any_drill(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--events", "0"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

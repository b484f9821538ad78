"""Integration tests that run the example scripts end to end.

The examples are part of the public deliverable, so they are executed as real
subprocesses (with tiny workloads) to make sure they keep working as the
library evolves.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


class TestExampleScripts:
    def test_examples_directory_contains_at_least_three_scripts(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3
        assert (EXAMPLES_DIR / "quickstart.py") in scripts

    def test_quickstart(self):
        result = run_example(
            "quickstart.py", "--nodes-per-community", "8", "--epsilon", "0.1"
        )
        assert result.returncode == 0, result.stderr
        assert "the guarantee holds" in result.stdout

    def test_citation_similarity(self):
        result = run_example(
            "citation_similarity.py", "--papers", "80", "--query", "40", "--top", "5"
        )
        assert result.returncode == 0, result.stderr
        assert "overlap with the exact top-5" in result.stdout

    def test_link_prediction(self):
        result = run_example(
            "link_prediction.py",
            "--communities",
            "3",
            "--community-size",
            "10",
            "--epsilon",
            "0.1",
        )
        assert result.returncode == 0, result.stderr
        assert "SimRank (SLING):" in result.stdout

    def test_traffic_replay(self):
        result = run_example(
            "traffic_replay.py",
            "--queries", "200",
            "--communities", "3",
            "--community-size", "8",
        )
        assert result.returncode == 0, result.stderr
        assert "traffic replay complete" in result.stdout
        assert "cache_size=64" in result.stdout

    def test_dynamic_graph(self):
        result = run_example(
            "dynamic_graph.py",
            "--queries", "120",
            "--communities", "3",
            "--community-size", "8",
        )
        assert result.returncode == 0, result.stderr
        assert "dynamic graph tour complete" in result.stdout
        assert "every post-mutation answer echoed the acked index_version" \
            in result.stdout
        assert "eps_stale=0.000" in result.stdout

    def test_client_quickstart(self):
        result = run_example("client_quickstart.py", "--scale", "0.05")
        assert result.returncode == 0, result.stderr
        assert "parity holds" in result.stdout

    def test_serving_quickstart(self):
        result = run_example("serving_quickstart.py", "--scale", "0.05")
        assert result.returncode == 0, result.stderr
        assert "serving tour complete" in result.stdout

    def test_accuracy_study(self):
        result = run_example(
            "accuracy_study.py", "--dataset", "GrQc", "--scale", "0.08", "--epsilon", "0.05"
        )
        assert result.returncode == 0, result.stderr
        assert "SLING" in result.stdout and "Linearize" in result.stdout

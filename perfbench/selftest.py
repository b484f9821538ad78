"""Self-tests of the benchmark.

Run from the checkout root (they are not collected by the repository's own
test suite)::

    python3 -m pytest -q perfbench/selftest.py

``test_smoke_*`` runs every workload in the seconds-long smoke profile, both
end-to-end and traced, and checks the result line carries exactly the
metrics ``BENCHMARK.json`` names, each with its unit.
"""

from __future__ import annotations

import json
import math
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
from harness import Tally  # noqa: E402
from repro.graphs import generators  # noqa: E402
from repro.service import (  # noqa: E402
    ERROR_OVERLOADED,
    QueryResult,
    SimRankClient,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
    encode_frame,
    encode_response,
)
from repro.sling import SlingIndex  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--profile", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, section):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == expected
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert math.isfinite(entry["value"]), name
        if section == "end_to_end":
            assert entry["value"] > 0, name


@pytest.fixture(scope="module")
def small_index():
    graph = generators.small_world(40, nearest_neighbors=4, rewire_probability=0.2, seed=1)
    return graph, SlingIndex(graph, epsilon=0.05, seed=0).build()


def _served(index):
    top = [
        {"rank": rank, "node": node, "score": score}
        for rank, (node, score) in enumerate(index.top_k(3, 5), start=1)
    ]
    return [
        (SinglePairQuery("g", 0, 1), index.single_pair(0, 1)),
        (SingleSourceQuery("g", 2), index.single_source(2).tolist()),
        (TopKQuery("g", 3, k=5), top),
    ]


def test_gate_accepts_served_answers_and_rejects_perturbed_ones(small_index):
    graph, index = small_index
    truth = gate.PowerTruth({"g": graph})
    served = _served(index)
    assert gate.breaches(served, truth, 0.05) == []

    (pair_q, pair_v), (source_q, source_v), (top_q, top_v) = served
    shifted = list(source_v)
    shifted[7] += 0.11
    dropped_best = top_v[1:] + [{"rank": 5, "node": 3, "score": 0.0}]
    perturbed = [
        (pair_q, pair_v + 0.11),
        (source_q, shifted),
        (top_q, dropped_best),
    ]
    for sample in perturbed:
        assert len(gate.breaches([sample], truth, 0.05)) == 1, sample[0].kind


def test_reference_gate_demands_the_same_answer(small_index):
    _, index = small_index
    truth = gate.ReferenceTruth(indexes={"g": index})
    (pair_q, pair_v), *_ = _served(index)
    assert gate.breaches([(pair_q, pair_v)], truth, 0.0) == []
    assert len(gate.breaches([(pair_q, pair_v + 1e-6)], truth, 0.0)) == 1


class _ScriptedServer:
    """A Unix-socket peer that greets, then answers request N with
    ``script[N]``: a frame line, or ``None`` to stay silent."""

    def __init__(self, path: Path, script: list) -> None:
        self.script = list(script)
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(str(path))
        self.listener.listen()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._talk, args=(conn,), daemon=True).start()

    def _talk(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rwb") as stream:
            stream.write(encode_frame({"v": 2, "frame": "hello", "protocol": 2}).encode() + b"\n")
            stream.flush()
            for line in stream:
                request_id = json.loads(line)["id"]
                reply = self.script.pop(0) if self.script else None
                if reply is None:
                    continue
                stream.write(encode_response(reply, id=request_id).encode() + b"\n")
                stream.flush()

    def close(self) -> None:
        self.listener.close()


class _RefusingClient:
    def execute(self, request):
        raise ConnectionRefusedError("connection refused")


def test_refused_overloaded_and_timed_out_requests_count_as_failures(tmp_path):
    query = SinglePairQuery("g", 0, 1)
    ok = QueryResult.success(
        kind="single_pair", dataset="g", value=0.5, backend="sling",
        plan=None, seconds=0.001, cache_hit=False,
    )
    overloaded = QueryResult.failure(
        ERROR_OVERLOADED, "server at capacity", kind="single_pair", dataset="g"
    )
    server = _ScriptedServer(tmp_path / "s.sock", [ok, overloaded, None])
    tally = Tally()
    try:
        client = SimRankClient(address=f"unix:{tmp_path / 's.sock'}", timeout=0.3)
        with client:
            results = [tally.run(client, query) for _ in range(3)]
    finally:
        server.close()
    tally.run(_RefusingClient(), query)

    assert [r.ok for r in results] == [True, False, False]
    assert tally.attempted == 4
    assert tally.failed == 3
    assert tally.errors == {
        "overloaded": 1, "timeout": 1, "ConnectionRefusedError": 1,
    }
    assert len(tally.latencies["single_pair"]) == 1

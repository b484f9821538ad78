#!/usr/bin/env python3
"""Perf-regression recorder: run the marked benchmarks, write ``BENCH_*.json``.

The figure-reproduction benchmarks print their payloads to stdout and leave
no trace, so the bench trajectory of this repository was empty — nothing for
a future PR to compare against.  This harness runs every benchmark in the
:data:`RECORDED_BENCHMARKS` registry (in smoke mode by default, so CI stays
fast) and writes each payload to ``BENCH_<name>.json`` at the repository
root.  Those files are committed: they are the recorded baseline.

Validation is structural, not temporal: the run **fails on malformed
output** — missing keys, non-finite or non-positive timings, failed parity
guards — but not on missed speed-up targets, because CI hardware is too
noisy to gate on absolute perf.  Pass ``--enforce-targets`` locally to also
fail when a benchmark's ``meets_targets`` entries are false.

Usage::

    PYTHONPATH=src python benchmarks/record.py            # smoke, write files
    PYTHONPATH=src python benchmarks/record.py --full     # full-scale run
    PYTHONPATH=src python benchmarks/record.py --check    # validate only
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import bench_cache_traffic
import bench_dynamic
import bench_resilience
import bench_serving
import bench_single_source

REPO_ROOT = Path(__file__).resolve().parent.parent

#: name -> runner plus the structural schema its payload must satisfy:
#: ``required_keys`` (top level), ``required_cells`` and the per-cell timing
#: ``cell_fields``, and ``required_true`` — guard booleans that must be
#: exactly ``True`` for the recorded numbers to be trustworthy.
RECORDED_BENCHMARKS = {
    "single_source": {
        "run": lambda smoke: bench_single_source.run_benchmark(
            **(
                {"scale": 0.05, "num_sources": 10, "repeats": 2}
                if smoke
                else {"repeats": 7}
            )
        ),
        "required_keys": (
            "benchmark",
            "dataset",
            "num_nodes",
            "num_hitting_entries",
            "cells",
            "speedups",
            "targets",
            "meets_targets",
            "parity_ok",
            "accuracy_ok",
            "topk_agreement_ok",
        ),
        "required_cells": ("single_source", "single_source_exact", "top_k_warm"),
        "cell_fields": ("baseline_seconds", "optimized_seconds", "speedup"),
        "required_true": ("parity_ok", "accuracy_ok", "topk_agreement_ok"),
    },
    "serving": {
        "run": lambda smoke: bench_serving.run_benchmark(
            **(bench_serving.SMOKE_OVERRIDES if smoke else {})
        ),
        "required_keys": (
            "benchmark",
            "datasets",
            "num_nodes",
            "num_queries",
            "cache_budget",
            "cells",
            "speedups",
            "targets",
            "meets_targets",
            "identical_values",
        ),
        "required_cells": ("workers_1", "workers_2", "workers_4"),
        "cell_fields": (
            "seconds",
            "queries_per_second",
            "overall_p50_ms",
            "overall_p99_ms",
        ),
        "required_true": ("identical_values",),
    },
    "cache_traffic": {
        "run": lambda smoke: bench_cache_traffic.run_benchmark(
            **(bench_cache_traffic.SMOKE_OVERRIDES if smoke else {})
        ),
        "required_keys": (
            "benchmark",
            "datasets",
            "num_nodes",
            "pattern",
            "workload",
            "num_queries",
            "cache_sizes",
            "cells",
            "speedups",
            "warm_hit_rate",
            "p99_improvement",
            "targets",
            "meets_targets",
            "identical_values",
            "router_identical_values",
            "hit_rate_ok",
            "p99_ok",
        ),
        "required_cells": (
            "cache_0",
            "cache_small",
            "cache_large",
            "router_workers_2",
        ),
        # hit_rate is intentionally not a cell field: it is legitimately
        # 0.0 in the cache_0 cell, and the > 0 check would reject it.
        "cell_fields": (
            "seconds",
            "queries_per_second",
            "p50_ms",
            "p99_ms",
            "cacheable_p99_ms",
        ),
        "required_true": (
            "identical_values",
            "router_identical_values",
            "hit_rate_ok",
            "p99_ok",
        ),
    },
    "dynamic": {
        "run": lambda smoke: bench_dynamic.run_benchmark(
            **(bench_dynamic.SMOKE_OVERRIDES if smoke else {})
        ),
        "required_keys": (
            "benchmark",
            "dataset",
            "num_nodes",
            "num_edges",
            "cells",
            "speedups",
            "targets",
            "meets_targets",
            "guards",
            "eps_stale_ok",
            "dirty_store_parity_ok",
            "rebuild_parity_ok",
            "version_echo_ok",
        ),
        "required_cells": ("incremental_update", "mutation_storm"),
        # The two cells measure different things (repair latency vs storm
        # throughput), so only the shared wall-clock field is schema-checked.
        "cell_fields": ("seconds",),
        "required_true": (
            "eps_stale_ok",
            "dirty_store_parity_ok",
            "rebuild_parity_ok",
            "version_echo_ok",
        ),
    },
    "resilience": {
        "run": lambda smoke: bench_resilience.run_benchmark(
            **(bench_resilience.SMOKE_OVERRIDES if smoke else {})
        ),
        "required_keys": (
            "benchmark",
            "dataset",
            "workers",
            "events",
            "cells",
            "p99_ratio",
            "targets",
            "meets_targets",
            "guards",
            "no_lost_mutations",
            "typed_errors_only",
            "no_hangs",
            "recovery_bounded",
        ),
        "required_cells": ("fault_free", "under_faults", "recovery"),
        # fault/fault-free cells carry latency percentiles; the recovery
        # cell measures an outage — only wall-clock is shared.
        "cell_fields": ("seconds",),
        "required_true": (
            "no_lost_mutations",
            "typed_errors_only",
            "no_hangs",
            "recovery_bounded",
        ),
    },
}


def validate_payload(name: str, payload: dict) -> list[str]:
    """Return a list of structural problems (empty when well formed)."""
    problems: list[str] = []
    spec = RECORDED_BENCHMARKS[name]
    if not isinstance(payload, dict):
        return [f"{name}: payload is not a JSON object"]
    for key in spec["required_keys"]:
        if key not in payload:
            problems.append(f"{name}: missing key {key!r}")
    cells = payload.get("cells", {})
    for cell_name in spec.get("required_cells", ()):
        cell = cells.get(cell_name)
        if not isinstance(cell, dict):
            problems.append(f"{name}: missing cell {cell_name!r}")
            continue
        for field in spec["cell_fields"]:
            value = cell.get(field)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(
                    f"{name}: cell {cell_name!r} field {field!r} is not finite"
                )
            elif field != "speedup" and value <= 0:
                problems.append(
                    f"{name}: cell {cell_name!r} field {field!r} must be > 0"
                )
    for guard in spec["required_true"]:
        if payload.get(guard) is not True:
            problems.append(
                f"{name}: {guard} is not true — results are untrustworthy"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true",
        help="run at full benchmark scale instead of smoke mode",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate the existing BENCH_*.json files without re-running",
    )
    parser.add_argument(
        "--enforce-targets", action="store_true",
        help="also fail when a benchmark misses its recorded speed-up targets",
    )
    parser.add_argument(
        "--output-dir", type=Path, default=REPO_ROOT,
        help="where BENCH_<name>.json files are written (default: repo root)",
    )
    parser.add_argument(
        "--only", choices=sorted(RECORDED_BENCHMARKS), default=None,
        help="run a single benchmark from the registry",
    )
    args = parser.parse_args(argv)

    names = [args.only] if args.only else sorted(RECORDED_BENCHMARKS)
    if not args.check:
        args.output_dir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    for name in names:
        output_path = args.output_dir / f"BENCH_{name}.json"
        if args.check:
            if not output_path.exists():
                problems.append(f"{name}: {output_path} does not exist")
                continue
            try:
                payload = json.loads(output_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                problems.append(f"{name}: {output_path} is not valid JSON: {exc}")
                continue
        else:
            print(f"running {name} ({'full' if args.full else 'smoke'}) ...",
                  file=sys.stderr)
            payload = RECORDED_BENCHMARKS[name]["run"](not args.full)
        found = validate_payload(name, payload)
        problems.extend(found)
        if args.enforce_targets:
            for target, met in payload.get("meets_targets", {}).items():
                if not met:
                    problems.append(
                        f"{name}: target {target!r} missed "
                        f"(speedup {payload['speedups'].get(target):.2f} < "
                        f"{payload['targets'].get(target)})"
                    )
        if not args.check and not found:
            output_path.write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {output_path}", file=sys.stderr)

    if problems:
        for problem in problems:
            print(f"MALFORMED: {problem}", file=sys.stderr)
        return 1
    print(f"{len(names)} benchmark payload(s) well formed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

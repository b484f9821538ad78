"""Configuration shared by every figure-reproduction benchmark.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — global multiplier on stand-in graph sizes
  (default 0.12; raise it for a slower, more faithful run).
* ``REPRO_BENCH_EPSILON`` — SLING / MC accuracy target used by the timing
  figures (default 0.1).  The accuracy figures always use the paper's 0.025.
"""

from __future__ import annotations

import os

from repro.engine import BackendConfig, latency_quantiles
from repro.graphs import datasets

#: Scale applied to every dataset stand-in (relative to DESIGN.md defaults).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))

#: Accuracy target used by the timing benchmarks (Figures 1-4).
BENCH_EPSILON = float(os.environ.get("REPRO_BENCH_EPSILON", "0.1"))

#: Accuracy target used by the accuracy benchmarks (Figures 5-7), matching the
#: paper's experimental setting.
ACCURACY_EPSILON = 0.025

#: Datasets used by the timing figures (all twelve, in Table-3 order).
ALL_DATASETS = tuple(datasets.dataset_names())

#: The four smallest datasets (accuracy figures) and two large stand-ins
#: (parallel / out-of-core figures), as in the paper.
SMALL_DATASETS = datasets.SMALL_DATASETS
LARGE_DATASETS = ("Google", "In-2004")

#: Monte-Carlo walk budget for the benchmarks (see DESIGN.md on why this is
#: far below the paper-exact budget).
MC_WALKS = 100

TIMING_CONFIG = BackendConfig(epsilon=BENCH_EPSILON, seed=0, mc_num_walks=MC_WALKS)
ACCURACY_CONFIG = BackendConfig(epsilon=ACCURACY_EPSILON, seed=0, mc_num_walks=400)


def latency_ms_by_kind(samples: list[tuple[str, float]]) -> dict[str, dict]:
    """Nearest-rank quantiles of ``(kind, seconds)`` client-side samples,
    per kind, in milliseconds (``count`` stays a count)."""
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    return {
        kind: {
            key: (value if key == "count" else 1e3 * value)
            for key, value in latency_quantiles(sample).items()
        }
        for kind, sample in sorted(by_kind.items())
    }

"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the end-to-end benchmark (:mod:`e2e`) and reports every
end-to-end metric; ``--trace 1`` runs the traced layer ladder
(:mod:`ladder`) and reports every per-layer metric.  The last line of
standard output is the result object; the line before it is a context
object (settings, CPU placement, host drift, per-kind request counts,
errors and gate breaches).  The exit code is 0 only when the correctness
gate passed.

``--profile smoke`` swaps in seconds-long miniatures of the workloads (see
:func:`workloads.smoke`); the self-test uses it to check that every metric
prints with its unit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from harness import RUN_ROOT, SRC, ReferenceServer, pin_to_one_cpu


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import e2e
    import ladder
    from workloads import GRAPH_SEED, SETUP_REPEATS, WORKLOADS, smoke

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setups = SETUP_REPEATS
    if args.profile == "smoke":
        workload, setups = smoke(workload), 1

    cpu = pin_to_one_cpu()
    try:
        reference = ReferenceServer()
        try:
            if args.trace:
                outcome = ladder.run(workload, args.seed, reference)
            else:
                outcome = e2e.run(workload, args.seed, args.seconds, reference, setups)
        finally:
            reference.close()
    finally:
        shutil.rmtree(RUN_ROOT, ignore_errors=True)

    context = {
        "workload": workload.name,
        "profile": args.profile,
        "seed": args.seed,
        "datasets": list(workload.datasets),
        "scale": workload.scale,
        "epsilon": workload.epsilon,
        "graph_seed": GRAPH_SEED,
        "cache_size": workload.cache_size,
        "worker_threads": workload.worker_threads,
        "cpu": cpu,
        **outcome.context,
    }
    print(json.dumps({"context": context}, default=str))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Backend routing: pick a query strategy from a memory budget.

The planner answers one question for callers that do not want to choose a
backend by hand: *given this graph and this much memory, which backend should
serve queries?*  The policy mirrors Section 5.4 of the paper:

* the in-memory SLING index is the default — near-optimal query time with a
  provable accuracy guarantee;
* when the estimated index footprint exceeds the memory budget but the ``8n``
  bytes of correction factors still fit, the disk-backed SLING variant is
  chosen (hitting sets stay on disk, O(1) I/O per query);
* when even that does not fit, the planner falls back to an index-free
  baseline: the exact power method on toy graphs, Monte-Carlo √c-walks
  otherwise.

:func:`create_engine` is the one-call entry point the CLI and the examples
use: plan, build the chosen backend, and wrap it in a
:class:`~repro.engine.engine.QueryEngine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..graphs import DiGraph
from ..sling import SlingParameters
from .backends import (
    BackendConfig,
    create_backend,
    resolve_backend_name,
)
from .engine import PAIR_AMORTIZE_THRESHOLD, QueryEngine

__all__ = [
    "QueryPlan",
    "estimate_sling_index_bytes",
    "plan_backend",
    "create_engine",
    "POWER_METHOD_MAX_NODES",
]

#: Above this many nodes the Θ(n²) power method stops being a sane fallback.
POWER_METHOD_MAX_NODES = 512

#: Bytes per stored hitting-probability entry in the packed index layout.
_HITTING_ENTRY_BYTES = 12

#: Bytes per correction factor (one float64 per node).
_CORRECTION_BYTES = 8


@dataclass(frozen=True)
class QueryPlan:
    """Outcome of a routing decision: which backend, and why."""

    backend: str
    reason: str
    estimated_index_bytes: int
    memory_budget_bytes: int | None = None

    def as_dict(self) -> dict:
        """Plain-dict form for JSON output."""
        return {
            "backend": self.backend,
            "reason": self.reason,
            "estimated_index_bytes": self.estimated_index_bytes,
            "memory_budget_bytes": self.memory_budget_bytes,
        }


def estimate_sling_index_bytes(
    graph: DiGraph, *, c: float = 0.6, epsilon: float = 0.025
) -> int:
    """Heuristic upper estimate of the in-memory SLING index footprint.

    The index stores ``n`` correction factors plus the hitting-probability
    sets, whose expected total size is ``O(n/ε)`` (Theorem 2).  The reverse
    push keeps entries with value at least θ, and the geometric decay of
    √c-walk mass bounds the surviving entries per node by roughly
    ``√c / ((1 - √c) · θ)``; on real graphs locality makes the sets much
    smaller, so this deliberately over-estimates — the planner only falls
    back to disk when memory is genuinely tight.
    """
    n = graph.num_nodes
    params = SlingParameters.from_accuracy_target(
        num_nodes=max(2, n), c=c, epsilon=epsilon
    )
    per_node = params.sqrt_c / ((1.0 - params.sqrt_c) * params.theta)
    # A node can never store more than one entry per (level, node) pair that
    # carries mass; cap by n · max-level to keep the estimate sane on tiny graphs.
    max_level = max(1, math.ceil(math.log(params.theta) / math.log(params.sqrt_c)))
    per_node = min(per_node, float(n) * max_level)
    return int(
        _CORRECTION_BYTES * n + _HITTING_ENTRY_BYTES * math.ceil(per_node) * n
    )


def plan_backend(
    graph: DiGraph,
    *,
    memory_budget_bytes: int | None = None,
    config: BackendConfig | None = None,
    prefer: str | None = None,
) -> QueryPlan:
    """Choose a backend for ``graph`` under an optional memory budget.

    Parameters
    ----------
    graph:
        The graph queries will run on.
    memory_budget_bytes:
        Upper bound on resident index size; ``None`` means unconstrained.
    config:
        Accuracy/seed knobs used for the footprint estimate.
    prefer:
        Explicit backend name or alias; short-circuits planning.
    """
    config = config or BackendConfig()
    if prefer is not None and prefer != "auto":
        name = resolve_backend_name(prefer)
        return QueryPlan(
            backend=name,
            reason=f"backend {name!r} explicitly requested",
            estimated_index_bytes=estimate_sling_index_bytes(
                graph, c=config.c, epsilon=config.epsilon
            ),
            memory_budget_bytes=memory_budget_bytes,
        )

    estimate = estimate_sling_index_bytes(graph, c=config.c, epsilon=config.epsilon)
    corrections = _CORRECTION_BYTES * graph.num_nodes

    if memory_budget_bytes is None or estimate <= memory_budget_bytes:
        return QueryPlan(
            backend="sling",
            reason=(
                "estimated index footprint "
                f"({estimate} B) fits the memory budget"
                if memory_budget_bytes is not None
                else "no memory budget given; in-memory SLING is the default"
            ),
            estimated_index_bytes=estimate,
            memory_budget_bytes=memory_budget_bytes,
        )
    if corrections <= memory_budget_bytes:
        return QueryPlan(
            backend="sling-disk",
            reason=(
                f"estimated index footprint ({estimate} B) exceeds the "
                f"budget ({memory_budget_bytes} B) but the {corrections} B "
                "of correction factors fit; keeping hitting sets on disk"
            ),
            estimated_index_bytes=estimate,
            memory_budget_bytes=memory_budget_bytes,
        )

    # Something must still answer queries; the fallback baselines have their
    # own (unchecked) footprints, so say explicitly that the budget is not
    # honoured rather than silently pretending it was.
    over_budget = (
        "; note the budget cannot hold even the correction factors and is "
        "not honoured by the fallback"
    )
    if graph.num_nodes <= POWER_METHOD_MAX_NODES:
        return QueryPlan(
            backend="power",
            reason=(
                "no SLING index available within constraints; the graph is "
                "small enough for the exact power method" + over_budget
            ),
            estimated_index_bytes=estimate,
            memory_budget_bytes=memory_budget_bytes,
        )
    return QueryPlan(
        backend="montecarlo_sqrtc",
        reason=(
            "no SLING index available within constraints; falling back to "
            "√c-walk Monte Carlo" + over_budget
        ),
        estimated_index_bytes=estimate,
        memory_budget_bytes=memory_budget_bytes,
    )


def create_engine(
    graph: DiGraph,
    *,
    backend: str = "auto",
    memory_budget_bytes: int | None = None,
    config: BackendConfig | None = None,
    cache_size: int = 128,
    pair_admission_threshold: int | None = PAIR_AMORTIZE_THRESHOLD,
) -> QueryEngine:
    """Plan, build, and wrap a backend in a ready-to-query engine.

    The chosen :class:`QueryPlan` is attached to the engine as ``engine.plan``;
    ``cache_size`` / ``pair_admission_threshold`` are
    forwarded to the engine's cache policy unchanged.
    """
    plan = plan_backend(
        graph,
        memory_budget_bytes=memory_budget_bytes,
        config=config,
        prefer=backend,
    )
    built = create_backend(plan.backend, graph, config)
    return QueryEngine(
        built,
        cache_size=cache_size,
        pair_admission_threshold=pair_admission_threshold,
        plan=plan,
    )

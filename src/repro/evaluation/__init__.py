"""Evaluation harness: ground truth, metrics, workloads, experiment drivers."""

from .ground_truth import GroundTruthCache, ground_truth_matrix
from .metrics import (
    GroupedErrors,
    grouped_errors,
    max_error,
    top_k_pairs,
    top_k_precision,
)
from .timing import Timer, TimingResult, time_callable
from .traffic import (
    TrafficEvent,
    TrafficPattern,
    events_to_jsonl,
    generate_traffic,
    replay_events,
    summarize_events,
    traffic_sources,
)
from .workloads import random_pairs, random_sources
from . import ablations, experiments, reporting

__all__ = [
    "GroundTruthCache",
    "ground_truth_matrix",
    "GroupedErrors",
    "grouped_errors",
    "max_error",
    "top_k_pairs",
    "top_k_precision",
    "Timer",
    "TimingResult",
    "time_callable",
    "random_pairs",
    "random_sources",
    "TrafficPattern",
    "TrafficEvent",
    "generate_traffic",
    "events_to_jsonl",
    "summarize_events",
    "traffic_sources",
    "replay_events",
    "ablations",
    "experiments",
    "reporting",
]

"""Plain-text rendering of experiment results.

The original paper presents its evaluation as log-scale bar charts; in a
terminal-only reproduction the equivalent artifact is an aligned text table
with one row per (dataset, method) point.  These helpers turn the dataclass
rows produced by :mod:`repro.evaluation.experiments` into such tables, and are
what the benchmark harness prints into ``bench_output.txt``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .experiments import (
    AccuracyRow,
    GroupedErrorRow,
    PreprocessingRow,
    QueryCostRow,
    SpaceRow,
    TopKRow,
)

__all__ = [
    "render_table",
    "render_query_costs",
    "render_preprocessing",
    "render_space",
    "render_accuracy",
    "render_grouped_errors",
    "render_top_k",
]


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a list of rows as an aligned, pipe-separated text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [format_row(list(headers)), "-+-".join("-" * width for width in widths)]
    lines.extend(format_row(row) for row in materialized)
    return "\n".join(lines)


def render_query_costs(rows: Iterable[QueryCostRow], *, title: str) -> str:
    """Figures 1-2: average query time (milliseconds) per dataset and method."""
    body = render_table(
        ["dataset", "method", "queries", "avg ms/query"],
        (
            (row.dataset, row.method, row.num_queries, f"{row.average_milliseconds:.3f}")
            for row in rows
        ),
    )
    return f"{title}\n{body}"


def render_preprocessing(rows: Iterable[PreprocessingRow]) -> str:
    """Figure 3: preprocessing time (seconds)."""
    body = render_table(
        ["dataset", "method", "seconds"],
        ((row.dataset, row.method, f"{row.seconds:.3f}") for row in rows),
    )
    return f"Figure 3: preprocessing cost\n{body}"


def render_space(rows: Iterable[SpaceRow]) -> str:
    """Figure 4: index size (MB)."""
    body = render_table(
        ["dataset", "method", "MB"],
        ((row.dataset, row.method, f"{row.megabytes:.3f}") for row in rows),
    )
    return f"Figure 4: space consumption\n{body}"


def render_accuracy(rows: Iterable[AccuracyRow]) -> str:
    """Figure 5: maximum error per run."""
    body = render_table(
        ["dataset", "method", "run", "max error"],
        (
            (row.dataset, row.method, row.run, f"{row.maximum_error:.6f}")
            for row in rows
        ),
    )
    return f"Figure 5: maximum all-pairs SimRank error\n{body}"


def render_grouped_errors(rows: Iterable[GroupedErrorRow]) -> str:
    """Figure 6: average error per SimRank group."""
    def fmt(value: float) -> str:
        return "n/a" if value != value else f"{value:.6f}"  # NaN check

    body = render_table(
        ["dataset", "method", "S1 [0.1,1]", "S2 [0.01,0.1)", "S3 (<0.01)"],
        (
            (row.dataset, row.method, fmt(row.groups.s1), fmt(row.groups.s2), fmt(row.groups.s3))
            for row in rows
        ),
    )
    return f"Figure 6: average SimRank error per score group\n{body}"


def render_top_k(rows: Iterable[TopKRow]) -> str:
    """Figure 7: top-k precision."""
    body = render_table(
        ["dataset", "method", "k", "precision"],
        ((row.dataset, row.method, row.k, f"{row.precision:.4f}") for row in rows),
    )
    return f"Figure 7: precision of top-k SimRank pairs\n{body}"

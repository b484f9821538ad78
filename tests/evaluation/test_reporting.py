"""Unit tests for the plain-text experiment reports."""

from __future__ import annotations

from repro.evaluation import reporting
from repro.evaluation.experiments import (
    AccuracyRow,
    GroupedErrorRow,
    PreprocessingRow,
    QueryCostRow,
    SpaceRow,
    TopKRow,
)
from repro.evaluation.metrics import GroupedErrors


class TestRenderTable:
    def test_columns_are_aligned(self):
        table = reporting.render_table(
            ["name", "value"], [["a", 1], ["long-name", 22]]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines if "|" in line)) == 1

    def test_header_present(self):
        table = reporting.render_table(["col"], [["x"]])
        assert table.splitlines()[0].strip() == "col"

    def test_empty_rows(self):
        table = reporting.render_table(["a", "b"], [])
        assert len(table.splitlines()) == 2


class TestFigureRenderers:
    def test_query_costs(self):
        rows = [QueryCostRow("GrQc", "SLING", 100, 0.123)]
        text = reporting.render_query_costs(rows, title="Figure 1")
        assert "Figure 1" in text
        assert "GrQc" in text and "SLING" in text and "0.123" in text

    def test_preprocessing(self):
        text = reporting.render_preprocessing([PreprocessingRow("AS", "MC", 1.5)])
        assert "Figure 3" in text and "1.500" in text

    def test_space(self):
        text = reporting.render_space([SpaceRow("AS", "SLING", 12.5)])
        assert "Figure 4" in text and "12.500" in text

    def test_accuracy(self):
        text = reporting.render_accuracy([AccuracyRow("AS", "SLING", 0, 0.0021)])
        assert "Figure 5" in text and "0.002100" in text

    def test_grouped_errors_handles_nan(self):
        groups = GroupedErrors(0.01, float("nan"), 0.001, 5, 0, 3)
        text = reporting.render_grouped_errors([GroupedErrorRow("AS", "MC", groups)])
        assert "Figure 6" in text and "n/a" in text

    def test_top_k(self):
        text = reporting.render_top_k([TopKRow("AS", "SLING", 400, 0.98)])
        assert "Figure 7" in text and "0.9800" in text

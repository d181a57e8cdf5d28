"""Tests for report rendering (tables, CSV, ranking)."""

import math

import pytest

from repro.experiments.report import (
    format_cell,
    format_sweep_table,
    ranking_summary,
    sweep_to_csv,
)
from repro.experiments.runner import (
    CellResult,
    InstanceOutcome,
    SweepResult,
)
from repro.methodology import small_high


def tiny_sweep():
    def cell(cost, fail=0):
        outs = [
            InstanceOutcome(i, cost, 2, None, 0.0) for i in range(2)
        ]
        outs += [
            InstanceOutcome(9, None, None, "placement", 0.0)
            for _ in range(fail)
        ]
        return CellResult(heuristic="h", outcomes=tuple(outs))

    cells = {
        (1.0, "a"): cell(100.0),
        (1.0, "b"): cell(150.0),
        (2.0, "a"): cell(200.0, fail=1),
        (2.0, "b"): CellResult(
            heuristic="b",
            outcomes=(InstanceOutcome(0, None, None, "placement", 0.0),),
        ),
    }
    return SweepResult(
        name="tiny", parameter="N", x_values=(1.0, 2.0),
        heuristics=("a", "b"), cells=cells,
        configs={1.0: small_high(), 2.0: small_high()},
    )


class TestFormatCell:
    def test_plain(self):
        assert format_cell(1234.0, 1.0).strip() == "1,234"

    def test_partial_failure_flag(self):
        assert format_cell(1234.0, 0.5).strip().endswith("*")

    def test_all_failed(self):
        assert "--" in format_cell(math.nan, 0.0)


class TestTables:
    def test_table_layout(self):
        text = format_sweep_table(tiny_sweep())
        assert "tiny" in text and "N" in text
        assert "100" in text and "150" in text
        assert "--" in text  # all-failed cell
        assert "*" in text  # partial-failure marker
        assert "(2/3)" in text

    def test_csv_export(self):
        csv = sweep_to_csv(tiny_sweep())
        lines = csv.strip().split("\n")
        assert lines[0].startswith("figure,parameter,x,heuristic")
        assert len(lines) == 1 + 4
        assert any("placement:1" in l for l in lines)

    def test_ranking_summary_orders_by_ratio(self):
        text = ranking_summary(tiny_sweep())
        # 'a' is always best → ratio 1.00, listed before 'b'
        pos_a = text.index(" a ")
        pos_b = text.index(" b ")
        assert pos_a < pos_b
        assert "1.00x" in text

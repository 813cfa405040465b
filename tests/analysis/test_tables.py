"""Tests for the table renderers."""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_cell, render_table


class TestFormatCell:
    def test_floats_get_three_decimals(self):
        assert format_cell(1.23456) == "1.235"
        assert format_cell(0) == "0"
        assert format_cell(12345.6) == "12,346"

    def test_bools_and_strings(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell("text") == "text"


class TestRenderTable:
    def test_alignment_and_borders(self):
        table = render_table(["name", "value"], [["alpha", 1], ["b", 23456]])
        lines = table.splitlines()
        assert lines[0].startswith("+-")
        assert "| name" in lines[1]
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # every line has the same width

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_numeric_cells_right_aligned(self):
        table = render_table(["n"], [[5], [12345]])
        data_lines = [line for line in table.splitlines() if line.startswith("|")][1:]
        assert data_lines[0].rstrip().endswith("5 |")


"""Plain-text table rendering for experiment reports.

The harnesses print the same rows/series the paper reports; this module
renders them as aligned monospace tables, so terminal output stays
readable without any plotting dependency.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def format_cell(value) -> str:
    """Format one table cell: floats get 3 significant decimals."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an ASCII table with one header row.

    Columns are sized to their widest cell; numeric-looking cells are
    right-aligned, text cells left-aligned.
    """
    formatted_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in formatted_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have as many cells as there are headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def is_numeric(text: str) -> bool:
        stripped = text.replace(",", "").replace("%", "").replace("-", "").replace(".", "")
        return stripped.isdigit() and text not in ("", "-")

    def render_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if is_numeric(cell):
                parts.append(cell.rjust(widths[index]))
            else:
                parts.append(cell.ljust(widths[index]))
        return "| " + " | ".join(parts) + " |"

    separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = [separator, render_row([str(h) for h in headers]), separator]
    for row in formatted_rows:
        lines.append(render_row(row))
    lines.append(separator)
    return "\n".join(lines)


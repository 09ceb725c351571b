"""Plain-text tables for experiment reports.

The benchmark harness prints the same rows/series the paper reports; this
tiny table formatter keeps that output readable both on a terminal and when
pasted into a GitHub-flavoured markdown document.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ExperimentError

__all__ = ["Table", "kv_table"]


def kv_table(items, title: str = "") -> "Table":
    """A two-column (metric, value) table from ``(key, value)`` pairs."""
    table = Table(["metric", "value"], title=title)
    for key, value in items:
        table.add_row(key, value)
    return table


class Table:
    """A simple column-aligned table with ASCII and Markdown rendering."""

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ExperimentError("a table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        self.rows: list[list[str]] = []

    # ------------------------------------------------------------------
    def add_row(self, *cells, **named_cells) -> None:
        """Add a row either positionally or by column name."""
        if cells and named_cells:
            raise ExperimentError("use positional or named cells, not both")
        if named_cells:
            missing = set(named_cells) - set(self.columns)
            if missing:
                raise ExperimentError(f"unknown columns {sorted(missing)}")
            cells = tuple(named_cells.get(col, "") for col in self.columns)
        if len(cells) != len(self.columns):
            raise ExperimentError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([self._format(c) for c in cells])

    @staticmethod
    def _format(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
        return str(value)

    # ------------------------------------------------------------------
    def _widths(self) -> list[int]:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def render(self) -> str:
        """ASCII rendering with a separator under the header."""
        widths = self._widths()
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown rendering."""
        lines = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[str]:
        """All cells of one column."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ExperimentError(f"unknown column {name!r}") from None
        return [row[idx] for row in self.rows]

"""Plain-text reporting: the rows and series the paper's figures show."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def format_ratio(numerator: float, denominator: float) -> str:
    """Render a speedup ratio like the paper's '3x-5x' comparisons."""
    if denominator <= 0:
        return "n/a"
    return f"{numerator / denominator:.1f}x"


@dataclass
class Table:
    """A fixed-column table (Tables 2-6 style)."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        cells = [[str(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells), 4)
            if cells
            else max(len(self.columns[i]), 4)
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())
        print()


@dataclass
class Series:
    """An (x, y) series — one line of a figure."""

    name: str
    points: list[tuple[Any, float]] = field(default_factory=list)

    def add(self, x: Any, y: float) -> None:
        self.points.append((x, y))


def render_figure(title: str, x_label: str, y_label: str,
                  series: list[Series]) -> str:
    """Render several series as aligned columns (one row per x value)."""
    xs: list[Any] = []
    for s in series:
        for x, _ in s.points:
            if x not in xs:
                xs.append(x)
    lookup = {s.name: dict(s.points) for s in series}
    table = Table(
        title=f"{title}  [{y_label} vs {x_label}]",
        columns=[x_label] + [s.name for s in series],
    )
    for x in xs:
        row: list[Any] = [x]
        for s in series:
            value = lookup[s.name].get(x)
            row.append(f"{value:.2f}" if value is not None else "-")
        table.add_row(*row)
    return table.render()

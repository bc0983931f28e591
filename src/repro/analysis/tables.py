"""Plain-text rendering of tables and figure series.

The benchmark harness prints, for every table and figure of the paper,
the same rows/series the paper reports.  Output is terminal-friendly:
aligned ASCII tables and a small log/linear-scale scatter chart so the
*shape* of each figure (optimum location, knees, crossovers) is visible
directly in the benchmark log without any plotting dependency.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.errors import ConfigurationError

__all__ = ["format_cell", "render_table", "ascii_chart"]

Cell = Union[str, int, float, None]


def format_cell(value: Cell) -> str:
    """Human-friendly formatting: scientific for tiny floats, fixed else."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude < 1e-3 or magnitude >= 1e6:
            return f"{value:.3e}"
        if magnitude >= 100:
            return f"{value:.1f}"
        return f"{value:.4g}"
    return str(value)


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[Cell]], title: Optional[str] = None
) -> str:
    """Render an aligned ASCII table with a header rule."""
    header_cells = [str(h) for h in headers]
    body = [[format_cell(cell) for cell in row] for row in rows]
    for row in body:
        if len(row) != len(header_cells):
            raise ConfigurationError(
                f"row width {len(row)} does not match header width {len(header_cells)}"
            )
    widths = [len(h) for h in header_cells]
    for row in body:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(header_cells))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in body)
    return "\n".join(parts)


def ascii_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 72,
    height: int = 18,
    log_y: bool = False,
    title: Optional[str] = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Scatter-plot named series on a character grid.

    Each series gets a marker (``*``, ``o``, ``+``, …).  ``log_y=True``
    plots on a log10 y-axis, which is how the paper's error-rate figures
    read best; zero/negative values are clamped to the smallest positive
    value present.
    """
    if width < 16 or height < 6:
        raise ConfigurationError("chart needs width >= 16 and height >= 6")
    markers = "*o+x#@%&"
    points_by_series = {
        name: [(float(x), float(y)) for x, y in points]
        for name, points in series.items()
        if points
    }
    if not points_by_series:
        return (title or "") + "\n(no data)"

    all_points = [p for pts in points_by_series.values() for p in pts]
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    if log_y:
        positive = [y for y in ys if y > 0]
        floor = min(positive) if positive else 1e-12
        ys = [max(y, floor) for y in ys]
        transform = lambda y: math.log10(max(y, floor))  # noqa: E731
    else:
        transform = lambda y: y  # noqa: E731

    x_min, x_max = min(xs), max(xs)
    ty = [transform(y) for y in ys]
    y_min, y_max = min(ty), max(ty)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(points_by_series.items()):
        marker = markers[index % len(markers)]
        for x, y in points:
            column = int(round((x - x_min) / x_span * (width - 1)))
            value = transform(max(y, 1e-300)) if log_y else y
            row = int(round((value - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][column] = marker

    top = f"{(10 ** y_max if log_y else y_max):.3g}"
    bottom = f"{(10 ** y_min if log_y else y_min):.3g}"
    gutter = max(len(top), len(bottom)) + 1
    lines: List[str] = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = top.rjust(gutter)
        elif row_index == height - 1:
            label = bottom.rjust(gutter)
        else:
            label = " " * gutter
        lines.append(f"{label}|{''.join(row)}")
    lines.append(" " * gutter + "+" + "-" * width)
    lines.append(
        " " * gutter
        + f" {x_min:.3g}".ljust(width // 2)
        + f"{x_label}".center(8)
        + f"{x_max:.3g}".rjust(width - width // 2 - 9)
    )
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {name}"
        for i, name in enumerate(points_by_series)
    )
    lines.append(" " * gutter + f" [{y_label}{', log' if log_y else ''}]  {legend}")
    return "\n".join(lines)

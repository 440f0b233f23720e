"""Plain-text tables and summary statistics shared by the experiment
drivers."""

from __future__ import annotations


def format_table(headers: list, rows: list, title: str = "") -> str:
    """Render rows as an aligned ASCII table."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def percentile(values, fraction: float) -> float:
    """The sorted ``values`` at index ``int(fraction * (n - 1))``; 0.0 when
    empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[int(fraction * (len(ordered) - 1))]

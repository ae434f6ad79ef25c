"""Plain-text table rendering for experiment output.

The benchmark harness prints the same rows the paper's tables report;
these helpers keep that output readable and consistent.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..errors import ConfigurationError


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.2f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an ASCII table with right-aligned numeric columns.

    >>> print(render_table(["a", "b"], [[1, 2.5]], title="demo"))
    demo
    a | b
    --+-----
    1 | 2.50
    """
    if not headers:
        raise ConfigurationError("table needs headers")
    cells: List[List[str]] = [[_fmt(value) for value in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(str(header)), *(len(row[i]) for row in cells)) if cells else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)

"""Standalone plot-script emission for sweep CSV files.

The tool itself never imports a plotting library; it writes a small Python
script that reads the CSV at run time and draws one log-rate trace per
series.  Series are taken from a ``detector`` or ``name`` column when the
CSV has one (merged multi-detector files), otherwise from restarts of the
first (axis) column.
"""

from __future__ import annotations

import csv
import io

from .errors import ScenarioParseError

RATE_COLUMNS = ("secure_deadtime_bps", "secure_bps", "sifted_bps")


def _split_series(header: list[str], rows: list[list[str]]) -> list[tuple[str, int, int]]:
    """Return (label, first_row, last_row_exclusive) spans of the data rows."""
    label_col = None
    for candidate in ("detector", "name"):
        if candidate in header:
            label_col = header.index(candidate)
            break
    spans: list[tuple[str, int, int]] = []
    if label_col is not None:
        start = 0
        for i in range(1, len(rows) + 1):
            if i == len(rows) or rows[i][label_col] != rows[start][label_col]:
                spans.append((rows[start][label_col], start, i))
                start = i
        return spans
    # No label column: a decrease in the axis column starts a new series.
    try:
        axis = [float(row[0]) for row in rows]
    except ValueError:
        raise ScenarioParseError(
            f"axis column '{header[0]}' holds a non-numeric value and there is no "
            "detector or name column to split series by"
        ) from None
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or axis[i] < axis[i - 1]:
            spans.append((f"series {len(spans) + 1}", start, i))
            start = i
    return spans


def render_plot_script(csv_path: str, csv_text: str) -> str:
    """Build the plotting script for one sweep CSV.

    Raises:
        ScenarioParseError: The CSV has no header, rows of uneven width, no
            rate column, or a non-numeric axis column and no series label.
    """
    reader = csv.reader(io.StringIO(csv_text))
    table = list(reader)
    if not table or not table[0]:
        raise ScenarioParseError(f"{csv_path}: empty file, expected a CSV header")
    header, rows = table[0], table[1:]
    if any(len(r) != len(header) for r in rows):
        raise ScenarioParseError(f"{csv_path}: rows do not match the header width")
    rate_cols = [c for c in RATE_COLUMNS if c in header]
    if not rate_cols:
        raise ScenarioParseError(
            f"{csv_path}: no rate columns found (expected one of {', '.join(RATE_COLUMNS)})"
        )

    spans = _split_series(header, rows)
    axis = header[0]
    lines = [
        "#!/usr/bin/env python3",
        "# Generated line-plot script; run it with matplotlib installed.",
        "import csv",
        "",
        "import matplotlib.pyplot as plt",
        "",
        f"CSV_PATH = {csv_path!r}",
        f"AXIS = {axis!r}",
        f"RATE_COLUMNS = {tuple(rate_cols)!r}",
        f"SERIES = {[(label, start, stop) for label, start, stop in spans]!r}",
    ]
    if not rows:
        lines.append("# warning: no data rows in the CSV, the plot will be empty")
    lines += [
        "",
        "with open(CSV_PATH, newline='') as fh:",
        "    table = list(csv.reader(fh))",
        "header, rows = table[0], table[1:]",
        "",
        "fig, ax = plt.subplots()",
        "for label, start, stop in SERIES:",
        "    chunk = rows[start:stop]",
        "    xs = [float(r[0]) for r in chunk]",
        "    for column in RATE_COLUMNS:",
        "        col = header.index(column)",
        "        pts = [(x, float(r[col])) for x, r in zip(xs, chunk) if float(r[col]) > 0.0]",
        "        if pts:",
        "            ax.plot([p[0] for p in pts], [p[1] for p in pts],",
        "                    label=f'{label}: {column}')",
        "ax.set_xlabel(AXIS)",
        "ax.set_ylabel('rate (bit/s)')",
        "ax.set_yscale('log')",
        "ax.legend()",
        "ax.grid(True, which='both', alpha=0.3)",
        "plt.tight_layout()",
        "plt.savefig(CSV_PATH + '.png', dpi=150)",
        "print('wrote', CSV_PATH + '.png')",
        "",
    ]
    return "\n".join(lines)

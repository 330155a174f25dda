"""Static SVG line charts with no plotting dependency.

Charts are simple polyline renderings with fixed geometry and formatting so
that identical data always produces identical bytes; no timestamps or
randomness enter the output. A long block is reduced for plotting only, by
M4 per pixel column (Jugel et al., "M4: A Visualization-Oriented Time Series
Data Aggregation", PVLDB 7(10), 2014): a chart keeps the rows that are the
first, the last, or some series' min or max within a pixel column, so it
draws the pixels of the full block while its size follows the plot width,
not the row count.
"""

from __future__ import annotations

import numpy as np

PALETTE = [
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
]

WIDTH = 860
HEIGHT = 520
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 44
MARGIN_BOTTOM = 56


def _fmt(x):
    return format(float(x), ".2f")


def _tick(x):
    return format(float(x), ".6g")


def _m4_rows(columns, ys):
    """The sorted, unique rows of ``ys`` that M4 keeps, given each row's pixel column.

    For every pixel column, the union over the series (columns of ``ys``) of
    the column's first and last row and the rows of each series' min and max.
    """
    by_column = np.argsort(columns, kind="stable")
    grouped = columns[by_column]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    ends = np.r_[starts[1:], len(grouped)] - 1
    keep = np.zeros(len(columns), dtype=bool)
    keep[by_column[starts]] = keep[by_column[ends]] = True
    for series in ys.T:
        by_value = np.lexsort((series, columns))  # by column, then value
        keep[by_value[starts]] = keep[by_value[ends]] = True
    return np.flatnonzero(keep)


def write_line_chart(path, title, xlabel, ylabel, xs, ys, labels):
    """Write one chart of the columns of ``ys``, shape ``(len(xs), len(labels))``, against ``xs``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != (len(xs), len(labels)):
        raise ValueError(f"ys has shape {ys.shape}, expected {(len(xs), len(labels))}: one column per label")
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    x_min, x_max = float(xs.min()), float(xs.max())
    if x_max == x_min:
        x_max = x_min + 1.0
    y_min, y_max = float(ys.min()), float(ys.max())
    if y_max == y_min:
        y_min -= 1.0
        y_max += 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    def px(x):
        return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )
    # axes
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        xp = px(xv)
        yp = py(yv)
        out.append(
            f'<line x1="{_fmt(xp)}" y1="{MARGIN_TOP + plot_h}" x2="{_fmt(xp)}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_fmt(xp)}" y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick(xv)}</text>'
        )
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(yp)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(yp)}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(yp + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick(yv)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">{ylabel}</text>'
    )

    # each row's pixel column; the plot's right edge belongs to its last column
    columns = np.minimum(((xs - x_min) / (x_max - x_min) * plot_w).astype(np.intp), plot_w - 1)
    rows = _m4_rows(columns, ys)
    xs, ys = xs[rows], ys[rows]
    # px and py broadcast over arrays with the same IEEE operations per point;
    # the x coordinates, shared by every series, are baked into one template
    points = " ".join(map("%.2f,%%.2f".__mod__, px(xs).tolist()))
    for idx, pys in enumerate(py(ys).T):
        color = PALETTE[idx % len(PALETTE)]
        series = points % tuple(pys.tolist())
        out.append(f'<polyline points="{series}" fill="none" stroke="{color}" stroke-width="1.4"/>')

    if len(labels) <= 10:
        for idx, label in enumerate(labels):
            color = PALETTE[idx % len(PALETTE)]
            ly = MARGIN_TOP + 14 + 16 * idx
            lx = WIDTH - MARGIN_RIGHT - 130
            out.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(
                f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )

    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")

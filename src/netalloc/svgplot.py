"""Static SVG line charts with no plotting dependency.

Charts are simple polyline renderings with fixed geometry and formatting so
that identical data always produces identical bytes; no timestamps or
randomness enter the output. Long series are downsampled evenly for plotting
only.
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
MAX_POINTS = 2000


def _fmt(x):
    return format(float(x), ".2f")


def _tick(x):
    return format(float(x), ".6g")


def _downsample(xs, ys):
    if len(xs) <= MAX_POINTS:
        return xs, ys
    idx = np.linspace(0, len(xs) - 1, MAX_POINTS).round().astype(int)
    return xs[idx], ys[idx]


def write_line_chart(path, title, xlabel, ylabel, xs, series):
    """Write one chart; ``series`` is a list of ``(label, ys)`` sharing ``xs``."""
    xs = np.asarray(xs, dtype=float)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    x_min, x_max = float(xs.min()), float(xs.max())
    if x_max == x_min:
        x_max = x_min + 1.0
    y_min = min(float(np.asarray(ys).min()) for _, ys in series)
    y_max = max(float(np.asarray(ys).max()) for _, ys in series)
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

    for idx, (label, ys) in enumerate(series):
        ys = np.asarray(ys, dtype=float)
        sx, sy = _downsample(xs, ys)
        color = PALETTE[idx % len(PALETTE)]
        # px and py broadcast over arrays with the same IEEE operations per point
        points = " ".join(map("%.2f,%.2f".__mod__, zip(px(sx).tolist(), py(sy).tolist())))
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.4"/>'
        )

    if len(series) <= 10:
        for idx, (label, _) in enumerate(series):
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

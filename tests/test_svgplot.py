"""SVG line charts: the input block and its shape, the M4 row pick, the chart size."""

import re
from collections import defaultdict

import numpy as np
import pytest

from netalloc import RecipSqrt, RunTrace
from netalloc.cli import _write_plots
from netalloc.svgplot import MARGIN_LEFT, MARGIN_RIGHT, WIDTH, _m4_rows, write_line_chart
from conftest import SUITE_SEED

PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT  # 764 pixel columns


@pytest.mark.parametrize("shape", [(5,), (5, 3), (4, 2), (2, 5)])
def test_rejects_a_block_that_is_not_points_by_series(tmp_path, shape):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError, match=r"^ys has shape .*, expected \(5, 2\): one column per label$"):
        write_line_chart(path, "t", "x", "y", np.arange(5), np.zeros(shape), ["a", "b"])
    assert not path.exists()


def test_one_polyline_per_column(tmp_path):
    path = tmp_path / "chart.svg"
    ys = np.column_stack([np.arange(5.0), -np.arange(5.0), np.ones(5)])
    write_line_chart(path, "t", "x", "y", np.arange(5), ys, ["a", "b", "c"])
    text = path.read_text()
    assert text.count("<polyline ") == 3
    # y spans [-4, 4] padded by 5 %, so the first column rises from the plot's middle
    assert 'points="72.00,254.00 263.00,206.27' in text


def pixel_columns(rows):
    """The pixel column of each row of ``xs = 0, 1, ..., rows - 1``, one row at a time."""
    span = max(rows - 1, 1)
    return [min(int(k / span * PLOT_W), PLOT_W - 1) for k in range(rows)]


def block(rng, rows, kind):
    """A ``(rows, 3)`` block of one kind of series."""
    if kind == "random":
        return rng.standard_normal((rows, 3))
    if kind == "ties":  # few distinct values, so each column's extremes repeat
        return rng.integers(0, 3, (rows, 3)).astype(float)
    if kind == "constant":
        return np.full((rows, 3), 2.5)
    # single-row spikes, up and down, on a random walk
    ys = np.cumsum(rng.standard_normal((rows, 3)), axis=0)
    spots = rng.integers(0, rows, (8, 3))
    for j in range(3):
        ys[spots[:, j], j] += rng.choice([-1e6, 1e6], 8)
    return ys


@pytest.mark.parametrize("kind", ["random", "ties", "constant", "spikes"])
@pytest.mark.parametrize("rows", [1, 2, 500, 763, 764, 765, 1528, 5001, 20001])
def test_m4_keeps_each_columns_endpoints_and_extremes(rows, kind):
    rng = np.random.default_rng([SUITE_SEED, rows, len(kind)])  # private stream
    ys = block(rng, rows, kind)
    columns = pixel_columns(rows)
    kept = _m4_rows(np.array(columns), ys).tolist()
    assert kept == sorted(set(kept))
    kept_set = set(kept)
    groups = defaultdict(list)
    for r, c in enumerate(columns):
        groups[c].append(r)
    all_series = ys.T.tolist()
    for members in groups.values():
        assert members[0] in kept_set and members[-1] in kept_set
        kept_members = [r for r in members if r in kept_set]
        for series in all_series:
            assert min(series[r] for r in kept_members) == min(series[r] for r in members)
            assert max(series[r] for r in kept_members) == max(series[r] for r in members)


def polyline_points(text):
    return [points.split(" ") for points in re.findall(r'<polyline points="([^"]*)"', text)]


@pytest.mark.parametrize("rows", [2, 763, 764])
def test_no_row_dropped_up_to_the_plot_width(tmp_path, rows):
    path = tmp_path / "chart.svg"
    write_line_chart(path, "t", "x", "y", np.arange(rows), np.arange(rows * 2.0).reshape(rows, 2), ["a", "b"])
    assert [len(p) for p in polyline_points(path.read_text())] == [rows, rows]


def test_a_one_row_spike_is_drawn(tmp_path):
    path = tmp_path / "chart.svg"
    ys = np.zeros((20001, 1))
    ys[12345] = 1.0
    write_line_chart(path, "t", "x", "y", np.arange(20001), ys, ["a"])
    (points,) = polyline_points(path.read_text())
    # y spans [0, 1] padded by 5 %: the spike's top is 1/22 of 420 px below the plot's top
    assert sum(p.endswith(",63.09") for p in points) == 1
    assert len(points) <= 4 * PLOT_W


@pytest.mark.parametrize("rounds, n", [(20001, 5), (2001, 1000)])
def test_plots_stay_small_whatever_n_and_rounds(tmp_path, rounds, n):
    rng = np.random.default_rng([SUITE_SEED, rounds, n])  # private stream
    x = rng.standard_normal((rounds, n))
    _write_plots(tmp_path, RunTrace(problems=(), b=np.zeros(n), schedule=RecipSqrt(), x=x, lam=x, v=x))
    for name in ("alloc.svg", "multipliers.svg", "residual.svg"):
        assert (tmp_path / name).stat().st_size < 300_000, name

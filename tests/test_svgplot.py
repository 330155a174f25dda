"""SVG line charts: the input block and its shape."""

import numpy as np
import pytest

from netalloc.svgplot import write_line_chart


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

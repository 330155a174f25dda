"""The writers' split into row blocks: the reference bytes, nothing left behind.

A table is formatted in the calling process, one block of about
``CSV_BLOCK_CELLS`` cells at a time (see :func:`netalloc.simulator._write_csv`).
Each test lowers ``CSV_BLOCK_CELLS`` to split a table into ``count + 1`` row
blocks, or fewer, and checks that the bytes are those of the reference writer,
that the writer starts no process and keeps its CPU affinity, and that the
output directory holds nothing but the CSVs afterwards. Some test names still
say "helpers", for the processes that once formatted such row ranges.
"""

import os
import subprocess

import numpy as np
import pytest

from netalloc import RunTrace, RecipSqrt, simulator
from test_csv_writers import SummaryColumns, reference_to_csv, values


def trace_of(rows, n, dense=True):
    x, lam, v = values(rows, n, dense)
    return RunTrace(problems=(), b=np.zeros(n), schedule=RecipSqrt(), x=x, lam=lam, v=v)


@pytest.fixture
def no_process(monkeypatch):
    """Fail the test if the writer starts a process or changes CPU affinity."""

    def refuse(*args, **kwargs):
        raise AssertionError("the writer started a process or changed CPU affinity")

    for module, name in [(os, "posix_spawn"), (os, "fork"), (os, "sched_setaffinity"), (subprocess, "Popen")]:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, refuse)


def split(monkeypatch, count, rows, width):
    """Write tables of ``rows`` rows in blocks of ``ceil(rows / (count + 1))``
    rows; return the list that records each block's ``(r0, r1)``."""
    step = -(-rows // (count + 1))
    monkeypatch.setattr(simulator, "CSV_BLOCK_CELLS", step * width)
    blocks = []
    row_blocks = simulator._row_blocks

    def recording(rows, width):
        for block in row_blocks(rows, width):
            blocks.append(block)
            yield block

    monkeypatch.setattr(simulator, "_row_blocks", recording)
    return blocks


def tiles(blocks, rows):
    """Whether ``blocks`` are contiguous row ranges covering ``[0, rows)``."""
    ends = [0] + [r1 for _, r1 in blocks]
    return [r0 for r0, _ in blocks] == ends[:-1] and ends[-1] == rows


# (rows, n): one row per block at three helpers, blocks of 1 and 2 rows,
# a short last block, and tables larger than one default block (1365 rounds
# a block at n = 3, 13 at n = 300)
SHAPES = [(2, 3), (4, 3), (7, 5), (2731, 3), (27, 300)]


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("rows, n", SHAPES)
def test_helpers_give_in_process_bytes(tmp_path, monkeypatch, no_process, count, rows, n):
    trace = trace_of(rows, n)
    trace.to_csv(tmp_path / "expected.csv")
    expected = (tmp_path / "expected.csv").read_bytes()
    reference_to_csv(trace, tmp_path / "reference.csv")
    assert expected == (tmp_path / "reference.csv").read_bytes()
    blocks = split(monkeypatch, count, rows, n)
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == expected
    assert tiles(blocks, rows) and len(blocks) > 1
    assert sorted(os.listdir(tmp_path)) == ["expected.csv", "reference.csv", "trace.csv"]


def test_one_row_starts_no_helper(tmp_path, monkeypatch, no_process):
    trace = trace_of(1, 3)
    reference_to_csv(trace, tmp_path / "expected.csv")
    blocks = split(monkeypatch, 3, 1, 3)
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert blocks == [(0, 1)]


@pytest.mark.parametrize("count", [1, 3])
def test_summary_through_helpers(tmp_path, monkeypatch, no_process, count):
    summary = SummaryColumns(np.zeros((2731, 2)), values(2731, 1, True)[:, :, 0])
    summary.summary_to_csv(tmp_path / "expected.csv")
    blocks = split(monkeypatch, count, 2731, 1)
    summary.summary_to_csv(tmp_path / "summary.csv")
    assert (tmp_path / "summary.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert tiles(blocks, 2731) and len(blocks) == count + 1
    assert sorted(os.listdir(tmp_path)) == ["expected.csv", "summary.csv"]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_formatting_error_leaves_header_and_first_block(tmp_path, monkeypatch, no_process, error):
    # the formatter, called once per block, fails on the second of three
    # blocks: the error reaches the caller, the file holds the header and the
    # first block, and no other file is left
    out = tmp_path / "out"
    out.mkdir()
    trace = trace_of(2731, 3)
    reference_to_csv(trace, tmp_path / "expected.csv")
    formatter = simulator.G17
    calls = []

    def failing():
        digits = formatter()

        def call(v):
            calls.append(v.size)
            if len(calls) > 1:
                raise error("formatting failed")
            return digits(v)

        return call

    monkeypatch.setattr(simulator, "G17", failing)
    with pytest.raises(error, match="formatting failed"):
        trace.to_csv(out / "trace.csv")
    assert calls == [1365 * 3 * 3] * 2  # a block's cells of all three columns
    assert os.listdir(out) == ["trace.csv"]
    written = (out / "trace.csv").read_bytes()
    expected = (tmp_path / "expected.csv").read_bytes()
    assert expected.startswith(written) and written.count(b"\n") == 1 + 1365 * 3


def test_small_trace_starts_no_process(tmp_path, no_process):
    # tables on either side of 2**16 cells are formatted in this process, on
    # the CPUs it was given
    for rows in (13107, 13108):  # 65,535 and 65,540 cells
        trace = trace_of(rows, 5)
        trace.to_csv(tmp_path / "trace.csv")
        reference_to_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["reference.csv", "trace.csv"]

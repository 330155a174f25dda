"""The writers' split across helper processes: the in-process bytes, nothing left behind.

A table of at least ``SPLIT_CELLS`` cells is formatted by helper processes
and the caller, each over a contiguous range of rows (see
:func:`netalloc.simulator._write_csv`). Every test here checks that the bytes
are those of the in-process writer (no helper), that every helper started is
reaped, and that the output directory holds nothing but the CSVs afterwards.
"""

import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from netalloc import RunTrace, RecipSqrt, simulator
from test_csv_writers import SummaryColumns, reference_to_csv, values


def trace_of(rows, n, dense=True):
    x, lam, v = values(rows, n, dense)
    return RunTrace(problems=(), b=np.zeros(n), schedule=RecipSqrt(), x=x, lam=lam, v=v)


@pytest.fixture
def spawned(monkeypatch):
    """The pids of every helper started, through the real ``os.posix_spawn``."""
    pids = []
    spawn = os.posix_spawn

    def recording(*args, **kwargs):
        pids.append(spawn(*args, **kwargs))
        return pids[-1]

    monkeypatch.setattr(os, "posix_spawn", recording)
    return pids


def helpers(monkeypatch, count):
    monkeypatch.setattr(simulator, "_helper_count", lambda cells: count)


def in_process_bytes(trace, path, monkeypatch):
    helpers(monkeypatch, 0)
    trace.to_csv(path)
    return path.read_bytes()


def script(tmp_path, body):
    """An executable shell script standing in for the Python that runs a helper.

    A helper is started as ``PYTHON -I -S _csvtext.py ...``; its part of the
    CSV is what it writes to standard output.
    """
    path = tmp_path / "bin" / "python"
    path.parent.mkdir()
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def reaped(pid):
    """Whether ``pid`` is no longer a child of this process, running or not."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# (rows, n): one row per range at three helpers, ranges of 1 and 2 rows,
# uneven ranges, and ranges that do not end on a block (1365 rounds at n = 3,
# 13 at n = 300)
SHAPES = [(2, 3), (4, 3), (7, 5), (2731, 3), (27, 300)]


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("rows, n", SHAPES)
def test_helpers_give_in_process_bytes(tmp_path, monkeypatch, spawned, count, rows, n):
    trace = trace_of(rows, n)
    expected = in_process_bytes(trace, tmp_path / "expected.csv", monkeypatch)
    reference_to_csv(trace, tmp_path / "reference.csv")
    assert expected == (tmp_path / "reference.csv").read_bytes()
    helpers(monkeypatch, count)
    allowed = os.sched_getaffinity(0)
    trace.to_csv(tmp_path / "trace.csv")
    assert os.sched_getaffinity(0) == allowed
    assert (tmp_path / "trace.csv").read_bytes() == expected
    assert len(spawned) == min(count, rows - 1) and all(map(reaped, spawned))
    assert sorted(os.listdir(tmp_path)) == ["expected.csv", "reference.csv", "trace.csv"]


def test_one_row_starts_no_helper(tmp_path, monkeypatch, spawned):
    trace = trace_of(1, 3)
    expected = in_process_bytes(trace, tmp_path / "expected.csv", monkeypatch)
    helpers(monkeypatch, 3)
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == expected
    assert spawned == []


@pytest.mark.parametrize("count", [1, 3])
def test_summary_through_helpers(tmp_path, monkeypatch, count):
    summary = SummaryColumns(np.zeros((2731, 2)), values(2731, 1, True)[:, :, 0])
    helpers(monkeypatch, 0)
    summary.summary_to_csv(tmp_path / "expected.csv")
    helpers(monkeypatch, count)
    summary.summary_to_csv(tmp_path / "summary.csv")
    assert (tmp_path / "summary.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["expected.csv", "summary.csv"]


@pytest.mark.parametrize("executable", ["", "missing/python"])
def test_helper_that_cannot_start(tmp_path, monkeypatch, executable):
    out = tmp_path / "out"
    out.mkdir()
    trace = trace_of(2731, 3)
    expected = in_process_bytes(trace, tmp_path / "expected.csv", monkeypatch)
    monkeypatch.setattr(simulator.sys, "executable", executable and str(tmp_path / executable))
    helpers(monkeypatch, 2)
    trace.to_csv(out / "trace.csv")
    assert (out / "trace.csv").read_bytes() == expected
    assert os.listdir(out) == ["trace.csv"]


def test_helper_that_exits_nonzero(tmp_path, monkeypatch, spawned):
    # each helper writes a wrong part, then fails: its rows are formatted by
    # the caller, and the part is dropped
    out = tmp_path / "out"
    out.mkdir()
    trace = trace_of(2731, 3)
    expected = in_process_bytes(trace, tmp_path / "expected.csv", monkeypatch)
    monkeypatch.setattr(simulator.sys, "executable", script(tmp_path, "echo wrong; exit 3"))
    helpers(monkeypatch, 3)
    trace.to_csv(out / "trace.csv")
    assert len(spawned) == 3 and all(map(reaped, spawned))
    assert (out / "trace.csv").read_bytes() == expected
    assert os.listdir(out) == ["trace.csv"]


def test_helper_without_a_script_file(tmp_path, monkeypatch, spawned):
    # a module that is not a real file (say, imported from a zip) starts none
    trace = trace_of(2731, 3)
    expected = in_process_bytes(trace, tmp_path / "expected.csv", monkeypatch)
    monkeypatch.setattr(simulator._csvtext, "__file__", str(tmp_path / "netalloc.zip" / "_csvtext.py"))
    helpers(monkeypatch, 1)
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == expected
    assert spawned == []


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_error_in_caller_reaps_helpers_and_removes_files(tmp_path, monkeypatch, spawned, error):
    # helpers that would run for a minute are killed and reaped at once
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(simulator.sys, "executable", script(tmp_path, "exec sleep 60"))

    def fail(*args):
        raise error("formatting failed")

    monkeypatch.setattr(simulator, "_format_rows", fail)
    helpers(monkeypatch, 3)
    allowed = os.sched_getaffinity(0)
    t0 = time.monotonic()
    with pytest.raises(error, match="formatting failed"):
        trace_of(2731, 3).to_csv(out / "trace.csv")
    assert time.monotonic() - t0 < 30
    assert os.sched_getaffinity(0) == allowed
    assert len(spawned) == 3 and all(map(reaped, spawned))
    assert os.listdir(out) == ["trace.csv"]


@pytest.mark.parametrize("parent_alive", [True, False])
def test_helper_script_stops_when_its_parent_is_gone(tmp_path, monkeypatch, parent_alive):
    # the helper as a script: rows from standard input to standard output,
    # and nothing once the process that started it is no longer its parent
    trace = trace_of(2731, 3)
    header = b"k,node,x,lambda,v\n"
    expected = in_process_bytes(trace, tmp_path / "expected.csv", monkeypatch)[len(header) :]
    template = b"".join(simulator._TRACE_CELL % i for i in range(3))
    with open(tmp_path / "in.f64", "wb") as fh:
        fh.write(template)
        for col in (trace.x, trace.lam, trace.v):
            col.tofile(fh)
    parent = os.getpid() if parent_alive else -1
    args = [parent, len(template), 0, 2731, 3, 3]
    with open(tmp_path / "in.f64", "rb") as stdin, open(tmp_path / "out.csv", "wb") as stdout:
        argv = [sys.executable, "-I", "-S", simulator._csvtext.__file__, *map(str, args)]
        code = subprocess.run(argv, stdin=stdin, stdout=stdout, timeout=120).returncode
    assert code == (0 if parent_alive else 1)
    assert (tmp_path / "out.csv").read_bytes() == (expected if parent_alive else b"")


def test_helper_count_follows_cells_and_cpus(monkeypatch):
    for cpus, count in [(1, 0), (2, 1), (3, 2), (4, 3), (64, 3)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert simulator._helper_count(simulator.SPLIT_CELLS) == count
        assert simulator._helper_count(simulator.SPLIT_CELLS - 1) == 0


def test_small_trace_starts_no_process(tmp_path, monkeypatch, spawned):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    trace = trace_of(13107, 5, dense=False)  # 65,535 cells, one under the threshold
    trace.to_csv(tmp_path / "trace.csv")
    assert spawned == []
    trace_of(13108, 5, dense=False).to_csv(tmp_path / "trace.csv")
    assert len(spawned) == 3

"""Bitwise tests of the trace and summary writers against per-row reference writers.

``RunTrace.to_csv`` and ``summary_to_csv`` format each block of rounds with
one bytes template per round. ``reference_to_csv`` and
``reference_summary_to_csv`` below are the text ``%``-template writers they
replaced, kept verbatim apart from being functions; every trace must give the
same bytes through both.
"""

import numpy as np
import pytest

from netalloc import RecipSqrt, RunTrace
from netalloc.simulator import _row_blocks
from conftest import SUITE_SEED

_TRACE_ROW = "%d,%d,%.17g,%.17g,%.17g\n"
_SUMMARY_ROW = "%d,%.17g,%.17g,%.17g\n"

SPECIALS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    2.2250738585072009e-308,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    float("nan"),
    float("inf"),
    float("-inf"),
    0.1,
    -1 / 3,
    1e16,
    123456789.0,
]


def reference_to_csv(self, path):
    n = self.n
    nodes = list(range(n))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,node,x,lambda,v\n")
        for k0, k1 in _row_blocks(self.x.shape[0], n):
            cells = zip(
                np.repeat(np.arange(k0, k1), n).tolist(),
                nodes * (k1 - k0),
                self.x[k0:k1].ravel().tolist(),
                self.lam[k0:k1].ravel().tolist(),
                self.v[k0:k1].ravel().tolist(),
            )
            fh.write("".join(map(_TRACE_ROW.__mod__, cells)))


def reference_summary_to_csv(self, path):
    residuals = self.residuals()
    lagrangians = self.lagrangians()
    spreads = self.spreads()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,residual,lagrangian,spread\n")
        for k0, k1 in _row_blocks(self.x.shape[0], 4):
            rows = zip(
                range(k0, k1),
                residuals[k0:k1].tolist(),
                lagrangians[k0:k1].tolist(),
                spreads[k0:k1].tolist(),
            )
            fh.write("".join(map(_SUMMARY_ROW.__mod__, rows)))


class SummaryColumns(RunTrace):
    """A trace whose summary columns are given, so any value reaches the writer."""

    def __init__(self, x, columns):
        super().__init__(problems=(), b=np.zeros(x.shape[1]), schedule=RecipSqrt(), x=x, lam=x, v=x)
        self.columns = columns

    def residuals(self):
        return self.columns[0]

    def lagrangians(self):
        return self.columns[1]

    def spreads(self):
        return self.columns[2]


def values(rows, n, dense):
    """A ``(3, rows, n)`` array holding every special value, the last row included.

    ``dense`` fills the other cells with random floats of every magnitude;
    otherwise they stay zero, which keeps a million-row trace quick to write.
    """
    rng = np.random.default_rng([SUITE_SEED, rows, n])  # private stream
    out = np.zeros((3, rows, n))
    if dense:
        out[...] = rng.standard_normal(out.shape) * 10.0 ** rng.integers(-300, 300, out.shape)
    flat = out.reshape(-1)
    flat[rng.integers(0, flat.size, 4 * len(SPECIALS))] = SPECIALS * 4
    out[:, -1, :] = np.resize(SPECIALS, (3, n))
    return out


# rows, not a multiple of the block: n = 2 and 3 give 2048 and 1365 rounds a
# block, n = 300 gives 13; the first case runs k beyond 10**6
CASES = [(1_000_003, 2, False), (2731, 3, True), (27, 300, True), (1, 3, True)]


@pytest.mark.parametrize("rows, n, dense", CASES)
def test_trace_bytes_match_reference(tmp_path, rows, n, dense):
    x, lam, v = values(rows, n, dense)
    trace = RunTrace(problems=(), b=np.zeros(n), schedule=RecipSqrt(), x=x, lam=lam, v=v)
    trace.to_csv(tmp_path / "new.csv")
    reference_to_csv(trace, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("rows, n, dense", CASES)
def test_summary_bytes_match_reference(tmp_path, rows, n, dense):
    columns = values(rows, 1, dense)[:, :, 0]
    trace = SummaryColumns(np.zeros((rows, n)), columns)
    trace.summary_to_csv(tmp_path / "new.csv")
    reference_summary_to_csv(trace, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


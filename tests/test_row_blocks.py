"""Bitwise and memory tests of the trace quantities computed over row blocks.

``RunTrace.residuals``, ``spreads`` and ``time_weighted_averages`` and the
weighted-consensus and dual-gap checks of ``check_bounds`` work on blocks of
about 4096 cells, so that no temporary has the shape of the trace. The
``reference_*`` functions below are the whole-array expressions they replaced,
kept verbatim apart from being functions; every trace must give the same bits
through both. The rows are not a multiple of the block, and ``n = 5000``
gives one-row blocks, as does ``n = 64`` with 64 cells to a block.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from netalloc import RecipSqrt, RunTrace, check_bounds, cycle_graph, metropolis_weights, simulator
from netalloc.bounds import (
    BoundReport,
    _consensus_bounds,
    _dual_sums,
    _require_normalized,
    _row,
    global_subgradient_bound,
    rate_bound,
    resolve_checks,
    weighted_consensus_bound,
)
from netalloc.cli import _write_plots
from netalloc.simulator import _deviations, _row_blocks, _running_sums
from conftest import random_quadratic_instance

SIZES = [2, 3, 54, 300, 5000]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]


def reference_residuals(trace):
    return (trace.x - trace.b).sum(axis=1)


def reference_mean_multipliers(trace):
    return trace.lam.mean(axis=1)


def reference_spreads(trace):
    mean = reference_mean_multipliers(trace)
    return np.abs(trace.lam - mean[:, None]).max(axis=1)


def reference_time_weighted_averages(trace, K):
    alphas = trace.schedule.alphas(K + 1)
    return (alphas[:, None] * trace.lam[: K + 1]).sum(axis=0) / alphas.sum()


def reference_cumulative_errors(trace):
    alphas = trace.schedule.alphas(trace.iterations + 1)
    mean = reference_mean_multipliers(trace)
    weighted_err = alphas[:, None] * np.abs(trace.lam - mean[:, None])
    return np.cumsum(weighted_err, axis=0)


def reference_check_bounds(trace, problems, A, lamstar, checkpoints=None, consensus_upto=None):
    T = trace.iterations
    checkpoints, upto = resolve_checks(T, checkpoints, consensus_upto)
    problems = tuple(problems)
    sched = trace.schedule
    _require_normalized(sched)
    sigma2 = A.sigma2
    n = trace.n
    C = global_subgradient_bound(problems)
    lam0 = trace.lam[0]
    lam0_l1 = float(np.abs(lam0).sum())
    report = BoundReport(n=n, sigma2=sigma2, C=C, lam0_l1=lam0_l1)

    observed = reference_spreads(trace)[: upto + 1].tolist()
    bounds = _consensus_bounds(upto, sched.alphas(upto), sigma2, lam0_l1, C, n)
    report.consensus_rows = [_row(k, *pair) for k, pair in enumerate(zip(observed, bounds))]

    if isinstance(sched, RecipSqrt):
        alphas = sched.alphas(T + 1)
        mean = reference_mean_multipliers(trace)
        weighted_err = alphas[:, None] * np.abs(trace.lam - mean[:, None])
        cum_err = np.cumsum(weighted_err, axis=0)
        dual_sums = _dual_sums(problems)
        (q_star,) = dual_sums(lamstar)
        for K in checkpoints:
            bound = weighted_consensus_bound(K, sigma2, lam0_l1, C, n)
            report.weighted_rows.append(_row(K, float(cum_err[K].max()), bound))

            avgs = reference_time_weighted_averages(trace, K)[:, None]
            gaps = [q - q_star for r0, r1 in _row_blocks(n, n) for q in dual_sums(avgs[r0:r1])]
            report.min_gap = min(report.min_gap, min(gaps))
            report.gap_rows.append(_row(K, max(gaps), rate_bound(K, n, sigma2, C, lam0, lamstar)))

    return report


def block_rows(n):
    return len(range(*next(_row_blocks(2 * n, n))))


def random_trace(n, seed):
    """A trace of ``2 * block + 3`` rows: values over many magnitudes, signed
    zeros and subnormals, and node 0's multipliers and allocations all -0.0,
    a column that ``np.sum(axis=0)`` sums to +0.0 and ``np.cumsum`` to -0.0."""
    rng = np.random.default_rng([seed, n])
    rows = 2 * block_rows(n) + 3
    problems, _ = random_quadratic_instance(rng, n=n)

    def values():
        a = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n))
        a.flat[rng.integers(0, a.size, 4 * len(SPECIALS))] = SPECIALS * 4
        a[:, 0] = -0.0
        return a

    b = np.array([p.share for p in problems])
    b[0] = 0.0
    trace = RunTrace(problems=tuple(problems), b=b, schedule=RecipSqrt(), x=values(), lam=values(), v=values())
    return trace, rng


def bits(a):
    return np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_per_row_quantities_match_whole_array(n):
    trace, _ = random_trace(n, 1)
    assert bits(trace.residuals()) == bits(reference_residuals(trace))
    assert bits(trace.spreads()) == bits(reference_spreads(trace))


@pytest.mark.parametrize("n", SIZES)
def test_time_weighted_averages_match_whole_array(n):
    trace, _ = random_trace(n, 2)
    block, T = block_rows(n), trace.iterations
    for K in sorted({0, 1, block - 1, block, block + 1, 2 * block, T - 1, T}):
        assert bits(trace.time_weighted_averages(K)) == bits(reference_time_weighted_averages(trace, K)), K
    assert bits(trace.time_weighted_averages()) == bits(reference_time_weighted_averages(trace, T))


@pytest.mark.parametrize("n", SIZES)
def test_cumulative_weighted_errors_match_whole_array(n):
    trace, _ = random_trace(n, 4)
    alphas = trace.schedule.alphas(trace.iterations + 1)
    ks = list(range(trace.iterations + 1))
    sums = _running_sums(lambda r0, r1: alphas[r0:r1, None] * _deviations(trace.lam[r0:r1]), ks, n)
    expected = reference_cumulative_errors(trace)
    assert len(sums) == len(ks)
    for K, got in zip(ks, sums):
        assert bits(got) == bits(expected[K]), K


# a 5000-node weight matrix would take a 200 MB dense eigensolve, so blocks
# of 64 cells give a 64-node trace the one-row blocks instead
@pytest.mark.parametrize(
    "n, cells",
    [pytest.param(n, simulator.CSV_BLOCK_CELLS, id=str(n)) for n in SIZES[:-1]]
    + [pytest.param(64, 64, id="64-one-row-blocks")],
)
def test_check_bounds_rows_match_whole_array(monkeypatch, n, cells):
    monkeypatch.setattr(simulator, "CSV_BLOCK_CELLS", cells)
    trace, rng = random_trace(n, 5)
    w = metropolis_weights(cycle_graph(n))
    lamstar = float(rng.uniform(-1.0, 1.0))
    T, block = trace.iterations, block_rows(n)
    checks = [(None, None), ([1, block, T], block - 1), ([block + 1], 0), ([], 2)]
    assert (block == 1) == (cells < 2 * n)
    if block == 1:  # each dual-gap checkpoint then takes n calls of one average
        checks = [([T], None)]
    for checkpoints, upto in checks:
        got = check_bounds(trace, trace.problems, w, lamstar, checkpoints=checkpoints, consensus_upto=upto)
        want = reference_check_bounds(trace, trace.problems, w, lamstar, checkpoints=checkpoints, consensus_upto=upto)
        assert repr(got) == repr(want)


def long_trace():
    """A 20001-row, 54-node trace, with its ``x`` array (8.6 MB)."""
    trace, rng = random_trace(54, 6)
    x, lam, v = (rng.standard_normal((20001, trace.n)) for _ in range(3))
    return dataclasses.replace(trace, x=x, lam=lam, v=v), x


def traced_peak(fn):
    """The largest size ``fn`` takes above what exists before it, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_summary_bounds_and_charts_stay_within_a_third_of_one_trace_array(tmp_path):
    """On a 20001-row, 54-node trace the three output layers together peak
    below a third of one ``(T + 1, n)`` array (8.6 MB) above the trace's
    arrays. What they allocate grows with the rows only: per-row columns of
    160 kB, and one CSV block of 4096 rows, whose 24-byte cells, line buffer
    and formatter scratch take about 2.0 MB; 2.5 MB in all under numpy 2.4.6.
    The whole-array code peaked at 26.7 MB here."""
    trace, x = long_trace()
    w = metropolis_weights(cycle_graph(trace.n))

    def outputs():
        trace.summary_to_csv(tmp_path / "summary.csv")
        check_bounds(trace, trace.problems, w, 0.5, consensus_upto=1000)  # the CLI's horizon
        _write_plots(tmp_path, trace)

    peak = traced_peak(outputs)
    assert peak < x.nbytes / 3, f"peak {peak / 1e6:.2f} MB above the trace's arrays"


def test_trace_writer_takes_one_block(tmp_path):
    """``to_csv`` on the same trace peaks at one block: 4096 cells of three
    columns take their 24-byte cells, a line buffer of about 340 kB and the
    formatter's scratch, 2.0 MB under numpy 2.4.6, the same at 2001 rows."""
    trace, _ = long_trace()
    peak = traced_peak(lambda: trace.to_csv(tmp_path / "trace.csv"))
    assert peak < 2.5e6, f"peak {peak / 1e6:.2f} MB above the trace's arrays"

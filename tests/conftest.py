"""Shared helpers: random connected graphs, the CSR fields of a dense weight
matrix, random strictly convex instances, and a schedule from any sequence."""

import math

import numpy as np
import pytest

from netalloc import FeasibleInterval, GraphTopology, LocalProblem, Quadratic, StepSchedule

# Seed for every randomized suite in this repo; change deliberately or not at all.
SUITE_SEED = 20260809


class Custom(StepSchedule):
    """Schedule backed by a sequence oracle ``fn(k) -> float``.

    Positivity and monotonicity are validated on the consumed prefix.
    """

    name = "custom"

    def __init__(self, fn):
        self._fn = fn

    def alpha(self, k):
        return float(self._fn(k))


def random_connected_graph(rng, n, extra_edge_prob=0.35):
    """Random spanning tree plus independent extra edges."""
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return GraphTopology(n, edges)


def csr_fields(a):
    """The ``WeightMatrix`` fields of a dense ``n x n`` array: its nonzero
    entries and its whole diagonal, row by row."""
    a = np.asarray(a, dtype=float)
    n = len(a)
    rows, cols = np.nonzero((a != 0.0) | np.eye(n, dtype=bool))
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    return dict(n=n, indptr=indptr, indices=cols, data=a[rows, cols])


def random_quadratic_instance(rng, n=None):
    """Random strictly convex instance with an interior feasible total.

    Returns ``(problems, total)``. The total is the sum of random interior
    points, which guarantees strict feasibility; shares are the equal split
    with the remainder on the last node.
    """
    if n is None:
        n = int(rng.integers(2, 11))
    data = []
    interior = []
    for _ in range(n):
        lo = float(rng.uniform(-5, 0))
        hi = float(rng.uniform(4, 12))
        gamma = float(rng.uniform(0.08, 0.5))
        beta = float(rng.uniform(-3, 3))
        mu = float(rng.uniform(-2, 2))
        interior.append(float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))))
        data.append((gamma, beta, mu, lo, hi))
    total = math.fsum(interior)
    even = total / n
    shares = [even] * (n - 1)
    shares.append(total - math.fsum(shares))
    problems = [
        LocalProblem(
            cost=Quadratic(g, b, m),
            interval=FeasibleInterval(lo, hi),
            share=shares[i],
        )
        for i, (g, b, m, lo, hi) in enumerate(data)
    ]
    return problems, total


@pytest.fixture(scope="session")
def suite_rng():
    return np.random.default_rng(SUITE_SEED)

"""Centralized ground-truth solver for the coupled allocation problem.

Solves ``min sum_i f_i(x_i)`` subject to ``sum_i x_i = b`` and box constraints
through the shared multiplier: the aggregate response ``g(lam)``, one
``math.fsum`` of every node's rounded argmin of ``f_i(x) + lam*x``, is
nonincreasing bit for bit for quadratic costs, so bisection over the doubles
finds the smallest ``lam`` with ``g(lam) <= b`` exactly, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTotal
from .objectives import NodeCosts, primal_argmin


@dataclass(frozen=True)
class OracleSolution:
    """Optimal allocation, total cost, dual multiplier, and achieved balance residual."""

    x_star: np.ndarray
    f_star: float
    lam_star: float
    residual: float

    def __post_init__(self):
        self.x_star.setflags(write=False)


def _rank(x):
    """The place of ``x`` in the order of the doubles; -0.0 and 0.0 share rank 0."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _double(rank):
    """The double of a :func:`_rank`; rank 0 gives 0.0."""
    magnitude = float(np.int64(abs(rank)).view(np.float64))
    return magnitude if rank >= 0 else -magnitude


def solve_centralized(problems, b=None):
    """Solve the coupled problem; ``b`` defaults to the sum of the shares.

    ``lam_star`` is the smallest double in the bracket with ``g(lam) <= b``,
    for ``g(lam) = math.fsum(NodeCosts(problems).argmin(lam))``. The bracket,
    the extreme breakpoints ``min(-beta - 2*gamma*hi)`` and
    ``max(-beta - 2*gamma*lo)`` each widened by one plus its magnitude, puts
    every node at ``hi`` at its left end and at ``lo`` at its right end. At
    ``b == fsum(hi)``, where every ``lam`` up to the first breakpoint is
    optimal, it is the largest double with ``g(lam) >= b``, that breakpoint,
    as ``b == fsum(lo)`` gets the last one. Bisection over the doubles'
    ranks ends at neighbours within 64 probes, so ``g`` at the doubles next
    to ``lam_star`` brackets ``b``. Flat nodes indifferent at ``lam_star``
    (``gamma == 0``, ``beta + lam_star == 0``) take up ``b - sum x`` in
    index order, each up to its ``hi``.
    """
    problems = tuple(problems)
    if not problems:
        raise ValueError("need at least one problem")
    if b is None:
        b = math.fsum(p.share for p in problems)
    b = float(b)
    total_lo = math.fsum(p.interval.lo for p in problems)
    total_hi = math.fsum(p.interval.hi for p in problems)
    if not (total_lo <= b <= total_hi):
        raise InfeasibleTotal(f"total {b} outside achievable range [{total_lo}, {total_hi}]")

    costs = NodeCosts(problems)
    first = float(np.min(-costs.beta - 2.0 * costs.gamma * costs.hi))
    last = float(np.max(-costs.beta - 2.0 * costs.gamma * costs.lo))
    # g(left) = sum hi >= b >= sum lo = g(right); at b = sum hi, right moves only where g < b
    at_hi = b == total_hi
    left, right = _rank(first - (1.0 + abs(first))), _rank(last + (1.0 + abs(last)))
    while right - left > 1:
        mid = (left + right) // 2
        g = math.fsum(costs.argmin(_double(mid)).tolist())
        if g < b or (g == b and not at_hi):
            right = mid
        else:
            left = mid
    lam = _double(left if at_hi else right)

    x = costs.argmin(lam)
    for j in np.flatnonzero((costs.gamma == 0.0) & (costs.beta + lam == 0.0)).tolist():
        gap = math.fsum([b, *(-x).tolist()])
        if gap <= 0.0:
            break
        x[j] = min(costs.hi[j], x[j] + gap)
    f = math.fsum(costs.value(x).tolist())
    residual = abs(math.fsum(x.tolist()) - b)
    return OracleSolution(x_star=x, f_star=f, lam_star=lam, residual=residual)


def verify_kkt(problems, sol, b=None, tol=1e-8):
    """Check the saddle-point conditions of an alleged solution.

    True iff every ``x_star_i`` lies in its interval and minimizes
    ``f_i(x) + lam_star*x`` over it to within ``tol`` in objective value, and
    the allocation balances the total to within ``tol``.
    """
    problems = tuple(problems)
    if b is None:
        b = math.fsum(p.share for p in problems)
    x = np.asarray(sol.x_star, dtype=float)
    if x.shape != (len(problems),):
        return False
    for i, p in enumerate(problems):
        if not (p.interval.lo - tol <= x[i] <= p.interval.hi + tol):
            return False
        x_hat = primal_argmin(p, sol.lam_star)
        gap = (p.cost.value(x[i]) + sol.lam_star * x[i]) - (
            p.cost.value(x_hat) + sol.lam_star * x_hat
        )
        if gap > tol:
            return False
    return abs(math.fsum(x.tolist()) - b) <= tol

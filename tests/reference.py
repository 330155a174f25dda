"""Scalar, node-by-node reference for ``netalloc.objectives.NodeCosts``.

Each function evaluates one node's formula with Python floats, in the order
of IEEE operations that ``NodeCosts`` performs on its arrays, and shares no
code with the library, so a test that compares the two bit for bit checks
the library against an independent implementation. :func:`verify_kkt` is the
saddle-point check as a loop over the nodes.
"""

import math

import numpy as np


def value(cost, x):
    """``gamma * x**2 + beta * x + mu``."""
    return cost.gamma * x * x + cost.beta * x + cost.mu


def clamp(interval, x):
    # at an exact tie, +0.0 against -0.0, max and min keep the interval end
    return min(interval.hi, max(interval.lo, x))


def shifted_argmin(cost, c, interval):
    """Minimizer of ``f(x) + c*x`` over the interval."""
    slope = cost.beta + c
    if cost.gamma == 0.0:
        if slope > 0.0:
            return interval.lo
        if slope < 0.0:
            return interval.hi
        return interval.lo  # every point optimal; deterministic tie-break
    return clamp(interval, -slope / (2.0 * cost.gamma))


def primal_argmin(p, v):
    """Minimizer of ``f(x) + v*(x - b)`` over the node's interval."""
    return shifted_argmin(p.cost, v, p.interval)


def lagrangian_term(p, x, lam):
    """``f(x) + lam*(x - b)``."""
    return value(p.cost, x) + lam * (x - p.share)


def dual_value(p, lam):
    """The node's dual piece ``-(f(x_hat) + lam*(x_hat - b))``."""
    x_hat = primal_argmin(p, lam)
    return -(value(p.cost, x_hat) + lam * (x_hat - p.share))


def lagrangian_value(problems, x, mults):
    """Global Lagrangian ``sum_i f_i(x_i) + mults_i * (x_i - b_i)``."""
    return math.fsum(value(p.cost, x[i]) + mults[i] * (x[i] - p.share) for i, p in enumerate(problems))


def subgradient_bound(p):
    """Tight bound on ``|b - x|`` over the interval: ``max(|b-lo|, |b-hi|)``."""
    return max(abs(p.share - p.interval.lo), abs(p.share - p.interval.hi))


def verify_kkt(problems, sol, b=None, tol=1e-8):
    """The saddle-point check node by node, as a loop that stops at the
    first node that fails it."""
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
        gap = (value(p.cost, x[i]) + sol.lam_star * x[i]) - (value(p.cost, x_hat) + sol.lam_star * x_hat)
        if gap > tol:
            return False
    return abs(math.fsum(x.tolist()) - b) <= tol

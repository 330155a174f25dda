"""Per-node quadratic costs, the local primal step, and dual quantities.

Each node owns a convex quadratic cost ``f_i(x) = gamma*x**2 + beta*x + mu``
(``gamma >= 0``) on a compact interval ``X_i`` and a resource share ``b_i``.
Given a multiplier ``v`` the node solves the local problem

    min over x in X_i of  f_i(x) + v * (x - b_i),

whose minimizer feeds both the dual value ``q_i(v)`` and the dual subgradient
``b_i - x_hat``. All operations are pure and deterministic.

:class:`NodeCosts` evaluates the costs and local problems of all nodes at
once, as numpy expressions over per-node coefficient arrays, for the
simulator, the bounds and the oracle; the per-node functions are its
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeasibleInterval:
    """Closed interval ``[lo, hi]`` of feasible allocations, both ends finite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval ends must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def clamp(self, x):
        # at an exact tie, +0.0 against -0.0, max and min keep the interval end
        return min(self.hi, max(self.lo, x))


@dataclass(frozen=True)
class Quadratic:
    """Cost ``gamma * x**2 + beta * x + mu`` with ``gamma >= 0``.

    ``gamma > 0`` gives strict convexity and a unique shifted argmin; with
    ``gamma == 0`` ties are broken toward the interval's lower end. The
    constant ``mu`` never affects minimizers but is kept so total-cost figures
    are faithful.
    """

    gamma: float
    beta: float
    mu: float = 0.0

    def __post_init__(self):
        for field in ("gamma", "beta", "mu"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"{field} must be finite, got {getattr(self, field)}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative for convexity, got {self.gamma}")

    def value(self, x):
        return self.gamma * x * x + self.beta * x + self.mu

    def shifted_argmin(self, c, interval):
        """Minimizer of ``f(x) + c*x`` over the interval."""
        slope = self.beta + c
        if self.gamma == 0.0:
            if slope > 0.0:
                return interval.lo
            if slope < 0.0:
                return interval.hi
            return interval.lo  # every point optimal; deterministic tie-break
        return interval.clamp(-slope / (2.0 * self.gamma))


@dataclass(frozen=True)
class LocalProblem:
    """One node's data: cost, feasible interval, and resource share ``b_i``."""

    cost: Quadratic
    interval: FeasibleInterval
    share: float

    def __post_init__(self):
        if not isinstance(self.cost, Quadratic):
            raise TypeError(f"cost must be a Quadratic, got {type(self.cost).__name__}")
        if not math.isfinite(self.share):
            raise ValueError(f"share must be finite, got {self.share}")


class NodeCosts:
    """Every node's cost and local primal step, as numpy expressions over the
    per-node coefficient arrays ``gamma, beta, mu, lo, hi`` (attributes).

    The expressions perform, element by element, the same IEEE operations in
    the same order as :meth:`Quadratic.value` and
    :meth:`Quadratic.shifted_argmin`, so they give the per-node results'
    bits, the sign of a zero included. A caller that sums them with one
    ``math.fsum``, which is exact whatever the order, gets the per-node sum's
    bits too.
    """

    def __init__(self, problems):
        coefficients = [
            (p.cost.gamma, p.cost.beta, p.cost.mu, p.interval.lo, p.interval.hi) for p in problems
        ]
        columns = np.array(coefficients, dtype=float).reshape(-1, 5).T
        self.gamma, self.beta, self.mu, self.lo, self.hi = np.ascontiguousarray(columns)
        # flat (linear) nodes divide by -1.0, then take an end of their interval
        flat = self.gamma == 0.0
        self._flat = np.flatnonzero(flat)
        self._minus_twice_gamma = np.where(flat, -1.0, -(2.0 * self.gamma))

    def value(self, x):
        """``f_i(x_i)`` for an ``x`` whose last axis runs over the nodes."""
        return self.gamma * x * x + self.beta * x + self.mu

    def argmin(self, v, out=None):
        """Every node's :func:`primal_argmin`, written into ``out`` when given.

        ``v`` broadcasts against the nodes on its last axis: one multiplier
        per node, one scalar shared by every node, or a column ``(B, 1)`` of
        shared multipliers, one per row of the ``(B, n)`` result.
        """
        if out is None:
            out = np.empty(np.broadcast_shapes(np.shape(v), self.beta.shape))
        # clamp(-(beta + v) / (2 gamma), lo, hi) as (beta + v) / -(2 gamma), the same bits
        np.add(self.beta, v, out=out)
        np.divide(out, self._minus_twice_gamma, out=out)
        np.maximum(out, self.lo, out=out)
        np.minimum(out, self.hi, out=out)
        if self._flat.size:
            f = self._flat
            slope = self.beta[f] + np.broadcast_to(v, out.shape)[..., f]
            out[..., f] = np.where(slope < 0.0, self.hi[f], self.lo[f])
        return out


def primal_argmin(p, v):
    """Minimizer of ``f(x) + v*(x - b)`` over the node's interval.

    The ``- v*b`` term is constant in ``x``, so the result does not depend on
    the share. For a strictly convex quadratic this is
    ``clamp(-(beta + v) / (2*gamma), lo, hi)``.
    """
    return p.cost.shifted_argmin(v, p.interval)


def dual_value(p, lam):
    """The node's convex dual piece ``q_i(lam)``.

    Equals ``-(f(x_hat) + lam*(x_hat - b))`` with ``x_hat`` the primal argmin,
    i.e. the negated node contribution to the dual function.
    """
    x_hat = primal_argmin(p, lam)
    return -(p.cost.value(x_hat) + lam * (x_hat - p.share))


def subgradient_bound(p):
    """Tight bound on ``|b - x|`` over the interval: ``max(|b-lo|, |b-hi|)``."""
    return max(abs(p.share - p.interval.lo), abs(p.share - p.interval.hi))

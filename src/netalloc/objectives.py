"""Per-node quadratic costs, the local primal step, and dual quantities.

Each node owns a convex quadratic cost ``f_i(x) = gamma*x**2 + beta*x + mu``
(``gamma >= 0``) on a compact interval ``X_i`` and a resource share ``b_i``.
Given a multiplier ``v`` the node solves the local problem

    min over x in X_i of  f_i(x) + v * (x - b_i),

whose minimizer feeds both the dual value ``q_i(v)`` and the dual subgradient
``b_i - x_hat``. All operations are pure and deterministic.

:class:`NodeCosts` is the one implementation of these formulas: it evaluates
the costs, local problems, Lagrangian and dual terms and subgradient bounds
of all nodes at once, as numpy expressions over per-node arrays, for the
simulator, the bounds and the oracle. Its reference is the scalar, node by
node code in ``tests/reference.py``, which shares no code with it.
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


@dataclass(frozen=True)
class Quadratic:
    """Cost ``gamma * x**2 + beta * x + mu`` with ``gamma >= 0``.

    ``gamma > 0`` gives strict convexity and a unique shifted argmin; with
    ``gamma == 0`` ties are broken toward the interval's lower end. The
    constant ``mu`` never affects minimizers but is kept so total-cost figures
    are faithful. :class:`NodeCosts` evaluates it.
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
    """Every node's cost, local primal step, Lagrangian and dual terms and
    subgradient bound, as numpy expressions over the per-node arrays
    ``gamma, beta, mu, lo, hi, share`` (attributes).

    An expression performs, element by element, the IEEE operations of the
    scalar formula, in its order, so it gives the per-node result's bits, the
    sign of a zero included; ``tests/reference.py`` holds the scalar formulas
    the tests compare it with. A caller that sums them with one
    ``math.fsum``, which is exact whatever the order, gets the per-node sum's
    bits too.
    """

    def __init__(self, problems):
        coefficients = [
            (p.cost.gamma, p.cost.beta, p.cost.mu, p.interval.lo, p.interval.hi, p.share) for p in problems
        ]
        columns = np.array(coefficients, dtype=float).reshape(-1, 6).T
        self.gamma, self.beta, self.mu, self.lo, self.hi, self.share = np.ascontiguousarray(columns)
        # flat (linear) nodes divide by -1.0, then take an end of their interval
        flat = self.gamma == 0.0
        self._flat = np.flatnonzero(flat)
        self._minus_twice_gamma = np.where(flat, -1.0, -(2.0 * self.gamma))

    def value(self, x):
        """``f_i(x_i)`` for an ``x`` whose last axis runs over the nodes."""
        return self.gamma * x * x + self.beta * x + self.mu

    def midpoints(self):
        """The middle ``(lo_i + hi_i) / 2`` of every node's interval."""
        return 0.5 * (self.lo + self.hi)

    def argmin(self, v, out=None):
        """Every node's minimizer of ``f_i(x) + v_i * (x - b_i)`` over its
        interval, written into ``out`` when given.

        The ``- v_i * b_i`` term is constant in ``x``, so the shares play no
        part. A strictly convex node takes ``min(hi, max(lo, -(beta + v) /
        (2 gamma)))``; a flat node (``gamma == 0``) takes ``hi`` where
        ``beta + v < 0`` and ``lo`` otherwise, its tie included. A NaN
        multiplier gives NaN at every node. ``v`` broadcasts against the nodes
        on its last axis: one multiplier per node, one scalar shared by every
        node, or a column ``(B, 1)`` of shared multipliers, one per row of the
        ``(B, n)`` result.
        """
        if out is None:
            out = np.empty(np.broadcast_shapes(np.shape(v), self.beta.shape))
        # -(beta + v) / (2 gamma) as (beta + v) / -(2 gamma), the same bits; max and
        # min keep the interval end at an exact tie, +0.0 against -0.0
        np.add(self.beta, v, out=out)
        np.divide(out, self._minus_twice_gamma, out=out)
        np.maximum(out, self.lo, out=out)
        np.minimum(out, self.hi, out=out)
        if self._flat.size:
            f = self._flat
            slope = self.beta[f] + np.broadcast_to(v, out.shape)[..., f]
            out[..., f] = np.where(slope < 0.0, self.hi[f], np.where(slope >= 0.0, self.lo[f], slope))
        return out

    def lagrangian(self, x, lam):
        """Every node's Lagrangian term ``f_i(x_i) + lam_i * (x_i - b_i)``;
        ``x`` and ``lam`` broadcast against the nodes on their last axis."""
        return self.value(x) + lam * (x - self.share)

    def dual(self, lam):
        """Every node's convex dual piece ``q_i(lam_i)``: the negated
        Lagrangian term at the node's :meth:`argmin`, for ``lam`` as
        :meth:`argmin` takes ``v``."""
        return -self.lagrangian(self.argmin(lam), lam)

    def subgradient_bounds(self):
        """Every node's tight bound on ``|b_i - x|`` over its interval:
        ``max(|b_i - lo_i|, |b_i - hi_i|)``."""
        return np.maximum(np.abs(self.share - self.lo), np.abs(self.share - self.hi))


def dual_value(p, lam):
    """The node's convex dual piece ``q_i(lam)``: :meth:`NodeCosts.dual` of
    one node.

    Equals ``-(f(x_hat) + lam*(x_hat - b))`` with ``x_hat`` the primal argmin,
    i.e. the negated node contribution to the dual function.
    """
    return float(NodeCosts([p]).dual(lam)[0])

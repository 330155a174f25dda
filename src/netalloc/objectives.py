"""Per-node convex costs, the local primal step, and dual quantities.

Each node owns a convex cost ``f_i`` on a compact interval ``X_i`` and a
resource share ``b_i``. Given a multiplier ``v`` the node solves the local
problem

    min over x in X_i of  f_i(x) + v * (x - b_i),

whose minimizer feeds both the dual value ``q_i(v)`` and the dual subgradient
``b_i - x_hat``. All operations are pure and deterministic.

:class:`NodeCosts` evaluates the costs and local problems of all nodes at
once, for the simulator, the bounds and the oracle; it is the one place that
chooses between numpy arrays (strictly convex quadratics) and per-node calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

# Absolute x-tolerance of the default golden-section argmin oracle.
GOLDEN_SECTION_TOL = 1e-10

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
        return min(max(x, self.lo), self.hi)


def golden_section_min(fn, lo, hi, tol=GOLDEN_SECTION_TOL):
    """Deterministic golden-section minimizer for a convex ``fn`` on ``[lo, hi]``.

    The iteration count is fixed by ``tol`` up front, so equal inputs always
    produce equal outputs. Returns the lower midpoint of the final bracket,
    which lands on the smallest minimizer for flat optima up to ``tol``.
    """
    if hi <= lo:
        return lo
    span = hi - lo
    steps = max(0, math.ceil(math.log(tol / span) / math.log(_INVPHI))) if span > tol else 0
    c = hi - _INVPHI * span
    d = lo + _INVPHI * span
    fc, fd = fn(c), fn(d)
    for _ in range(steps):
        if fc <= fd:  # keep the left bracket on ties: smallest minimizer
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = fn(d)
    # final bracket has width <= tol; pick the leftmost best point in it
    return min((lo, c, d, hi), key=lambda t: (fn(t), t))


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
class GenericConvex:
    """Convex cost given by a value oracle and an optional argmin oracle.

    ``argmin_fn(c, lo, hi)`` must deterministically return a minimizer of
    ``value(x) + c*x`` on ``[lo, hi]``; when omitted, golden-section search to
    :data:`GOLDEN_SECTION_TOL` is used, which is valid for convex values.
    """

    value_fn: Callable[[float], float]
    argmin_fn: Optional[Callable[[float, float, float], float]] = None

    def value(self, x):
        return self.value_fn(x)

    def shifted_argmin(self, c, interval):
        if self.argmin_fn is not None:
            return interval.clamp(self.argmin_fn(c, interval.lo, interval.hi))
        return golden_section_min(lambda x: self.value_fn(x) + c * x, interval.lo, interval.hi)


CostFunction = Union[Quadratic, GenericConvex]


@dataclass(frozen=True)
class LocalProblem:
    """One node's data: cost, feasible interval, and resource share ``b_i``."""

    cost: CostFunction
    interval: FeasibleInterval
    share: float

    def __post_init__(self):
        if not math.isfinite(self.share):
            raise ValueError(f"share must be finite, got {self.share}")


class NodeCosts:
    """Every node's cost and local primal step, evaluated over all nodes at once.

    The constructor decides once, from the problems, how: when every cost is a
    :class:`Quadratic` with ``gamma > 0`` the methods are numpy expressions
    over per-node coefficient arrays (:attr:`vectorised`); any other mix is
    evaluated node by node with each cost's own methods. No other module
    makes this choice.

    The quadratic expressions perform, element by element, the same IEEE
    operations in the same order as :meth:`Quadratic.value` and
    :meth:`Quadratic.shifted_argmin`, so both paths give the per-node
    results' bits (``-v - beta`` equals ``-(beta + v)`` except in the sign of
    a zero). A caller that sums them with one ``math.fsum``, which is exact
    whatever the order, gets the per-node sum's bits too.
    """

    def __init__(self, problems):
        self._problems = tuple(problems)
        self.vectorised = all(
            isinstance(p.cost, Quadratic) and p.cost.gamma > 0.0 for p in self._problems
        )
        if self.vectorised:
            coefficients = [
                (p.cost.gamma, p.cost.beta, p.cost.mu, p.interval.lo, p.interval.hi)
                for p in self._problems
            ]
            columns = np.array(coefficients, dtype=float).reshape(-1, 5).T
            self._gamma, self._beta, self._mu, self._lo, self._hi = np.ascontiguousarray(columns)
            self._twice_gamma = 2.0 * self._gamma

    def value(self, x):
        """``f_i(x_i)`` for an ``x`` whose last axis runs over the nodes."""
        if self.vectorised:
            return self._gamma * x * x + self._beta * x + self._mu
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for row, dst in zip(x.reshape(-1, x.shape[-1]), out.reshape(-1, x.shape[-1])):
            dst[:] = [p.cost.value(xi) for p, xi in zip(self._problems, row)]
        return out

    def argmin(self, v, out=None):
        """Every node's :func:`primal_argmin`, written into ``out`` when given.

        ``v`` broadcasts against the nodes on its last axis: one multiplier
        per node, one scalar shared by every node, or a column ``(B, 1)`` of
        shared multipliers, one per row of the ``(B, n)`` result.
        """
        n = len(self._problems)
        if out is None:
            out = np.empty(np.broadcast_shapes(np.shape(v), (n,)))
        if self.vectorised:
            # clamp((-v - beta) / (2 gamma), lo, hi), one operation at a time
            np.negative(v, out=out)
            np.subtract(out, self._beta, out=out)
            np.divide(out, self._twice_gamma, out=out)
            np.maximum(out, self._lo, out=out)
            return np.minimum(out, self._hi, out=out)
        if np.ndim(v) == 0:
            out[...] = [primal_argmin(p, v) for p in self._problems]
            return out
        for row, dst in zip(np.broadcast_to(v, out.shape).reshape(-1, n), out.reshape(-1, n)):
            dst[:] = [primal_argmin(p, vi) for p, vi in zip(self._problems, row)]
        return out

    def finite_argmin(self, lam):
        """:meth:`argmin` at a shared multiplier ``lam``, a scalar or a column
        ``(B, 1)`` of them, or ValueError naming the first row's multiplier
        and node, in row-major order, whose argmin is not finite: a
        ``GenericConvex`` argmin oracle can return NaN, which the interval's
        clamp lets through. Strictly convex quadratics have finite argmins at
        a finite ``lam`` and are not checked."""
        x = self.argmin(lam)
        if not self.vectorised:
            bad = ~np.isfinite(x)
            if bad.any():
                first = int(np.argmax(bad))
                r, i = divmod(first, x.shape[-1])
                shared = lam if np.ndim(lam) == 0 else np.ravel(lam)[r]
                raise ValueError(
                    f"non-finite argmin x={float(x.flat[first])} at node {i} for multiplier lam={shared!r}"
                )
        return x


def primal_argmin(p, v):
    """Minimizer of ``f(x) + v*(x - b)`` over the node's interval.

    The ``- v*b`` term is constant in ``x``, so the result does not depend on
    the share. For a strictly convex quadratic this is
    ``clamp((-v - beta) / (2*gamma), lo, hi)``.
    """
    return p.cost.shifted_argmin(v, p.interval)


def dual_value(p, lam):
    """The node's convex dual piece ``q_i(lam)``.

    Equals ``-(f(x_hat) + lam*(x_hat - b))`` with ``x_hat`` the primal argmin,
    i.e. the negated node contribution to the dual function. A non-finite
    argmin raises ValueError naming the multiplier.
    """
    x_hat = primal_argmin(p, lam)
    if not math.isfinite(x_hat):
        raise ValueError(f"non-finite argmin x={x_hat} for multiplier lam={lam!r}")
    return -(p.cost.value(x_hat) + lam * (x_hat - p.share))


def subgradient_bound(p):
    """Tight bound on ``|b - x|`` over the interval: ``max(|b-lo|, |b-hi|)``."""
    return max(abs(p.share - p.interval.lo), abs(p.share - p.interval.hi))

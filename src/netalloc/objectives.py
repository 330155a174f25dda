"""Per-node convex costs, the local primal step, and dual quantities.

Each node owns a convex cost ``f_i`` on a compact interval ``X_i`` and a
resource share ``b_i``. Given a multiplier ``v`` the node solves the local
problem

    min over x in X_i of  f_i(x) + v * (x - b_i),

whose minimizer feeds both the dual value ``q_i(v)`` and the dual subgradient
``b_i - x_hat``. All operations are pure and deterministic.
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

    def contains(self, x):
        return self.lo <= x <= self.hi


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


@dataclass(frozen=True)
class QuadraticArrays:
    """Per-node coefficient and interval arrays of strictly convex quadratics.

    :meth:`value` and :meth:`argmin` broadcast over trailing node axes and
    perform, element by element, the same IEEE operations in the same order as
    :meth:`Quadratic.value` and :meth:`Quadratic.shifted_argmin` (``-v - beta``
    equals ``-(beta + v)`` exactly), so they give the per-node results' bits.
    """

    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def value(self, x):
        return self.gamma * x * x + self.beta * x + self.mu

    def argmin(self, v):
        return np.minimum(np.maximum((-v - self.beta) / (2.0 * self.gamma), self.lo), self.hi)


def quadratic_arrays(problems):
    """The problems' :class:`QuadraticArrays`, or None unless every cost is a
    :class:`Quadratic` with ``gamma > 0``; other costs take the per-node path."""
    problems = tuple(problems)
    if not all(isinstance(p.cost, Quadratic) and p.cost.gamma > 0.0 for p in problems):
        return None
    return QuadraticArrays(
        gamma=np.array([p.cost.gamma for p in problems], dtype=float),
        beta=np.array([p.cost.beta for p in problems], dtype=float),
        mu=np.array([p.cost.mu for p in problems], dtype=float),
        lo=np.array([p.interval.lo for p in problems], dtype=float),
        hi=np.array([p.interval.hi for p in problems], dtype=float),
    )


def primal_argmin(p, v):
    """Minimizer of ``f(x) + v*(x - b)`` over the node's interval.

    The ``- v*b`` term is constant in ``x``, so the result does not depend on
    the share. For a strictly convex quadratic this is
    ``clamp((-v - beta) / (2*gamma), lo, hi)``.
    """
    return p.cost.shifted_argmin(v, p.interval)


def _finite_argmin(p, v, node=None):
    """:func:`primal_argmin`, or ValueError naming ``node`` (an index) and
    ``v`` when it is not finite: a ``GenericConvex`` argmin oracle can return
    NaN, which the interval's clamp lets through."""
    x = primal_argmin(p, v)
    if not math.isfinite(x):
        at = "" if node is None else f" at node {node}"
        raise ValueError(f"non-finite argmin x={x}{at} for multiplier lam={v!r}")
    return x


def dual_value(p, lam):
    """The node's convex dual piece ``q_i(lam)``.

    Equals ``-(f(x_hat) + lam*(x_hat - b))`` with ``x_hat`` the primal argmin,
    i.e. the negated node contribution to the dual function. A non-finite
    argmin raises ValueError naming the multiplier.
    """
    x_hat = _finite_argmin(p, lam)
    return -(p.cost.value(x_hat) + lam * (x_hat - p.share))


def dual_subgradient(p, v):
    """A subgradient of ``q_i`` at ``v``: the share minus the primal argmin."""
    return p.share - primal_argmin(p, v)


def subgradient_bound(p):
    """Tight bound on ``|b - x|`` over the interval: ``max(|b-lo|, |b-hi|)``."""
    return max(abs(p.share - p.interval.lo), abs(p.share - p.interval.hi))

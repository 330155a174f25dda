"""Centralized ground-truth solver for the coupled allocation problem.

Solves ``min sum_i f_i(x_i)`` subject to ``sum_i x_i = b`` and box constraints
by bisection on the shared multiplier: the aggregate response
``g(lam) = sum_i argmin_x { f_i(x) + lam*x }`` is nonincreasing in ``lam``, so
the saddle-point multiplier is the root of ``g(lam) = b``. This exploits the
separable one-dimensional structure and handles any convex cost through the
same per-node argmin used by the distributed method's primal step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, InfeasibleTotal
from .objectives import Quadratic, _finite_argmin, primal_argmin, quadratic_arrays

BALANCE_TOL = 1e-9
MAX_BISECTIONS = 500
MAX_BRACKET_DOUBLINGS = 200


@dataclass(frozen=True)
class OracleSolution:
    """Optimal allocation, total cost, dual multiplier, and achieved balance residual."""

    x_star: np.ndarray
    f_star: float
    lam_star: float
    residual: float

    def __post_init__(self):
        self.x_star.setflags(write=False)


def _aggregate(problems, q, lam):
    """``g(lam)``, one ``fsum`` over the nodes' argmins.

    On strictly convex quadratics (``q`` from
    :func:`~netalloc.objectives.quadratic_arrays`) the argmins are one numpy
    vector with the per-node bits. Otherwise a non-finite argmin raises
    ValueError naming the first such node and the multiplier.
    """
    if q is not None:
        return math.fsum(q.argmin(lam).tolist())
    return math.fsum(_finite_argmin(p, lam, i) for i, p in enumerate(problems))


def _initial_bracket_halfwidth(problems):
    """Multiplier magnitude that saturates every quadratic node's box."""
    m = 1.0
    for p in problems:
        if isinstance(p.cost, Quadratic):
            reach = abs(p.cost.beta) + 2.0 * p.cost.gamma * max(
                abs(p.interval.lo), abs(p.interval.hi)
            )
            m = max(m, 1.0 + reach)
    return m


def solve_centralized(problems, b=None, tol=BALANCE_TOL):
    """Solve the coupled problem; ``b`` defaults to the sum of the shares.

    Returns an :class:`OracleSolution`. For costs with flat regions the
    aggregate response can jump across ``b``; the bracket then collapses onto
    the jump and the achieved ``|sum x - b|`` is reported in ``residual``.
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
        raise InfeasibleTotal(
            f"total {b} outside achievable range [{total_lo}, {total_hi}]"
        )

    # expanding bracket: g is nonincreasing, g(-inf) = sum hi, g(+inf) = sum lo
    m = _initial_bracket_halfwidth(problems)
    lam_lo, lam_hi = -m, m
    sweep = []  # (lam, g) pairs, for the monotonicity assertion
    q = quadratic_arrays(problems)

    def g(lam):
        val = _aggregate(problems, q, lam)
        sweep.append((lam, val))
        return val

    for _ in range(MAX_BRACKET_DOUBLINGS):
        if g(lam_lo) >= b:
            break
        lam_lo *= 2.0
    else:
        raise BracketFailure(f"no lower bracket for total {b} within |lam| <= {abs(lam_lo)}")
    for _ in range(MAX_BRACKET_DOUBLINGS):
        if g(lam_hi) <= b:
            break
        lam_hi *= 2.0
    else:
        raise BracketFailure(f"no upper bracket for total {b} within |lam| <= {lam_hi}")

    lam = 0.5 * (lam_lo + lam_hi)
    for _ in range(MAX_BISECTIONS):
        lam = 0.5 * (lam_lo + lam_hi)
        val = g(lam)
        if abs(val - b) <= tol:
            break
        if val > b:
            lam_lo = lam
        else:
            lam_hi = lam
        if lam_hi - lam_lo <= 1e-16 * max(1.0, abs(lam_lo), abs(lam_hi)):
            break  # bracket collapsed onto a jump of g (flat-cost plateau)

    # slack covers argmin-oracle noise (golden section localizes to ~sqrt(eps))
    total_width = math.fsum(p.interval.width for p in problems)
    slack = 1e-9 + 1e-7 * total_width
    ordered = sorted(sweep)
    for (l1, g1), (l2, g2) in zip(ordered, ordered[1:]):
        if l2 > l1 and g2 > g1 + slack:
            raise AssertionError(
                f"aggregate response not nonincreasing: g({l1})={g1}, g({l2})={g2}"
            )

    x = np.array([primal_argmin(p, lam) for p in problems])
    f = math.fsum(p.cost.value(x[i]) for i, p in enumerate(problems))
    residual = abs(math.fsum(x.tolist()) - b)
    return OracleSolution(x_star=x, f_star=f, lam_star=float(lam), residual=residual)


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

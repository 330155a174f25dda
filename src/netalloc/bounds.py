"""Evaluate convergence bounds against recorded traces.

Three bound families are checked, all driven by the subgradient bound ``C``,
the spectral gap ``sigma2`` of the weight matrix, and the initial multipliers:

- per-iteration consensus error:
  ``|lam_i(k) - mean(k)| <= sigma2**k * l1(lam(0))
    + sqrt(n) * C * sum_{t<k} alpha(t) * sigma2**(k-1-t)``
- cumulative weighted consensus error (``1/sqrt(k)`` schedule only):
  ``sum_{k<=K} alpha(k) |lam_i(k) - mean(k)|
    <= (l1(lam(0)) + sqrt(n) * C * (2 + ln K)) / (1 - sigma2)``
- dual gap of the time-weighted average (``1/sqrt(k)`` schedule only):
  ``q(avg_i * ones) - q(lam_star * ones)
    <= l2(lam(0) - lam_star)^2 / (4 sqrt(K))
     + (4 sqrt(n) C l1(lam(0)) + 5 n C^2 (2 + ln K)) / (4 (1 - sigma2) sqrt(K))``

Every bound requires a nonincreasing schedule with ``alpha(0) = 1``;
evaluation refuses schedules that break the hypotheses instead of producing
meaningless numbers. The optimal multiplier ``lam_star`` is an input (from the
centralized oracle), never estimated from the trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation
from .graphs import WeightMatrix
from .objectives import dual_value, quadratic_arrays, subgradient_bound
from .schedules import RecipSqrt

GAP_NONNEGATIVITY_TOL = 1e-9

_ROW = "%d,%.17g,%.17g,%.17g,%d\n"


def global_subgradient_bound(problems):
    """Network-wide subgradient bound ``C``: the max of the per-node bounds."""
    problems = tuple(problems)
    if not problems:
        raise ValueError("need at least one problem")
    return max(subgradient_bound(p) for p in problems)


def _require_normalized(sched):
    a0 = sched.alpha(0)
    if a0 != 1.0:
        raise HypothesisViolation(
            f"schedule {getattr(sched, 'name', sched)!r} has alpha(0) = {a0}, bounds require alpha(0) = 1"
        )


def consensus_error_bound(k, sched, sigma2, lam0_l1, C, n):
    """Per-iteration consensus-error bound, evaluated by direct summation.

    The geometric sum is accumulated smallest-first with exact rounding since
    it is ill-conditioned for ``sigma2`` near 1.
    """
    _require_normalized(sched)
    k = int(k)
    if k < 0:
        raise ValueError(f"iteration index must be nonnegative, got {k}")
    return _consensus_bound(k, sched.alphas(k), sigma2, lam0_l1, C, n)


def _consensus_bound(k, alphas, sigma2, lam0_l1, C, n):
    """:func:`consensus_error_bound` at ``k`` from a prefix ``alphas[:k]`` of the schedule."""
    head = (sigma2**k if k > 0 else 1.0) * lam0_l1
    if k == 0:
        return float(head)
    powers = sigma2 ** np.arange(k - 1, -1, -1, dtype=float)
    terms = np.sort(alphas[:k] * powers)
    return float(head + math.sqrt(n) * C * math.fsum(terms.tolist()))


def weighted_consensus_bound(K, sigma2, lam0_l1, C, n, sched=None):
    """Bound on the alpha-weighted cumulative consensus error up to ``K``.

    Stated for the ``1/sqrt(k)`` schedule; any other schedule is refused.
    """
    K = int(K)
    if K < 1:
        raise ValueError(f"checkpoint must be at least 1, got {K}")
    if sched is not None and not isinstance(sched, RecipSqrt):
        raise HypothesisViolation(
            f"weighted consensus bound is stated for the 1/sqrt(k) schedule, got {getattr(sched, 'name', sched)!r}"
        )
    return float((lam0_l1 + math.sqrt(n) * C * (2.0 + math.log(K))) / (1.0 - sigma2))


def rate_bound(K, n, sigma2, C, lam0, lamstar):
    """Bound on the dual gap of the time-weighted average at checkpoint ``K``."""
    K = int(K)
    if K < 1:
        raise ValueError(f"checkpoint must be at least 1, got {K}")
    lam0 = np.asarray(lam0, dtype=float)
    dist_sq = float(((lam0 - lamstar) ** 2).sum())
    lam0_l1 = float(np.abs(lam0).sum())
    root_k = math.sqrt(K)
    lead = dist_sq / (4.0 * root_k)
    tail = (4.0 * math.sqrt(n) * C * lam0_l1 + 5.0 * n * C * C * (2.0 + math.log(K))) / (
        4.0 * (1.0 - sigma2) * root_k
    )
    return lead + tail


def default_checkpoints(iterations):
    """Powers of ten up to the run length, plus the final iteration."""
    ks = []
    p = 1
    while p <= iterations:
        ks.append(p)
        p *= 10
    if iterations >= 1 and iterations not in ks:
        ks.append(iterations)
    return ks


@dataclass
class BoundReport:
    """Observed quantities, bound values, and satisfaction flags for one trace.

    Rows are ``(k, observed, bound, slack, satisfied)`` with
    ``slack = bound - observed``.
    """

    n: int
    sigma2: float
    C: float
    lam0_l1: float
    lamstar: float
    schedule_name: str
    consensus_rows: list = field(default_factory=list)
    weighted_rows: list = field(default_factory=list)
    gap_rows: list = field(default_factory=list)
    min_gap: float = math.inf

    @property
    def gap_nonnegative(self):
        return self.min_gap >= -GAP_NONNEGATIVITY_TOL

    @property
    def all_satisfied(self):
        rows = self.consensus_rows + self.weighted_rows + self.gap_rows
        return all(r[4] for r in rows) and self.gap_nonnegative

    @property
    def worst_slack(self):
        rows = self.consensus_rows + self.weighted_rows + self.gap_rows
        return min((r[3] for r in rows), default=math.inf)

    def summary_json(self):
        """One-line summary of worst slack and bound parameters."""
        return json.dumps(
            {
                "n": self.n,
                "sigma2": self.sigma2,
                "C": self.C,
                "worst_slack": self.worst_slack,
                "min_gap": None if math.isinf(self.min_gap) else self.min_gap,
                "all_satisfied": self.all_satisfied,
            },
            sort_keys=True,
        )

    def to_csv(self, path):
        """Write all checks as CSV sections sharing the header ``k,observed,bound,slack,satisfied``."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("k,observed,bound,slack,satisfied\n")
            for label, rows in (
                ("consensus-error", self.consensus_rows),
                ("weighted-consensus", self.weighted_rows),
                ("dual-gap", self.gap_rows),
            ):
                fh.write(f"# {label}\n")
                for k, observed, bound, slack, satisfied in rows:
                    fh.write(_ROW % (k, observed, bound, slack, int(satisfied)))
            fh.write(f"# summary {self.summary_json()}\n")


def _dual_sum(problems):
    """``lam -> sum_i q_i(lam)``, one ``fsum`` over the nodes' dual values.

    On strictly convex quadratics the dual values are one numpy vector with
    the bits of :func:`dual_value`; any other cost is evaluated per node.
    """
    q = quadratic_arrays(problems)
    if q is None:
        return lambda lam: math.fsum(dual_value(p, lam) for p in problems)
    shares = np.array([p.share for p in problems], dtype=float)

    def dual_sum(lam):
        x_hat = q.argmin(lam)
        return math.fsum((-(q.value(x_hat) + lam * (x_hat - shares))).tolist())

    return dual_sum


def check_bounds(trace, problems, A, lamstar, checkpoints=None, consensus_upto=None):
    """Evaluate every applicable bound against a recorded trace.

    The per-iteration consensus bound is checked at every ``k`` up to
    ``consensus_upto`` (default: the whole trace). The weighted-consensus and
    dual-gap bounds apply only under the ``1/sqrt(k)`` schedule and are
    evaluated at ``checkpoints`` (default: powers of ten). Raises
    :class:`HypothesisViolation` when no bound's hypotheses hold.
    """
    problems = tuple(problems)
    sched = trace.schedule
    _require_normalized(sched)
    sigma2 = A.sigma2 if isinstance(A, WeightMatrix) else float(A)
    n = trace.n
    C = global_subgradient_bound(problems)
    lam0 = trace.lam[0]
    lam0_l1 = float(np.abs(lam0).sum())
    report = BoundReport(
        n=n,
        sigma2=sigma2,
        C=C,
        lam0_l1=lam0_l1,
        lamstar=float(lamstar),
        schedule_name=getattr(sched, "name", str(sched)),
    )

    T = trace.iterations
    upto = T if consensus_upto is None else min(int(consensus_upto), T)
    spreads = trace.spreads()
    alphas = sched.alphas(upto)
    for k in range(upto + 1):
        bound = _consensus_bound(k, alphas, sigma2, lam0_l1, C, n)
        observed = float(spreads[k])
        report.consensus_rows.append(
            (k, observed, bound, bound - observed, observed <= bound)
        )

    if isinstance(sched, RecipSqrt):
        ks = default_checkpoints(T) if checkpoints is None else sorted(set(int(k) for k in checkpoints))
        if any(k < 1 or k > T for k in ks):
            raise ValueError(f"checkpoints {ks} outside trace range [1, {T}]")
        alphas = sched.alphas(T + 1)
        mean = trace.mean_multipliers()
        weighted_err = alphas[:, None] * np.abs(trace.lam - mean[:, None])
        cum_err = np.cumsum(weighted_err, axis=0)
        dual_sum = _dual_sum(problems)
        q_star = dual_sum(lamstar)
        for K in ks:
            observed = float(cum_err[K].max())
            bound = weighted_consensus_bound(K, sigma2, lam0_l1, C, n, sched)
            report.weighted_rows.append(
                (K, observed, bound, bound - observed, observed <= bound)
            )

            averages = trace.time_weighted_averages(K)
            gaps = [dual_sum(avg) - q_star for avg in averages]
            worst = max(gaps)
            report.min_gap = min(report.min_gap, min(gaps))
            bound = rate_bound(K, n, sigma2, C, lam0, lamstar)
            report.gap_rows.append((K, worst, bound, bound - worst, worst <= bound))

    return report

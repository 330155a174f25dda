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
from .graphs import _require_weight_matrix
from .objectives import NodeCosts, subgradient_bound
from .schedules import RecipSqrt
from .simulator import _deviations, _row_blocks, _running_sums, _spreads, _weighted_multipliers

GAP_NONNEGATIVITY_TOL = 1e-9

_ROW = "%d,%.17g,%.17g,%.17g,%d\n"


def global_subgradient_bound(problems):
    """Network-wide subgradient bound ``C``: the max of the per-node bounds."""
    problems = tuple(problems)
    if not problems:
        raise ValueError("need at least one problem")
    return max(subgradient_bound(p) for p in problems)


def _require_normalized(sched):
    if not sched.normalized:
        raise HypothesisViolation(
            f"schedule {getattr(sched, 'name', sched)!r} has alpha(0) = {sched.alpha(0)}, bounds require alpha(0) = 1"
        )


def consensus_error_bound(k, sched, sigma2, lam0_l1, C, n):
    """Per-iteration consensus-error bound at ``k``, as :func:`check_bounds`
    computes it (:func:`_consensus_bounds`)."""
    _require_normalized(sched)
    k = int(k)
    if k < 0:
        raise ValueError(f"iteration index must be nonnegative, got {k}")
    return _consensus_bounds(k, sched.alphas(k), sigma2, lam0_l1, C, n)[k]


def _consensus_bounds(upto, alphas, sigma2, lam0_l1, C, n):
    """Consensus-error bounds at ``k = 0 .. upto`` from the schedule's first
    ``upto`` values ``alphas``.

    The geometric term ``S(k) = sum_{t<k} alpha(t) * sigma2**(k-1-t)`` comes
    from ``S(k) = sigma2 * S(k-1) + alpha(k-1)``, ``S(0) = 0``: one multiply
    and one add per ``k``, O(upto) in all. Its terms are positive and
    ``sigma2 <= 1`` damps the errors of earlier steps, so ``S(k)`` is within
    about ``2 k eps`` relative of its exact value.
    """
    tails = [0.0]
    for alpha in alphas[:upto].tolist():
        tails.append(sigma2 * tails[-1] + alpha)
    scale = math.sqrt(n) * C
    return [float(sigma2**k * lam0_l1 + scale * tail) for k, tail in enumerate(tails)]


def weighted_consensus_bound(K, sigma2, lam0_l1, C, n):
    """Bound on the alpha-weighted cumulative consensus error up to ``K``.

    Stated for the ``1/sqrt(k)`` schedule, which :func:`check_bounds` requires.
    """
    K = int(K)
    if K < 1:
        raise ValueError(f"checkpoint must be at least 1, got {K}")
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


def resolve_checks(T, checkpoints=None, consensus_upto=None):
    """``(checkpoints, upto)`` for checking a trace of ``T`` rounds.

    Checkpoints default to :func:`default_checkpoints`; given ones are sorted,
    deduplicated and must lie in ``[1, T]``. The consensus horizon must be
    nonnegative; it defaults to ``T`` and is capped at ``T``.
    """
    if checkpoints is None:
        ks = default_checkpoints(T)
    else:
        ks = sorted(set(int(k) for k in checkpoints))
        if any(k < 1 or k > T for k in ks):
            raise ValueError(f"checkpoints {ks} must lie in [1, {T}]")
    upto = T if consensus_upto is None else int(consensus_upto)
    if upto < 0:
        raise ValueError(f"consensus_upto must be nonnegative, got {upto}")
    return ks, min(upto, T)


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


def _dual_sums(problems):
    """``lam -> [sum_i q_i(lam), ...]`` for one shared multiplier or a column
    ``(B, 1)`` of them: one ``fsum`` per multiplier over the nodes' dual
    values, which have the bits of :func:`~netalloc.objectives.dual_value`."""
    costs = NodeCosts(problems)
    shares = np.array([p.share for p in problems], dtype=float)

    def dual_sums(lam):
        x_hat = costs.argmin(lam)
        terms = -(costs.value(x_hat) + lam * (x_hat - shares))
        return [math.fsum(row) for row in terms.reshape(-1, shares.size).tolist()]

    return dual_sums


def _row(k, observed, bound):
    return (k, observed, bound, bound - observed, observed <= bound)


def check_bounds(trace, problems, A, lamstar, checkpoints=None, consensus_upto=None):
    """Evaluate every applicable bound against a recorded trace.

    ``A`` is the run's :class:`~netalloc.graphs.WeightMatrix`, whose derived
    ``sigma2`` feeds every bound. The per-iteration consensus bound is checked
    at every ``k`` up to ``consensus_upto`` and the weighted-consensus and
    dual-gap bounds at ``checkpoints``, both as :func:`resolve_checks` decides.
    The last two apply only under the ``1/sqrt(k)`` schedule. Raises
    :class:`HypothesisViolation` for a schedule with ``alpha(0) != 1``,
    TypeError for any other ``A``, and ValueError for a non-finite ``lamstar``,
    problems or an ``A`` whose size is not the trace's, or checks that
    :func:`resolve_checks` refuses.

    Memory beyond the trace is one block of about 4096 cells, besides the
    report: the spreads are computed for the ``consensus_upto + 1`` reported
    rows only, and one pass over row blocks carries the weighted consensus
    error and ``sum alpha(k) lam(k)`` of the time-weighted averages, taking
    both at each checkpoint, with the bits of the whole-array ``cumsum`` and
    ``sum``.
    """
    T = trace.iterations
    checkpoints, upto = resolve_checks(T, checkpoints, consensus_upto)
    _require_weight_matrix(A)
    if not math.isfinite(lamstar):
        raise ValueError(f"lamstar must be finite, got {float(lamstar)!r}")
    problems = tuple(problems)
    n = trace.n
    if A.n != n:
        raise ValueError(f"weight matrix has n={A.n}, trace has n={n}")
    if len(problems) != n:
        raise ValueError(f"{len(problems)} problems for a trace with n={n}")
    sched = trace.schedule
    _require_normalized(sched)
    sigma2 = A.sigma2
    C = global_subgradient_bound(problems)
    lam0 = trace.lam[0]
    lam0_l1 = float(np.abs(lam0).sum())
    report = BoundReport(n=n, sigma2=sigma2, C=C, lam0_l1=lam0_l1)

    observed = _spreads(trace.lam[: upto + 1]).tolist()
    bounds = _consensus_bounds(upto, sched.alphas(upto), sigma2, lam0_l1, C, n)
    report.consensus_rows = [_row(k, *pair) for k, pair in enumerate(zip(observed, bounds))]

    if isinstance(sched, RecipSqrt):
        alphas = sched.alphas(T + 1)

        def terms(r0, r1):
            # the weighted consensus error and alpha(k) * lam(k), side by side
            err = alphas[r0:r1, None] * _deviations(trace.lam[r0:r1])
            return np.hstack([err, _weighted_multipliers(alphas, trace.lam, r0, r1)])

        dual_sums = _dual_sums(problems)
        (q_star,) = dual_sums(lamstar)
        for K, sums in zip(checkpoints, _running_sums(terms, checkpoints, 2 * n)):
            bound = weighted_consensus_bound(K, sigma2, lam0_l1, C, n)
            report.weighted_rows.append(_row(K, float(sums[:n].max()), bound))

            # the dual at each node's time-weighted average, in blocks of about CSV_BLOCK_CELLS cells
            avgs = (sums[n:] / alphas[: K + 1].sum())[:, None]
            gaps = [q - q_star for r0, r1 in _row_blocks(n, n) for q in dual_sums(avgs[r0:r1])]
            report.min_gap = min(report.min_gap, min(gaps))
            report.gap_rows.append(_row(K, max(gaps), rate_bound(K, n, sigma2, C, lam0, lamstar)))

    return report

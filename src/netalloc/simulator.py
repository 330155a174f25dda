"""Deterministic synchronous-round simulator for the distributed Lagrangian method.

Each round ``k`` performs, for every node ``i``:

1. consensus:      ``v_i = sum_j a_ij * lam_j``          (neighbors only)
2. primal step:    ``x_i = argmin f_i(x) + v_i*(x - b_i)`` over ``X_i``
3. dual step:      ``lam_i = v_i - alpha(k) * (b_i - x_i)``

Step 3 moves opposite the dual subgradient ``b_i - x_i`` of the node's convex
dual piece ``q_i``, which drives the multiplier copies toward the common dual
optimum while consensus keeps them together. Runs are bitwise deterministic:
all reductions use fixed numpy pairwise summation and the vectorized quadratic
fast path performs exactly the same IEEE operations as the per-node path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import WeightMatrix
from .objectives import Quadratic, primal_argmin


def _fmt(x):
    return format(float(x), ".17g")


def _entries(A):
    return A.entries if isinstance(A, WeightMatrix) else np.asarray(A, dtype=float)


def consensus_step(A, lams):
    """One averaging round ``A @ lams``.

    Entry ``i`` of the result depends only on node ``i`` and its neighbors
    thanks to the sparsity of ``A``.
    """
    a = _entries(A)
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (a.shape[0],):
        raise ValueError(f"multiplier vector shape {lams.shape} does not match matrix {a.shape}")
    return (a * lams).sum(axis=1)


def lagrangian_value(problems, x, mults):
    """Global Lagrangian ``sum_i f_i(x_i) + mults_i * (x_i - b_i)``."""
    problems = tuple(problems)
    x = np.asarray(x, dtype=float)
    mults = np.asarray(mults, dtype=float)
    if x.shape != (len(problems),) or mults.shape != (len(problems),):
        raise ValueError("dimension mismatch between problems, x, and mults")
    return math.fsum(
        p.cost.value(x[i]) + mults[i] * (x[i] - p.share) for i, p in enumerate(problems)
    )


@dataclass
class RunTrace:
    """Complete record of a simulation run.

    Row ``k`` of the arrays holds the state at time ``k``; row 0 is the
    initial state (``v`` row 0 repeats the initial multipliers since no
    consensus has happened yet). There are ``iterations + 1`` rows.
    """

    problems: tuple
    b: np.ndarray
    schedule: object
    x: np.ndarray
    lam: np.ndarray
    v: np.ndarray

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def iterations(self):
        return self.x.shape[0] - 1

    def residuals(self):
        """Signed primal residual ``sum_i (x_i(k) - b_i)`` per row."""
        return (self.x - self.b).sum(axis=1)

    def mean_multipliers(self):
        return self.lam.mean(axis=1)

    def spreads(self):
        """Multiplier disagreement ``max_i |lam_i(k) - mean(k)|`` per row."""
        mean = self.mean_multipliers()
        return np.abs(self.lam - mean[:, None]).max(axis=1)

    def lagrangians(self):
        """Monitored Lagrangian per row: ``L(x(k), lam(k-1))``, row 0 uses ``lam(0)``."""
        out = np.empty(self.x.shape[0])
        out[0] = lagrangian_value(self.problems, self.x[0], self.lam[0])
        for k in range(1, self.x.shape[0]):
            out[k] = lagrangian_value(self.problems, self.x[k], self.lam[k - 1])
        return out

    def total_cost(self, k=-1):
        """Total cost ``sum_i f_i(x_i(k))`` at row ``k`` (default: final row)."""
        row = self.x[k]
        return math.fsum(p.cost.value(row[i]) for i, p in enumerate(self.problems))

    def time_weighted_averages(self, upto=None):
        """Per-node averages ``sum_{k<=K} alpha(k) lam_i(k) / sum alpha(k)``.

        ``upto`` defaults to the last recorded row.
        """
        K = self.iterations if upto is None else int(upto)
        if not 0 <= K <= self.iterations:
            raise ValueError(f"checkpoint {K} outside recorded range [0, {self.iterations}]")
        alphas = self.schedule.alphas(K + 1)
        return (alphas[:, None] * self.lam[: K + 1]).sum(axis=0) / alphas.sum()

    def to_csv(self, path):
        """Write the per-node trace: header ``k,node,x,lambda,v``, 17 significant digits."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("k,node,x,lambda,v\n")
            for k in range(self.x.shape[0]):
                for i in range(self.n):
                    fh.write(
                        f"{k},{i},{_fmt(self.x[k, i])},{_fmt(self.lam[k, i])},{_fmt(self.v[k, i])}\n"
                    )

    def summary_to_csv(self, path):
        """Write derived columns: header ``k,residual,lagrangian,spread``."""
        residuals = self.residuals()
        lagrangians = self.lagrangians()
        spreads = self.spreads()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("k,residual,lagrangian,spread\n")
            for k in range(self.x.shape[0]):
                fh.write(f"{k},{_fmt(residuals[k])},{_fmt(lagrangians[k])},{_fmt(spreads[k])}\n")

    @classmethod
    def from_csv(cls, path, problems, schedule):
        """Rebuild a trace from a CSV written by :meth:`to_csv`.

        Every ``(k, node)`` cell with ``0 <= k <= max k`` and ``0 <= node < n``
        must appear exactly once. A negative ``k``, an out-of-range node or a
        repeated row raises ValueError naming its line; a missing row raises
        ValueError naming its cell.
        """
        problems = tuple(problems)
        n = len(problems)
        linenos, ks, nodes, values = [], [], [], []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "k,node,x,lambda,v":
                raise ValueError(f"unexpected trace header {header!r}")
            for lineno, raw in enumerate(fh, start=2):
                raw = raw.strip()
                if not raw:
                    continue
                parts = raw.split(",")
                if len(parts) != 5:
                    raise ValueError(f"malformed trace row {raw!r}")
                linenos.append(lineno)
                ks.append(int(parts[0]))
                nodes.append(int(parts[1]))
                values.append((float(parts[2]), float(parts[3]), float(parts[4])))
        if not linenos:
            raise ValueError("empty trace file")
        ks = np.array(ks)
        nodes = np.array(nodes)
        bad = (ks < 0) | (nodes < 0) | (nodes >= n)
        if bad.any():
            r = int(np.argmax(bad))
            if ks[r] < 0:
                raise ValueError(f"line {linenos[r]}: negative iteration k={ks[r]}")
            raise ValueError(f"line {linenos[r]}: node index {nodes[r]} outside [0,{n})")
        T = int(ks.max())
        cells = ks * n + nodes
        order = np.argsort(cells, kind="stable")
        ordered = cells[order]
        repeats = order[1:][ordered[1:] == ordered[:-1]]
        if repeats.size:
            r = int(repeats.min())  # first repeat in file order
            raise ValueError(f"line {linenos[r]}: repeated row for k={ks[r]}, node={nodes[r]}")
        # the cells are now distinct, so the first gap in their sorted order is
        # the first missing one
        gaps = np.flatnonzero(ordered != np.arange(cells.size))
        if gaps.size or cells.size != (T + 1) * n:
            k, i = divmod(int(gaps[0]) if gaps.size else cells.size, n)
            raise ValueError(f"trace has no row for k={k}, node={i}")
        data = np.empty((3, cells.size))
        data[:, cells] = np.array(values).T
        x, lam, v = (col.reshape(T + 1, n) for col in data)
        b = np.array([p.share for p in problems], dtype=float)
        return cls(problems=problems, b=b, schedule=schedule, x=x, lam=lam, v=v)


def run_dlm(problems, A, sched, iters, init_lams=None):
    """Run ``iters`` synchronous rounds and return the complete trace.

    Defaults: multipliers start at zero and the recorded initial allocation is
    the midpoint of each interval. Identical inputs produce bitwise-identical
    traces.
    """
    problems = tuple(problems)
    n = len(problems)
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    iters = int(iters)
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    a = _entries(A)
    if a.shape != (n, n):
        raise ValueError(f"weight matrix shape {a.shape} does not match {n} problems")
    b = np.array([p.share for p in problems], dtype=float)
    if init_lams is None:
        lam = np.zeros(n)
    else:
        lam = np.array(init_lams, dtype=float)
        if lam.shape != (n,):
            raise ValueError(f"init_lams shape {lam.shape} does not match {n} nodes")
    alphas = sched.alphas(iters)

    x_hist = np.empty((iters + 1, n))
    lam_hist = np.empty((iters + 1, n))
    v_hist = np.empty((iters + 1, n))
    x_hist[0] = [p.interval.midpoint for p in problems]
    lam_hist[0] = lam
    v_hist[0] = lam

    all_quadratic = all(isinstance(p.cost, Quadratic) and p.cost.gamma > 0.0 for p in problems)
    if all_quadratic:
        gamma = np.array([p.cost.gamma for p in problems])
        beta = np.array([p.cost.beta for p in problems])
        lo = np.array([p.interval.lo for p in problems])
        hi = np.array([p.interval.hi for p in problems])

    for k in range(iters):
        a_k = alphas[k]
        v = consensus_step(a, lam)
        if all_quadratic:
            x = np.minimum(np.maximum((-v - beta) / (2.0 * gamma), lo), hi)
        else:
            x = np.array([primal_argmin(p, v[i]) for i, p in enumerate(problems)])
        lam = v - a_k * (b - x)
        x_hist[k + 1] = x
        lam_hist[k + 1] = lam
        v_hist[k + 1] = v

    return RunTrace(
        problems=problems,
        b=b,
        schedule=sched,
        x=x_hist,
        lam=lam_hist,
        v=v_hist,
    )

"""Deterministic synchronous-round simulator for the distributed Lagrangian method.

Each round ``k`` performs, for every node ``i``:

1. consensus:      ``v_i = sum_j a_ij * lam_j``          (neighbors only)
2. primal step:    ``x_i = argmin f_i(x) + v_i*(x - b_i)`` over ``X_i``
3. dual step:      ``lam_i = v_i - alpha(k) * (b_i - x_i)``

Step 3 moves opposite the dual subgradient ``b_i - x_i`` of the node's convex
dual piece ``q_i``, which drives the multiplier copies toward the common dual
optimum while consensus keeps them together. Runs are bitwise deterministic:
all reductions use fixed numpy pairwise summation.

Vectorised paths. When every cost is a strictly convex quadratic
(:func:`~netalloc.objectives.quadratic_arrays`), the primal step of a round and
the cost and multiplier terms of :meth:`RunTrace.lagrangians` are numpy
expressions over all nodes. They perform, element by element, the same IEEE
operations in the same order as the per-node path, and each Lagrangian row is
still one ``math.fsum`` over its nodes' terms, which is exact whatever the
order; so both paths give the same bits. Any other cost takes the per-node
path. The CSV writers format ``.tolist()`` slices of about
:data:`CSV_BLOCK_CELLS` cells with one ``%``-template; ``"%.17g" % x`` gives
the same text as ``format(x, ".17g")``, and blocking keeps peak memory
independent of the run length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import WeightMatrix
from .objectives import primal_argmin, quadratic_arrays

# Cells (one node at one round) formatted or summed per block by the writers.
CSV_BLOCK_CELLS = 4096

_TRACE_ROW = "%d,%d,%.17g,%.17g,%.17g\n"
_TRACE_DTYPE = [("k", "i8"), ("node", "i8"), ("x", "f8"), ("lambda", "f8"), ("v", "f8")]
_SUMMARY_ROW = "%d,%.17g,%.17g,%.17g\n"


def _row_blocks(rows, width):
    """``(k0, k1)`` row ranges of about :data:`CSV_BLOCK_CELLS` cells of ``width`` columns."""
    step = max(1, CSV_BLOCK_CELLS // width)
    for k0 in range(0, rows, step):
        yield k0, min(rows, k0 + step)


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
    return _average(a, lams, np.empty_like(a))


def _average(a, lams, buf):
    """``(a * lams).sum(axis=1)`` with the products written into ``buf``.

    ``buf`` has ``a``'s shape and memory layout (:func:`numpy.empty_like`), so
    the row sums see the same products in the same order as ``a * lams`` and
    give its bits; :func:`run_dlm` reuses one ``buf`` for every round.
    """
    return np.multiply(a, lams, out=buf).sum(axis=1)


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
        rows = self.x.shape[0]
        prev = np.maximum(np.arange(rows) - 1, 0)
        q = quadratic_arrays(self.problems)
        if q is None:
            return np.array(
                [lagrangian_value(self.problems, self.x[k], self.lam[j]) for k, j in enumerate(prev)]
            )
        out = np.empty(rows)
        for k0, k1 in _row_blocks(rows, self.n):
            x = self.x[k0:k1]
            terms = q.value(x) + self.lam[prev[k0:k1]] * (x - self.b)
            out[k0:k1] = [math.fsum(row) for row in terms.tolist()]
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
        n = self.n
        nodes = list(range(n))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("k,node,x,lambda,v\n")
            for k0, k1 in _row_blocks(self.x.shape[0], n):
                cells = zip(
                    np.repeat(np.arange(k0, k1), n).tolist(),
                    nodes * (k1 - k0),
                    self.x[k0:k1].ravel().tolist(),
                    self.lam[k0:k1].ravel().tolist(),
                    self.v[k0:k1].ravel().tolist(),
                )
                fh.write("".join(map(_TRACE_ROW.__mod__, cells)))

    def summary_to_csv(self, path):
        """Write derived columns: header ``k,residual,lagrangian,spread``."""
        residuals = self.residuals()
        lagrangians = self.lagrangians()
        spreads = self.spreads()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("k,residual,lagrangian,spread\n")
            for k0, k1 in _row_blocks(self.x.shape[0], 4):
                rows = zip(
                    range(k0, k1),
                    residuals[k0:k1].tolist(),
                    lagrangians[k0:k1].tolist(),
                    spreads[k0:k1].tolist(),
                )
                fh.write("".join(map(_SUMMARY_ROW.__mod__, rows)))

    @classmethod
    def from_csv(cls, path, problems, schedule):
        """Rebuild a trace from a CSV written by :meth:`to_csv`.

        Every ``(k, node)`` cell with ``0 <= k <= max k`` and ``0 <= node < n``
        must appear exactly once. A row with the wrong number of fields, a
        malformed or non-finite number, a negative ``k``, an out-of-range node
        or a repeated row raises ValueError naming its line; a missing row
        raises ValueError naming its cell. Blank lines are skipped.

        The body is read by one call to numpy's C text reader
        (:func:`numpy.loadtxt`). Line numbers matter only in an error, so the
        per-line scan (:func:`_scan_rows`) runs only when that reader rejects
        the file or a line-naming check fails; it names the line and accepts
        what the bulk reader is stricter about (whitespace-only lines, ``1_0``,
        non-ASCII digits, integers beyond int64). Both feed the same checks.
        """
        problems = tuple(problems)
        n = len(problems)
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "k,node,x,lambda,v":
                raise ValueError(f"unexpected trace header {header!r}")
            rows = _load_rows(fh)
        checked = None
        if rows is not None:
            cols = (rows["x"], rows["lambda"], rows["v"])
            try:
                checked = _trace_arrays(rows["k"], rows["node"], cols, None, n)
            except _NeedLineNumbers:
                pass  # the scan names the line
        if checked is None:
            checked = _trace_arrays(*_scan_rows(path), n)
        x, lam, v = checked
        b = np.array([p.share for p in problems], dtype=float)
        return cls(problems=problems, b=b, schedule=schedule, x=x, lam=lam, v=v)


class _NeedLineNumbers(Exception):
    """A trace check failed on rows read without their line numbers."""


def _load_rows(fh):
    """The remaining rows of ``fh`` as one :data:`_TRACE_DTYPE` array, or None
    when numpy's reader rejects them.

    ``comments=None`` keeps ``#`` an ordinary, malformed character. The
    reader's row index skips blank lines, so it is never used as a line
    number. A deprecated conversion counts as a rejection (numpy < 2 parses
    ``1.0`` as an integer with a DeprecationWarning; the per-line scan does
    not accept it).
    """
    with warnings.catch_warnings():
        # an empty body is reported by the checks
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(fh, delimiter=",", dtype=_TRACE_DTYPE, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _scan_rows(path):
    """Parse the trace body line by line: ``(ks, nodes, cols, linenos)``.

    Lines that are empty after stripping whitespace are skipped; a row with
    the wrong number of fields or a malformed number raises ValueError naming
    its line.
    """
    linenos, ks, nodes, values = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # the header, already checked
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(",")
            if len(parts) != 5:
                raise ValueError(
                    f"line {lineno}: malformed trace row {raw!r}: "
                    f"expected 5 fields, got {len(parts)}"
                )
            try:
                ks.append(int(parts[0]))
                nodes.append(int(parts[1]))
                values.append((float(parts[2]), float(parts[3]), float(parts[4])))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed trace row {raw!r}: {exc}") from None
            linenos.append(lineno)
    return np.array(ks), np.array(nodes), np.array(values).T, linenos


def _trace_arrays(ks, nodes, cols, linenos, n):
    """Check the rows and scatter them into ``(x, lam, v)``, each ``(T + 1, n)``.

    ``cols`` holds the ``x``, ``lambda`` and ``v`` columns in row order.
    A check that names a line raises :class:`_NeedLineNumbers` when
    ``linenos`` is None.
    """

    def reject(r, message):
        if linenos is None:
            raise _NeedLineNumbers
        raise ValueError(f"line {linenos[r]}: {message}")

    if len(ks) == 0:
        raise ValueError("empty trace file")
    finite = np.isfinite(cols[0]) & np.isfinite(cols[1]) & np.isfinite(cols[2])
    if not finite.all():
        reject(int(np.argmin(finite)), "non-finite value in trace row")
    bad = (ks < 0) | (nodes < 0) | (nodes >= n)
    if bad.any():
        r = int(np.argmax(bad))
        if ks[r] < 0:
            reject(r, f"negative iteration k={ks[r]}")
        reject(r, f"node index {nodes[r]} outside [0,{n})")
    T = int(ks.max())
    cells = ks * n + nodes
    order = np.argsort(cells, kind="stable")
    ordered = cells[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        r = int(repeats.min())  # first repeat in file order
        reject(r, f"repeated row for k={ks[r]}, node={nodes[r]}")
    # the cells are now distinct, so the first gap in their sorted order is
    # the first missing one
    gaps = np.flatnonzero(ordered != np.arange(cells.size))
    if gaps.size or cells.size != (T + 1) * n:
        k, i = divmod(int(gaps[0]) if gaps.size else cells.size, n)
        raise ValueError(f"trace has no row for k={k}, node={i}")
    data = np.empty((3, cells.size))
    for row, col in zip(data, cols):
        row[cells] = col
    return tuple(row.reshape(T + 1, n) for row in data)


def _require_finite(x_hist, lam_hist, v_hist):
    """Raise ValueError naming the first round and node with a non-finite iterate."""
    hists = (x_hist, lam_hist, v_hist)
    if all(np.isfinite(h).all() for h in hists):
        return
    bad = ~np.isfinite(x_hist) | ~np.isfinite(lam_hist) | ~np.isfinite(v_hist)
    k, i = divmod(int(np.argmax(bad)), x_hist.shape[1])
    x, lam, v = (float(h[k, i]) for h in hists)
    raise ValueError(f"non-finite iterate at round k={k}, node {i}: x={x}, lambda={lam}, v={v}")


def run_dlm(problems, A, sched, iters, init_lams=None):
    """Run ``iters`` synchronous rounds and return the complete trace.

    Defaults: multipliers start at zero and the recorded initial allocation is
    the midpoint of each interval. Identical inputs produce bitwise-identical
    traces. A non-finite iterate, including a non-finite initial multiplier
    (round 0), raises ValueError naming the first round and node where one
    appears; the check is one pass over the recorded arrays after the rounds.
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

    q = quadratic_arrays(problems)
    buf = np.empty_like(a)
    # floating-point faults in the loop surface as non-finite iterates, which
    # the pass after it reports with their round
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters):
            a_k = alphas[k]
            v = _average(a, lam, buf)
            if q is not None:
                x = q.argmin(v)
            else:
                x = np.array([primal_argmin(p, v[i]) for i, p in enumerate(problems)])
            lam = v - a_k * (b - x)
            x_hist[k + 1] = x
            lam_hist[k + 1] = lam
            v_hist[k + 1] = v
    _require_finite(x_hist, lam_hist, v_hist)

    return RunTrace(
        problems=problems,
        b=b,
        schedule=sched,
        x=x_hist,
        lam=lam_hist,
        v=v_hist,
    )

"""Deterministic synchronous-round simulator for the distributed Lagrangian method.

Each round ``k`` performs, for every node ``i``:

1. consensus:      ``v_i = sum_j a_ij * lam_j``          (neighbors only)
2. primal step:    ``x_i = argmin f_i(x) + v_i*(x - b_i)`` over ``X_i``
3. dual step:      ``lam_i = v_i - alpha(k) * (b_i - x_i)``

Step 3 moves opposite the dual subgradient ``b_i - x_i`` of the node's convex
dual piece ``q_i``, which drives the multiplier copies toward the common dual
optimum while consensus keeps them together. Runs are bitwise deterministic:
every reduction has a fixed order.

Both :func:`run_dlm` and :func:`consensus_step` take the weight matrix only
as a validated :class:`~netalloc.graphs.WeightMatrix`, and step 1 is one CSR
round in both: the products ``a_ij * lam_j`` over the matrix's stored entries
(its ``data``, with ``indices`` and ``indptr``), then one ``np.add.reduceat``
segment per row, so a round costs O(nnz), not O(n**2). :func:`run_dlm` writes
``v``, ``x`` and ``lam`` straight into its history rows, keeps the products
in one buffer and gathers through one writeable copy of ``indices``, taken
once per run, so a round allocates nothing. On a 2-vCPU VM with numpy 2.4.6 a
whole round (consensus, primal and dual step) took about 35 us on
``synth:7:300`` over a cycle (900 nonzeros), 60 us on a 1000-node cycle and
9 us on ``synth:7``'s bus-derived graph (54 nodes, 1,292 nonzeros). On the
1000-node bus-derived graph, 49 % dense, it took 0.77 ms, against 1.08 ms
when ``take`` copied the read-only ``indices`` in every round.

The primal step of a round and the cost terms of :meth:`RunTrace.lagrangians`
and :meth:`RunTrace.total_cost` go through
:class:`~netalloc.objectives.NodeCosts`, numpy expressions over every node's
quadratic coefficients with the bits of the per-node functions; each
Lagrangian row is one ``math.fsum`` over its nodes' terms.

The CSV writers lay out each block of about :data:`CSV_BLOCK_CELLS` (4096)
cells as fixed-width lines in one numpy byte buffer, fields NUL-padded, and
write it with the NULs dropped, so no Python object is made per cell and peak
memory does not grow with the run length. The values' ``b"%.17g"`` bytes come
from one :class:`~netalloc._g17.G17` call per block, exact by construction:
in fixed notation ``10**(16 - E)`` is an exact double, so Dekker's product
gives ``|v| * 10**(16 - E)`` exactly and its rounding half to even is the 17
digits of ``%.17g`` (see :mod:`netalloc._g17`). Python formats the rest,
round 0's zero multipliers: 0.03 % of the cells of a 5000-round
``builtin:ieee14`` trace, 0.02 % of ``synth:7`` over 5000 rounds and 0.20 %
of ``synth:7:300`` over 500. The writers start no process. On a 2-vCPU VM
with numpy 2.4.6, median of 5 fresh processes, ``to_csv`` took 0.015, 0.091
and 0.055 s on these traces and 0.77 s on a 2000-round ``synth:7:1000`` cycle
(the ``%``-template writer before it: 0.021, 0.19, 0.082 and 1.3 s).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._g17 import G17
from .errors import _field, _unreadable
from .graphs import _require_weight_matrix
from .objectives import NodeCosts

# Cells (one node at one round) formatted or summed per block.
CSV_BLOCK_CELLS = 4096

_TRACE_DTYPE = [("k", "i8"), ("node", "i8"), ("x", "f8"), ("lambda", "f8"), ("v", "f8")]


def _row_blocks(rows, width):
    """``(r0, r1)`` row ranges of about :data:`CSV_BLOCK_CELLS` cells of ``width`` columns."""
    step = max(1, CSV_BLOCK_CELLS // width)
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def _labels(ints, width):
    """``b"%d,"`` of each nonnegative int of ``ints``, after NULs up to ``width`` bytes."""
    out = np.empty((len(ints), width), np.uint8)
    out[:, -1] = ord(",")
    for j in range(width - 2, -1, -1):  # the digits from the last; NULs before the first
        out[:, j] = (ints % 10 + ord("0")) * ((ints > 0) | (j == width - 2))
        ints = ints // 10
    return out


def _write_csv(path, header, cols, nodes=False):
    """Write ``header``, then a line per cell of the ``(rows, cells)`` float
    arrays ``cols``: the row's ``k``, the cell's index if ``nodes``, then that
    cell of every column as ``b"%.17g"``, comma-separated.

    A block of rows is one ``(rows, cells, width)`` byte buffer, each field at
    a fixed offset amid NULs: ``k``, the index, and each value's 24 bytes from
    one :class:`~netalloc._g17.G17` call over the block's cells of all columns,
    then ``,`` or ``\n``. The buffer is written with its NULs dropped, 64 kB at
    a time: no Python object per cell, and the memory of one block.
    """
    cols = [np.asarray(col, dtype=np.float64) for col in cols]
    rows, cells = cols[0].shape
    digits = G17()
    k_width = len(b"%d," % max(rows - 1, 0))
    at = k_width + (len(b"%d," % (cells - 1)) if nodes else 0)  # where the values start
    with open(path, "wb") as fh:
        fh.write(header)
        for r0, r1 in _row_blocks(rows, cells):
            if r0 == 0:  # the first block is the largest: its buffer serves them all
                buf = np.empty((r1, cells, at + 25 * len(cols)), np.uint8)
                if nodes:
                    buf[:, :, k_width:at] = _labels(np.arange(cells), at - k_width)
                buf[:, :, at + 24 :: 25] = ord(",")
                buf[:, :, -1] = ord("\n")
            line = buf[: r1 - r0]
            line[:, :, :k_width] = _labels(np.arange(r0, r1), k_width)[:, None]
            values = digits(np.concatenate([col[r0:r1].ravel() for col in cols]))
            for j, value in enumerate(values.view(np.uint8).reshape(len(cols), r1 - r0, cells, 24)):
                line[:, :, at + 25 * j : at + 25 * j + 24] = value
            for piece in np.split(line.reshape(-1), range(1 << 16, line.size, 1 << 16)):
                fh.write(piece[piece != 0])


def consensus_step(A, lams):
    """One averaging round ``A @ lams``, the round :func:`run_dlm` performs.

    ``A`` is a :class:`~netalloc.graphs.WeightMatrix`; anything else raises
    TypeError. Entry ``i`` of the result sums ``a_ij * lams[j]`` over the
    stored entries of row ``i`` only: node ``i`` and its neighbors.
    """
    _require_weight_matrix(A)
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (A.n,):
        raise ValueError(f"multiplier vector shape {lams.shape} does not match matrix {(A.n, A.n)}")
    return _average(A.indptr, A.indices.copy(), A.data, lams, np.empty(lams.shape), np.empty(A.data.shape))


def _average(indptr, indices, data, lam, out, buf):
    """Write ``sum_j a_ij * lam[j]`` over each row ``i`` of the CSR arrays into ``out``.

    ``buf`` holds the ``nnz`` products; ``np.add.reduceat`` sums each row's
    segment of them, in a fixed order. Every row has a stored entry (its
    diagonal), so no segment is empty. ``indices`` must be writeable: given a
    read-only index array, as a :class:`~netalloc.graphs.WeightMatrix` holds
    it, numpy 2.4's ``take`` copies it on every call.
    """
    lam.take(indices, out=buf, mode="clip")  # indices are in range; "clip" skips a buffer
    np.multiply(data, buf, out=buf)
    return np.add.reduceat(buf, indptr[:-1], out=out)


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

    Memory: the three ``(T + 1, n)`` arrays plus one block. Every quantity
    derived from them (:meth:`residuals`, :meth:`spreads`,
    :meth:`lagrangians`, :meth:`time_weighted_averages`, the rows of
    :meth:`summary_to_csv` and :meth:`to_csv`) is computed over row blocks of
    about :data:`CSV_BLOCK_CELLS` (4096) cells, so no
    temporary has the trace's shape; what remains grows with the rows only,
    one float per row and quantity. A per-row value depends on no other row,
    so blocking leaves its bits alone, and a sum over rows carries from block
    to block in row order, with the bits of numpy's whole-array ``sum`` and
    ``cumsum``. A 2000-round ``synth:7:1000`` run over a cycle, whose trace
    takes 48 MB, peaks at about 93 MB RSS, 31 MB of it the imports.
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
        return _by_row_blocks(lambda x: (x - self.b).sum(axis=1), self.x)

    def spreads(self):
        """Multiplier disagreement ``max_i |lam_i(k) - mean(k)|`` per row."""
        return _spreads(self.lam)

    def lagrangians(self):
        """Monitored Lagrangian per row: ``L(x(k), lam(k-1))``, row 0 uses ``lam(0)``."""
        rows = self.x.shape[0]
        prev = np.maximum(np.arange(rows) - 1, 0)
        costs = NodeCosts(self.problems)
        out = np.empty(rows)
        for k0, k1 in _row_blocks(rows, self.n):
            x = self.x[k0:k1]
            terms = costs.value(x) + self.lam[prev[k0:k1]] * (x - self.b)
            out[k0:k1] = [math.fsum(row) for row in terms.tolist()]
        return out

    def total_cost(self, k=-1):
        """Total cost ``sum_i f_i(x_i(k))`` at row ``k`` (default: final row)."""
        return math.fsum(NodeCosts(self.problems).value(self.x[k]).tolist())

    def time_weighted_averages(self, upto=None):
        """Per-node averages ``sum_{k<=K} alpha(k) lam_i(k) / sum alpha(k)``.

        ``upto`` defaults to the last recorded row.
        """
        K = self.iterations if upto is None else int(upto)
        if not 0 <= K <= self.iterations:
            raise ValueError(f"checkpoint {K} outside recorded range [0, {self.iterations}]")
        alphas = self.schedule.alphas(K + 1)
        (total,) = _running_sums(lambda r0, r1: _weighted_multipliers(alphas, self.lam, r0, r1), [K], self.n)
        return total / alphas.sum()

    def to_csv(self, path):
        """Write the per-node trace: header ``k,node,x,lambda,v``, 17 significant digits."""
        _write_csv(path, b"k,node,x,lambda,v\n", (self.x, self.lam, self.v), nodes=True)

    def summary_to_csv(self, path):
        """Write derived columns: header ``k,residual,lagrangian,spread``."""
        cols = (self.residuals(), self.lagrangians(), self.spreads())
        _write_csv(path, b"k,residual,lagrangian,spread\n", [c[:, None] for c in cols])

    @classmethod
    def from_csv(cls, path, problems, schedule):
        """Rebuild a trace from a CSV written by :meth:`to_csv`.

        The file must hold the layout :meth:`to_csv` writes: after the
        header, rounds ``k = 0 .. T`` in order, each with nodes ``0 .. n-1``
        in order, every value finite. Only empty lines are skipped. ``x``,
        ``lam`` and ``v`` are views of the parsed rows, not copies. A file
        that cannot be opened raises ValueError ``cannot read trace file
        PATH: REASON``.

        The body is read by one call to numpy's C text reader
        (:func:`numpy.loadtxt`), which decides what parses, and one
        vectorised test of the layout. Line numbers matter only in an error,
        so the per-line scan (:func:`_scan_rows`) runs only after a refusal:
        it raises ValueError naming the first faulty line (or the first
        missing cell of a file that ends inside a round), and when it finds
        no fault, numpy's own error is raised.
        """
        problems = tuple(problems)
        n = len(problems)
        if n < 1:
            raise ValueError("need at least 1 node, got 0")
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise _unreadable("trace file", path, exc) from None
        with fh:
            header = fh.readline().strip()
            if header != "k,node,x,lambda,v":
                raise ValueError(f"unexpected trace header {header!r}")
            try:
                x, lam, v = _columns(_load_rows(fh), n)
            except (ValueError, DeprecationWarning):
                _scan_rows(path, n)
                raise
        b = np.array([p.share for p in problems], dtype=float)
        return cls(problems=problems, b=b, schedule=schedule, x=x, lam=lam, v=v)


def _by_row_blocks(fn, a):
    """``fn`` over the row blocks of the ``(rows, n)`` array ``a``: one value per row.

    ``fn`` maps a block of rows to one value per row, and a row's value
    depends on no other row, so the values are those of ``fn(a)``, while
    ``fn``'s temporaries are the size of one block.
    """
    rows, n = a.shape
    out = np.empty(rows)
    for r0, r1 in _row_blocks(rows, n):
        out[r0:r1] = fn(a[r0:r1])
    return out


def _deviations(lam):
    """``|lam_i(k) - mean(k)|``: each row's distances from its own mean."""
    return np.abs(lam - lam.mean(axis=1)[:, None])


def _spreads(lam):
    """``max_i |lam_i(k) - mean(k)|`` per row of ``lam``."""
    return _by_row_blocks(lambda rows: _deviations(rows).max(axis=1), lam)


def _weighted_multipliers(alphas, lam, r0, r1):
    """``alpha(k) * lam(k)`` for rows ``r0 .. r1 - 1``, as terms of :func:`_running_sums`.

    ``np.sum(axis=0)`` adds row 0 to a start value (0.0 under numpy 2.4),
    where ``np.cumsum`` takes row 0 as it is, so a column of -0.0 sums to +0.0
    but accumulates to -0.0. Row 0 is therefore replaced by its own
    ``np.sum(axis=0)``, which makes the running sums those of ``np.sum``.
    """
    block = alphas[r0:r1, None] * lam[r0:r1]
    if r0 == 0:
        block[0] = block[:1].sum(axis=0)
    return block


def _running_sums(terms, ks, width):
    """The column sums of rows ``0 .. K`` of a table, for each ``K`` of the
    sorted ``ks``, in one pass over its row blocks.

    ``terms(r0, r1)`` returns rows ``r0 .. r1 - 1`` of the table as a new
    ``(r1 - r0, width)`` float array. Each column is added in row order, as
    ``np.cumsum(axis=0)`` adds it over the whole table, and as ``np.sum(axis=0)``
    does over a C-ordered table of two or more columns: the sum carried from
    the blocks before goes into a block's first row before the block's
    ``cumsum``, never after it, so the sums have the whole table's bits while
    only one block of it exists at a time.
    """
    sums, carry = [], None
    for r0, r1 in _row_blocks(ks[-1] + 1 if ks else 0, width):
        block = terms(r0, r1)
        if carry is not None:
            block[0] += carry
        np.cumsum(block, axis=0, out=block)
        while len(sums) < len(ks) and ks[len(sums)] < r1:
            sums.append(block[ks[len(sums)] - r0].copy())
        carry = block[-1]
    return sums


def _load_rows(fh):
    """The remaining rows of ``fh`` as one :data:`_TRACE_DTYPE` array.

    numpy's reader raises ValueError for a file it rejects. ``comments=None``
    keeps ``#`` an ordinary, malformed character. The reader's row index
    skips blank lines, so its messages do not give line numbers. A deprecated
    conversion is an error too (numpy < 2 parses ``1.0`` as an integer with
    a DeprecationWarning).
    """
    with warnings.catch_warnings():
        # an empty body is reported by the scan
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(fh, delimiter=",", dtype=_TRACE_DTYPE, comments=None, ndmin=1)


def _columns(rows, n):
    """``(x, lam, v)``, each a ``(T + 1, n)`` view of ``rows``.

    Raises ValueError unless ``rows`` hold :meth:`RunTrace.to_csv`'s
    layout: rounds ``0 .. T``, each with nodes ``0 .. n-1``, all finite.
    """
    rounds, extra = divmod(len(rows), n)
    if rounds and not extra:
        ks, nodes = rows["k"].reshape(rounds, n), rows["node"].reshape(rounds, n)
        cols = tuple(rows[name].reshape(rounds, n) for name in ("x", "lambda", "v"))
        if (
            (ks == np.arange(rounds)[:, None]).all()
            and (nodes == np.arange(n)).all()
            and all(np.isfinite(col).all() for col in cols)
        ):
            return cols
    raise ValueError("trace rows are not in the layout to_csv writes")


def _scan_rows(path, n):
    """Raise ValueError for the first line of the trace body that breaks
    :meth:`RunTrace.to_csv`'s layout, naming it; return None if none does.

    A line is empty, or five fields that numpy's reader parses (two int64,
    three float64, by the rule :func:`_field`), with finite values, holding
    the next ``(k, node)`` cell.
    A body that ends inside a round names its first missing cell.
    """
    rows = 0  # the next row holds the cell divmod(rows, n)
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # the header, already checked
        for lineno, line in enumerate(fh, start=2):
            raw = line.rstrip("\n")
            if not raw:
                continue
            parts = raw.split(",")
            if len(parts) != 5:
                raise ValueError(
                    f"line {lineno}: malformed trace row {raw!r}: "
                    f"expected 5 fields, got {len(parts)}"
                )
            try:
                k, node = (_field(part, int) for part in parts[:2])
                values = [_field(part, float) for part in parts[2:]]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed trace row {raw!r}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"line {lineno}: non-finite value in trace row")
            want_k, want_node = divmod(rows, n)
            if (k, node) != (want_k, want_node):
                raise ValueError(
                    f"line {lineno}: expected the row for k={want_k}, node={want_node}, "
                    f"got k={k}, node={node}"
                )
            rows += 1
    if not rows:
        raise ValueError("empty trace file")
    if rows % n:
        raise ValueError("trace has no row for k=%d, node=%d" % divmod(rows, n))


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

    ``A`` is a :class:`~netalloc.graphs.WeightMatrix` of one row per problem;
    anything else raises TypeError. Defaults: multipliers start at zero and
    the recorded initial allocation is the midpoint of each interval.
    Identical inputs produce bitwise-identical traces. A non-finite iterate,
    including a non-finite initial multiplier (round 0), raises ValueError
    naming the first round and node where one appears; the check is one pass
    over the recorded arrays after the rounds.
    """
    problems = tuple(problems)
    n = len(problems)
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    iters = int(iters)
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    _require_weight_matrix(A)
    if A.n != n:
        raise ValueError(f"weight matrix shape {(A.n, A.n)} does not match {n} problems")
    indptr, indices, data = A.indptr, A.indices.copy(), A.data  # a writeable copy: see _average
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

    costs = NodeCosts(problems)
    buf = np.empty(data.shape)
    # floating-point faults in the loop surface as non-finite iterates, which
    # the pass after it reports with their round
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters):
            v = _average(indptr, indices, data, lam_hist[k], v_hist[k + 1], buf)
            x = costs.argmin(v, out=x_hist[k + 1])
            # lam = v - alpha(k) * (b - x), written in place
            lam = np.subtract(b, x, out=lam_hist[k + 1])
            np.multiply(alphas[k], lam, out=lam)
            np.subtract(v, lam, out=lam)
    _require_finite(x_hist, lam_hist, v_hist)

    return RunTrace(
        problems=problems,
        b=b,
        schedule=sched,
        x=x_hist,
        lam=lam_hist,
        v=v_hist,
    )

"""Communication graphs, doubly stochastic weight matrices, and the spectral gap.

The consensus step of the distributed solver averages neighbor values with a
doubly stochastic matrix ``A`` whose sparsity matches an undirected connected
graph. :class:`GraphTopology` holds that graph as one sorted array of edges
``i < j`` and learns whether it is connected once, when it is built, from
:func:`component_labels`, the one connectivity routine, which also labels the
load-bus components of the bus-derived graph. Every graph is built as such
an array from its source: :func:`cycle_graph`, :func:`path_graph` and
:func:`complete_graph` (``np.triu_indices``) without a Python loop, so the
499,500 edges of ``complete_graph(1000)`` take about 40 ms, not 340-530 ms
(2-vCPU VM, numpy 2.4.6).

A :class:`WeightMatrix` holds the matrix in one form, its row-major CSR
arrays, which the simulator's consensus round reads, so a round costs
O(nnz), not O(n**2); its ``entries`` property rebuilds the dense matrix from
them on each read. Building one checks that it is symmetric and that each
row's ``math.fsum`` is one, so it is doubly stochastic, whoever built it;
then it finds its own ``sigma2``, from a dense copy that it drops only
when its entries take no closed form.
:func:`metropolis_weights` builds its CSR arrays straight from the edge
array, each diagonal as one minus one ``fsum`` over the node's edge weights.

The key spectral quantity is ``sigma2``, the second-largest singular value of
``A``: disagreement between nodes decays like ``sigma2**k``, and the bounds
grow like ``1 / (1 - sigma2)``. It is never below the exact value for the
stored doubles. The Metropolis matrices of the cycle, the path and the
complete graph have closed-form spectra (Xiao and Boyd), so for them it
comes from no eigensolve and no dense matrix: a complete graph's value is
exact, and a cycle's or path's is an enclosure of its extreme eigenvalues in
exact decimal arithmetic, rounded up, whose budget is ``math.sin``'s assumed
error of :data:`SIN_ERROR_ULPS` ulps plus ``2**-51`` of each sine's
argument; it lands 0 to 3.2 ulps above the exact value from 3 to 2000
nodes. That takes 0.08 ms where the eigensolve took 3 ms on a 300-node
cycle, and its bits follow neither the BLAS nor its thread count. Every other
symmetric matrix takes one eigensolve plus a stated margin,
``n * eps * max|lambda|``, an estimate that errs on the safe side (too
large): 4.5 ms instead of a dense SVD's 10.4 ms on a 300-node cycle, and
62 ms instead of 245 ms at n = 1000 (2-vCPU VM, numpy 2.4.6). See
:func:`second_largest_singular_value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, Inexact, localcontext, MAX_EMAX, MAX_PREC, MIN_EMIN

import numpy as np

from .errors import DisconnectedGraph, ParseError, _field

# Absolute tolerance on each row sum of a weight matrix.
STOCHASTIC_TOL = 1e-9

# Assumed bound on the error of ``math.sin``, in ulps of its result. C library
# sines keep within about one ulp of the exact value, and one ulp of the exact
# value is at most two of a result that close. tests/test_graphs.py checks one
# ulp against 50-digit sines of pi p / q, p / q < 1/2: every p for eight q up
# to 200, and 300 drawn pairs with q up to 8000.
SIN_ERROR_ULPS = 2

# Sums and products of finite decimals at the largest precision are exact;
# the trap makes a rounded one raise instead of passing unseen.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


@dataclass(frozen=True, eq=False)
class GraphTopology:
    """Undirected simple graph on nodes ``0 .. n-1``, held as sorted edge arrays.

    Parameters
    ----------
    n : int
        Node count, at least 2. Single-node systems degenerate to a
        centralized dual method and are rejected here.
    edges : (m, 2) int array, or iterable of (int, int)
        Unordered node pairs. They are converted once, with numpy: an integer
        array as it is, any other iterable (a list, a set, a generator) as
        one list, and indices beyond int64 count as out of range. The first
        self-loop, out-of-range pair or duplicate, in input order, raises
        ``ValueError`` naming its nodes as plain ints.

    Attributes
    ----------
    edges : ndarray
        Read-only ``(m, 2)`` int array of the pairs ``i < j``, sorted.
    connected : bool
        Whether every node is reachable from node 0, found once, here.
    """

    n: int
    edges: np.ndarray
    connected: bool

    def __init__(self, n, edges):
        n = int(n)
        if n < 2:
            raise ValueError(f"graph needs at least 2 nodes, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            ij = _pair_array(edges)
        except OverflowError:  # an index beyond int64 is out of range: mark it
            edges = edges.tolist() if isinstance(edges, np.ndarray) else edges
            ij = _pair_array([[i if -(2**63) <= i < 2**63 else -1 for i in pair] for pair in edges])
        lo, hi = np.minimum(ij[:, 0], ij[:, 1]), np.maximum(ij[:, 0], ij[:, 1])
        keys, first = np.unique(lo * n + hi, return_index=True)
        bad = np.ones(len(ij), dtype=bool)  # a repeat, unless it is the first pair of its key
        bad[first] = False
        bad |= (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            i, j = map(int, edges[int(np.argmax(bad))])
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) outside node range [0,{n})")
            raise ValueError(f"duplicate edge {(min(i, j), max(i, j))}")
        edges = np.stack(np.divmod(keys, n), axis=1)
        edges.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "connected", not component_labels(n, edges).any())

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)


def _pair_array(pairs):
    """An iterable of pairs, or an ``(m, 2)`` array, as an ``(m, 2)`` int64 array,
    not copied if it is one; OverflowError if an index is beyond int64."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    elif not np.can_cast(pairs.dtype, np.int64):
        pairs = pairs.tolist()  # a uint64 beyond int64 must not wrap
    a = np.asarray(pairs, dtype=np.int64)
    if a.size == 0:
        return a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"expected (i, j) pairs, got an array of shape {a.shape}")
    return a


def _distinct(values):
    """The distinct values of an int array, sorted, by one sort and a mask.

    numpy 2.4's ``np.unique`` without index arrays hashes instead, which takes
    20 times as long at a million values, and imports ``numpy.ma`` on its
    first call, 10-20 ms of a process's first set-up.
    """
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))[: len(values)]]


def component_labels(n, edges):
    """Label each of the nodes ``0 .. n-1`` with the smallest node of its component.

    ``edges`` is an ``(m, 2)`` int array; self-loops and repeats are harmless.
    Each label names a root node, whose own label is itself. A pass lowers
    each root's label to the smallest root across its edges, then follows
    labels until every node holds its new root (hook and compress, after
    Shiloach and Vishkin), so labels only fall and a component settles on its
    smallest node. A randomly numbered path of 10**5 nodes takes 11 passes.
    """
    i, j = edges.T
    label = np.arange(n)
    while True:
        li, lj = label[i], label[j]
        new = label.copy()
        np.minimum.at(new, li, lj)
        np.minimum.at(new, lj, li)
        while not (new[new] == new).all():
            new = new[new]
        if (new == label).all():
            return label
        label = new


def cycle_graph(n):
    """Cycle 0-1-...-(n-1)-0; for n = 2 this is the single edge."""
    i = np.arange(n)
    pairs = np.stack([i, np.roll(i, -1)], axis=1)
    return GraphTopology(n, pairs[:1] if n == 2 else pairs)


def path_graph(n):
    """Path 0-1-...-(n-1)."""
    i = np.arange(n - 1)
    return GraphTopology(n, np.stack([i, i + 1], axis=1))


def complete_graph(n):
    return GraphTopology(n, np.stack(np.triu_indices(n, 1), axis=1))


def _int_pairs(text, form, bad_token):
    """``(line number, i, j)`` for each line of ``text`` that is neither blank nor
    a ``#`` comment: two whitespace-separated integers read by :func:`_field`.
    Else ParseError ``expected FORM, got LINE`` or ``bad_token`` formatted with
    the ``token`` and its ``raw`` line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected {form!r}, got {raw!r}")
        pair = []
        for token in parts:
            try:
                pair.append(_field(token, int))
            except ValueError:
                raise ParseError(lineno, bad_token.format(token=token, raw=raw)) from None
        yield lineno, *pair


def parse_edge_list(text, n):
    """Parse an edge-list file on ``n`` nodes: one ``i j`` pair per line, zero-based,
    ``#`` comments and blank lines ignored."""
    pairs = _int_pairs(text, "i j", "non-integer node index in {raw!r}")
    return GraphTopology(n, [(i, j) for _, i, j in pairs])


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Symmetric doubly stochastic consensus matrix, in CSR form, with its spectral gap.

    Attributes
    ----------
    n : int
        Dimension.
    indptr, indices, data : ndarray
        The nonzero entries and the whole diagonal, row by row; read-only.
        Row ``i`` is ``data[indptr[i]:indptr[i+1]]`` in the columns
        ``indices[indptr[i]:indptr[i+1]]``, in increasing order, so no row is
        empty.
    sigma2 : float
        Second-largest singular value, found here, never passed in, with the
        bits of :func:`second_largest_singular_value` of :attr:`entries`: from
        the stored nonzero entries alone when they are a cycle's, a path's or
        a complete graph's (exact for the complete graph, and for the others
        an upper bound within the closed form's budget of ``math.sin``'s
        assumed error), else from :attr:`entries` by one eigensolve, a
        safe-side estimate at most ``n * eps * max|lambda|`` above the exact
        value plus the solver's error.

    Building one, directly or through ``dataclasses.replace``, checks it with
    O(nnz) array operations, one ``math.fsum`` per row and one sort, and
    raises ``ValueError`` for arrays of the wrong lengths, an ``indptr`` that
    does not rise from 0 to ``nnz``, column indices out of range or not
    increasing within a row, a row without its stored diagonal, ``data``
    outside ``[0, 1]``, a row whose ``fsum`` is off one by more than
    :data:`STOCHASTIC_TOL` (the first such row, with its sum), or entries
    that are not exactly symmetric in pattern and value (the first
    asymmetric entry in row-major order). So its columns sum to one as its
    rows do, which is what the bounds assume. Then it finds ``sigma2``; a
    value of at least one (the identity, the 2 x 2 swap) raises
    ``ValueError`` with it.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sigma2: float = field(init=False)

    def __post_init__(self):
        n, indptr, indices, data = self.n, self.indptr, self.indices, self.data
        if indptr.shape != (n + 1,) or data.ndim != 1 or indices.shape != data.shape:
            raise ValueError(
                f"CSR arrays of shapes {indptr.shape}, {indices.shape}, {data.shape} do not fit n = {n}"
            )
        if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
            raise ValueError("indptr and indices must be integer arrays")
        row_sizes = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != len(data) or not (row_sizes > 0).all():
            raise ValueError(f"indptr must rise from 0 to nnz = {len(data)}, by at least one per row")
        if not (indices.min(initial=0) >= 0 and indices.max(initial=0) < n):
            raise ValueError(f"column indices must lie in [0, {n})")
        rows = np.repeat(np.arange(n), row_sizes)
        position = rows * n + indices
        if not (np.diff(position) > 0).all():  # row-major positions rise
            raise ValueError("column indices must increase within each row")
        if np.count_nonzero(indices == rows) != n:
            raise ValueError("every row must store its diagonal entry")
        if not ((data >= 0.0) & (data <= 1.0)).all():  # NaN fails too
            raise ValueError("CSR data must lie in [0, 1]")
        for i, total in enumerate(_row_fsums(indptr, data)):
            if abs(total - 1.0) > STOCHASTIC_TOL:
                raise ValueError(f"row {i} sums to {total!r}, expected 1")
        # sorted, the transposed positions of a symmetric pattern are its positions
        transposed = indices.astype(np.int64) * n + rows  # int32 indices would wrap past n = 46340
        by_transpose = np.argsort(transposed, kind="stable")  # rows are rising runs
        mirror = transposed[by_transpose]
        bad = (mirror != position) | (data[by_transpose] != data)
        if bad.any():
            k = int(np.argmax(bad))
            first = min(position[k], mirror[k])
            i, j = divmod(int(first), n)
            here = repr(float(data[k])) if position[k] == first else "not stored"
            there = repr(float(data[by_transpose[k]])) if mirror[k] == first else "not stored"
            raise ValueError(f"weights must be symmetric: entry ({i},{j}) is {here} but ({j},{i}) is {there}")
        for array in (indptr, indices, data):
            array.setflags(write=False)
        triplets = rows, indices, data
        if np.count_nonzero(data) < len(data):  # an explicit zero is no entry
            stored = data != 0.0
            triplets = tuple(a[stored] for a in triplets)
        sigma2 = _closed_form_sigma2(n, *triplets)
        if sigma2 is None:
            sigma2 = _eigvalsh_sigma2(self.entries)
        if not sigma2 < 1.0:
            raise ValueError(f"sigma2 must lie below 1, got {sigma2!r}")
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def entries(self):
        """The dense ``n x n`` matrix, 0.0 where nothing is stored, rebuilt on each read; read-only."""
        a = np.zeros((self.n, self.n))
        a[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = self.data
        a.setflags(write=False)
        return a


def _row_fsums(indptr, data):
    """One ``math.fsum`` per CSR row, as a list."""
    values, bounds = data.tolist(), indptr.tolist()
    return [math.fsum(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _require_weight_matrix(A):
    """Raise TypeError unless ``A`` is a :class:`WeightMatrix`."""
    if not isinstance(A, WeightMatrix):
        raise TypeError(f"A must be a WeightMatrix, got {type(A).__name__}")


def _offsets(labels, n):
    """``n + 1`` offsets of the runs of each label ``0 .. n-1`` in ``labels`` sorted."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=n), out=offsets[1:])
    return offsets


def metropolis_weights(g):
    """Metropolis weight matrix of a connected graph, built straight in CSR form.

    Edge weights are ``1 / (1 + max(deg_i, deg_j))`` and each diagonal is one
    minus one ``math.fsum`` of its node's edge weights, which yields a
    symmetric doubly stochastic matrix with the graph's pattern and a
    strictly positive diagonal using only local degree information (Xiao and
    Boyd, "Fast linear iterations for distributed averaging", 2004). The
    stored entries are both directions of each edge plus the diagonal, in
    row-major order. A graph that is not connected, whose ``sigma2`` is 1,
    raises :class:`DisconnectedGraph` before any matrix is built.
    """
    if not g.connected:
        raise DisconnectedGraph("metropolis weights require a connected graph")
    n, deg, (i, j) = g.n, g.degrees(), g.edges.T
    w = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    rows, cols = np.concatenate((i, j, np.arange(n))), np.concatenate((j, i, np.arange(n)))
    order = np.argsort(rows * n + cols, kind="stable")  # three runs of rising keys, the middle one in pieces
    indptr, indices, data = _offsets(rows, n), cols[order], np.concatenate((w, w, np.zeros(n)))[order]
    # row i's diagonal follows its neighbours below i; it still holds 0.0,
    # which leaves the row's fsum as it is
    data[indptr[:-1] + np.bincount(j, minlength=n)] = [1.0 - total for total in _row_fsums(indptr, data)]
    return WeightMatrix(n, indptr, indices, data)


def second_largest_singular_value(a):
    """Second-largest singular value of a symmetric matrix, never below the exact value.

    A symmetric matrix has the absolute values of its eigenvalues as
    singular values. Its nonzero entries go to :func:`_closed_form_sigma2`
    first, the same entries in the same order as a :class:`WeightMatrix`
    gives it, so both find the same bits. On a cycle's, a path's or a
    complete graph's entries that gives the closed form: exact for the
    complete graph, and for the others at most the enclosure's width above
    the exact value, 0 to 3.2 ulps on Metropolis cycles and paths of 3 to
    2000 nodes. Every other matrix takes :func:`_eigvalsh_sigma2`. A matrix that
    is not exactly symmetric (``a == a.T``) raises ``ValueError``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n < 2:
        raise ValueError("sigma2 needs a matrix of order >= 2")
    if not np.array_equal(a, a.T):
        raise ValueError("sigma2 needs a symmetric matrix")
    sigma2 = None
    if np.count_nonzero(a) in _family_sizes(n):  # else gathering the entries is wasted
        rows, cols = np.nonzero(a)
        sigma2 = _closed_form_sigma2(n, rows, cols, a[rows, cols])
    return _eigvalsh_sigma2(a) if sigma2 is None else sigma2


def _eigvalsh_sigma2(a):
    """The second-largest ``|lambda|`` of the symmetric ``a`` from one
    ``np.linalg.eigvalsh``, plus the margin ``n * eps * max|lambda|``.

    That is LAPACK's error bound for symmetric eigenvalues,
    ``p(n) * eps * ||A||_2`` (LAPACK Users' Guide, section 4.7.1), with
    ``p(n) = n``, so the value errs on the safe side (too large). On
    Metropolis cycles and paths of 54 to 1000 nodes the margin was 100 to
    10,000 times the solver's error, against their closed-form spectra at 40
    digits. Its last bits follow the BLAS thread count at n >= 300.
    """
    mags = np.sort(np.abs(np.linalg.eigvalsh(a)))
    return float(mags[-2] + len(a) * np.finfo(float).eps * mags[-1])


def _closed_form_sigma2(n, rows, cols, values):
    """``sigma2`` of the symmetric ``n x n`` matrix whose nonzero entries are
    ``values`` at ``(rows, cols)``, in row-major order, when the matrix is one
    of three families, else None:

    - complete graph: ``d`` on the diagonal and ``w`` everywhere else; its
      eigenvalues are ``d + (n - 1) w`` and ``d - w``, so ``sigma2`` is
      ``|d - w|`` (at n = 2 the smaller of ``|d + w|`` and ``|d - w|``),
      rounded up, which is exact when ``d`` and ``w`` lie within a factor of
      two of each other (Sterbenz), as on every Metropolis complete graph. It
      takes precedence at n <= 3, where the cycle and the path on 2 nodes and
      the cycle on 3 are complete graphs;
    - cycle: ``d`` on the diagonal and ``w`` at every ``(i, i +- 1 mod n)``,
      with ``lambda_k = (d + 2w) - 4w sin**2(pi k / n)``;
    - path: ``d`` on the inner diagonal, ``w`` at every ``(i, i +- 1)`` and
      ``d + w``, rounded, at both ends. With exactly ``d + w`` there,
      ``lambda_k = (d + 2w) - 4w sin**2(pi k / (2n))``; the rounding, at most
      half an ulp, is added to the bound (Weyl's inequality for singular
      values). A Metropolis path stores ``1 - w``, which is ``d + w`` rounded.

    Any other count of entries is refused before anything is read, so a
    matrix such as a bus-derived graph's costs one comparison here.
    """
    nnz = len(values)
    if n < 2 or nnz not in _family_sizes(n):
        return None
    d, w = float(values[0]), float(values[1])
    if not (math.isfinite(d) and math.isfinite(w)):
        return None
    if nnz == n * n:  # unique positions, so every entry is stored
        # the diagonal is all d, so only the off-diagonal entries can equal w
        if not ((values[:: n + 1] == d).all() and np.count_nonzero(values == w) == n * n - n * (d != w)):
            return None
        with localcontext(_EXACT):
            d, w = Decimal(d), Decimal(w)
            return _round_up(min(abs(d + w), abs(d - w)) if n == 2 else abs(d - w))
    cycle = nnz == 3 * n
    band = np.arange(n)[:, None] + np.array([-1, 0, 1])  # row i's columns i-1, i, i+1
    if cycle:
        band = np.sort(band % n, axis=1)
    inside = (band >= 0) & (band < n)
    if not (np.array_equal(rows, np.nonzero(inside)[0]) and np.array_equal(cols, band[inside])):
        return None
    e = d  # row 0 holds d and w on a cycle, an end and w on a path
    if not cycle:
        d = float(values[3])  # (1, 1)
        if e != d + w:  # so d is finite too
            return None
    expected = np.where(rows == cols, d, w)
    expected[[0, -1]] = e
    if not np.array_equal(values, expected):
        return None
    with localcontext(_EXACT):
        d, w = Decimal(d), Decimal(w)
        # a path's ends are d + w rounded; that rounding moves no singular
        # value by more than its size (Weyl)
        rounding = 0 if cycle else abs(Decimal(e) - d - w)
        return _round_up(_tridiagonal_sigma2(n, d, w, cycle) + rounding)


def _family_sizes(n):
    """The entry counts of a complete graph, a cycle and a path on ``n`` nodes."""
    return n * n, 3 * n, 3 * n - 2


def _tridiagonal_sigma2(n, d, w, cycle):
    """A Decimal upper bound on the second-largest ``|lambda_k|`` of the cycle or
    the path with diagonal ``d`` and off-diagonal ``w`` (Decimals), whose ends
    hold exactly ``d + w``.

    With ``q = n`` for the cycle and ``2n`` for the path,
    ``lambda_k = (d + 2w) - 4w sin**2(pi k / q) = d + 2w sin(pi (q - 4k) / (2q))``.
    ``|lambda|`` is convex in ``s = sin**2``, so the two largest ``|lambda_k|``
    lie among the two smallest and the two largest ``s_k``, and only those
    ``k`` are evaluated, each as an upper bound: their second largest is at
    least ``sigma2``. A cycle's ``lambda_k`` is its ``lambda_(n-k)``.
    """
    if cycle:
        q, m = n, n // 2
        ks = {0, 1, n - 1, m - 1, m, m + 1}  # all in [0, n), as n >= 4
    else:
        q, ks = 2 * n, {0, 1, n - 2, n - 1}
    bounds = {r: _abs_eigenvalue_bound(d, w, r, q) for r in {min(k, q - k) for k in ks}}
    return sorted(bounds[min(k, q - k)] for k in ks)[-2]


def _abs_eigenvalue_bound(d, w, k, q):
    """An upper bound on ``|lambda|``, ``lambda = (d + 2w) - 4w sin**2(pi k / q)``,
    ``0 <= k <= q / 2``, from the intersection of two enclosures of ``lambda``:
    the sine bounds of :func:`_sin_pi` put through both of its forms. The
    first is the narrower for small ``k / q``, the second elsewhere."""
    s_lo, s_hi = _sin_pi(k, q)
    c = d + 2 * w
    first = (c - 4 * w * s_lo * s_lo, c - 4 * w * s_hi * s_hi)
    t_lo, t_hi = _sin_pi(q - 4 * k, 2 * q)
    second = (d + 2 * w * t_lo, d + 2 * w * t_hi)
    lo, hi = max(min(first), min(second)), min(max(first), max(second))
    return max(-lo, hi)


def _sin_pi(p, q):
    """Decimal bounds ``(lo, hi)`` on ``sin(pi p / q)``, for ``|p / q| <= 1/2``.

    0, 1/2 and 1, the only rational sines of rational multiples of pi
    (Niven), are exact. Otherwise ``theta = math.pi * p / q`` is within
    ``2.4 * 2**-53 * theta`` of ``pi p / q`` (math.pi's error and two
    roundings), and the sine moves by at most that much, so the bounds are
    ``math.sin(theta)`` widened by ``2**-51 * theta`` and by
    :data:`SIN_ERROR_ULPS` ulps of the result, then clipped to ``[0, 1]``.
    """
    if p < 0:
        lo, hi = _sin_pi(-p, q)
        return -hi, -lo
    if p == 0 or 2 * p == q or 6 * p == q:
        exact = Decimal(0 if p == 0 else 1 if 2 * p == q else "0.5")
        return exact, exact
    theta = math.pi * p / q
    s = math.sin(theta)
    err = Decimal(theta * 2.0**-51) + SIN_ERROR_ULPS * Decimal(math.ulp(s))
    return max(Decimal(s) - err, Decimal(0)), min(Decimal(s) + err, Decimal(1))


def _round_up(x):
    """The smallest double at or above the Decimal ``x``."""
    f = float(x)  # the nearest double
    return f if Decimal(f) >= x else math.nextafter(f, math.inf)

"""Communication graphs, doubly stochastic weight matrices, and the spectral gap.

The consensus step of the distributed solver averages neighbor values with a
doubly stochastic matrix ``A`` whose sparsity matches an undirected connected
graph. :class:`GraphTopology` holds that graph as one sorted array of edges
``i < j`` and learns whether it is connected once, when it is built; the
weight functions fill and check their matrices from that array. The key
spectral quantity is ``sigma2``, the second-largest singular value of ``A``:
disagreement between nodes decays like ``sigma2**k``. It is computed exactly,
by a dense SVD of ``A``, at every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ColSumViolation,
    DisconnectedGraph,
    RowSumViolation,
    SparsityMismatch,
    ZeroDiagonal,
)

# Absolute tolerance on each row/column sum of a doubly stochastic matrix.
STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GraphTopology:
    """Undirected simple graph on nodes ``0 .. n-1``, held as sorted edge arrays.

    Parameters
    ----------
    n : int
        Node count, at least 2. Single-node systems degenerate to a
        centralized dual method and are rejected here.
    edges : iterable of (int, int)
        Unordered node pairs. The first self-loop, out-of-range pair or
        duplicate, in input order, raises ``ValueError``.

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
        pairs = [(int(p[0]), int(p[1])) for p in edges]
        try:
            ij = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        except OverflowError:  # an index beyond int64 is out of range: mark its pair bad
            ij = np.array([(i, j) if max(abs(i), abs(j)) < n else (-1, -1) for i, j in pairs])
        lo, hi = ij.min(axis=1), ij.max(axis=1)
        keys, first = np.unique(lo * n + hi, return_index=True)
        bad = np.ones(len(pairs), dtype=bool)  # a repeat, unless it is the first pair of its key
        bad[first] = False
        bad |= (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            i, j = pairs[int(np.argmax(bad))]
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) outside node range [0,{n})")
            raise ValueError(f"duplicate edge {(min(i, j), max(i, j))}")
        edges = np.stack(np.divmod(keys, n), axis=1)
        edges.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "connected", _connected(n, edges))

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)


def _connected(n, edges):
    """True iff label propagation gives every node the label 0.

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
            return not label.any()
        label = new


def cycle_graph(n):
    """Cycle 0-1-...-(n-1)-0; for n = 2 this is the single edge."""
    if n == 2:
        return GraphTopology(2, [(0, 1)])
    return GraphTopology(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    """Path 0-1-...-(n-1)."""
    return GraphTopology(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return GraphTopology(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def parse_edge_list(text, n=None):
    """Parse an edge-list file: one ``i j`` pair per line, zero-based.

    Lines starting with ``#`` and blank lines are ignored. When ``n`` is not
    given it is inferred as ``max index + 1``.
    """
    edges = []
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node index in {raw!r}") from None
        edges.append((i, j))
        top = max(top, i + 1, j + 1)
    return GraphTopology(top if n is None else n, edges)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Validated doubly stochastic consensus matrix with its spectral gap.

    Attributes
    ----------
    n : int
        Dimension.
    entries : ndarray
        The ``n x n`` matrix; read-only.
    sigma2 : float
        Second-largest singular value, in ``[0, 1)`` for connected graphs.
    """

    n: int
    entries: np.ndarray
    sigma2: float

    def __post_init__(self):
        self.entries.setflags(write=False)


def metropolis_weights(g):
    """Metropolis weight matrix of a connected graph.

    Edge weights are ``1 / (1 + max(deg_i, deg_j))`` and the diagonal absorbs
    the remainder, which yields a symmetric doubly stochastic matrix with a
    strictly positive diagonal using only local degree information.
    """
    if not g.connected:
        raise DisconnectedGraph("metropolis weights require a connected graph")
    deg = g.degrees()
    i, j = g.edges.T
    a = np.zeros((g.n, g.n))
    a[i, j] = a[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    a[np.diag_indices(g.n)] = [1.0 - math.fsum(row.tolist()) for row in a]  # diagonal still 0
    return validate_weight_matrix(a, g)


def max_degree_weights(g):
    """Lazy max-degree weights: ``1 / (2 * max_degree)`` on every edge."""
    if not g.connected:
        raise DisconnectedGraph("max-degree weights require a connected graph")
    deg = g.degrees()
    w = 1.0 / (2.0 * deg.max())
    i, j = g.edges.T
    a = np.zeros((g.n, g.n))
    a[i, j] = a[j, i] = w
    a[np.diag_indices(g.n)] = 1.0 - deg * w
    return validate_weight_matrix(a, g)


def validate_weight_matrix(entries, g):
    """Validate a raw matrix against a graph and wrap it as a WeightMatrix.

    Checks row/column sums to :data:`STOCHASTIC_TOL`, a strictly positive
    diagonal, and that off-diagonal entries are positive exactly on the edge
    set. Accepts any user-supplied matrix, not only Metropolis ones.
    """
    a = np.asarray(entries, dtype=float)
    if a.shape != (g.n, g.n):
        raise ValueError(f"matrix shape {a.shape} does not match graph with n={g.n}")
    for i in range(g.n):
        total = math.fsum(a[i, :].tolist())
        if abs(total - 1.0) > STOCHASTIC_TOL:
            raise RowSumViolation(i, total)
    for j in range(g.n):
        total = math.fsum(a[:, j].tolist())
        if abs(total - 1.0) > STOCHASTIC_TOL:
            raise ColSumViolation(j, total)
    bad_diag = ~(np.diag(a) > 0.0)
    if bad_diag.any():
        i = int(np.argmax(bad_diag))
        raise ZeroDiagonal(i, a[i, i])
    i, j = g.edges.T
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[i, j] = adj[j, i] = True
    off_edge = ~adj
    np.fill_diagonal(off_edge, False)
    bad = (adj & ~(a > 0.0)) | (off_edge & (a != 0.0))
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), g.n)  # first violation in row-major order
        raise SparsityMismatch(i, j, a[i, j], bool(adj[i, j]))
    return WeightMatrix(g.n, a.copy(), second_largest_singular_value(a))


def second_largest_singular_value(a):
    """Second-largest singular value of a square matrix, by a full dense SVD."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] < 2:
        raise ValueError("sigma2 needs a matrix of order >= 2")
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[1])

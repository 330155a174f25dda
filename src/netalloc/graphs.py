"""Communication graphs, doubly stochastic weight matrices, and the spectral gap.

The consensus step of the distributed solver averages neighbor values with a
doubly stochastic matrix ``A`` whose sparsity matches an undirected connected
graph. The key spectral quantity is ``sigma2``, the second-largest singular
value of ``A``: disagreement between nodes decays like ``sigma2**k``. It is
computed exactly, by a dense SVD of ``A``, at every order.
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


@dataclass(frozen=True)
class GraphTopology:
    """Undirected simple graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n : int
        Node count, at least 2. Single-node systems degenerate to a
        centralized dual method and are rejected here.
    edges : iterable of (int, int)
        Unordered node pairs; self-loops and duplicates are rejected.
    """

    n: int
    edges: frozenset

    def __init__(self, n, edges):
        n = int(n)
        if n < 2:
            raise ValueError(f"graph needs at least 2 nodes, got {n}")
        normalized = set()
        for pair in edges:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) outside node range [0,{n})")
            key = (min(i, j), max(i, j))
            if key in normalized:
                raise ValueError(f"duplicate edge {key}")
            normalized.add(key)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    def neighbors(self, i):
        """Sorted neighbor list of node ``i``."""
        out = [b if a == i else a for (a, b) in self.edges if i in (a, b)]
        return sorted(out)

    def degree(self, i):
        return sum(1 for (a, b) in self.edges if i in (a, b))

    def degrees(self):
        d = [0] * self.n
        for a, b in self.edges:
            d[a] += 1
            d[b] += 1
        return d

    def adjacency(self):
        """Boolean adjacency matrix (no self-loops)."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for a, b in self.edges:
            adj[a, b] = True
            adj[b, a] = True
        return adj

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges


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


def serialize_edge_list(g):
    lines = [f"{i} {j}" for i, j in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def check_connected(g):
    """True iff a traversal from node 0 reaches all ``n`` nodes."""
    seen = {0}
    stack = [0]
    neigh = {i: [] for i in range(g.n)}
    for a, b in g.edges:
        neigh[a].append(b)
        neigh[b].append(a)
    while stack:
        u = stack.pop()
        for v in neigh[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


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
    if not check_connected(g):
        raise DisconnectedGraph("metropolis weights require a connected graph")
    deg = g.degrees()
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        a[i, j] = w
        a[j, i] = w
    for i in range(g.n):
        a[i, i] = 1.0 - math.fsum(a[i].tolist())  # a[i, i] is still 0 here
    return validate_weight_matrix(a, g)


def max_degree_weights(g):
    """Lazy max-degree weights: ``1 / (2 * max_degree)`` on every edge."""
    if not check_connected(g):
        raise DisconnectedGraph("max-degree weights require a connected graph")
    deg = g.degrees()
    w = 1.0 / (2.0 * max(deg))
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = w
        a[j, i] = w
    a[np.diag_indices(g.n)] = 1.0 - np.asarray(deg) * w
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
    adj = g.adjacency()
    off_edge = ~adj
    np.fill_diagonal(off_edge, False)
    bad = (adj & ~(a > 0.0)) | (off_edge & (a != 0.0))
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), g.n)  # first violation in row-major order
        raise SparsityMismatch(i, j, a[i, j], bool(adj[i, j]))
    return WeightMatrix(g.n, a.copy(), second_largest_singular_value(a))


def parse_weight_matrix(text):
    """Parse a weight-matrix file: ``n`` lines of ``n`` space-separated decimals."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed decimal in {raw!r}") from None
    n = len(rows)
    if n == 0:
        raise ValueError("empty weight-matrix file")
    if any(len(r) != n for r in rows):
        raise ValueError(f"expected a square matrix, got row lengths {[len(r) for r in rows]}")
    return np.array(rows, dtype=float)


def second_largest_singular_value(a):
    """Second-largest singular value of a square matrix, by a full dense SVD."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] < 2:
        raise ValueError("sigma2 needs a matrix of order >= 2")
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[1])

"""Graph topology, weight construction and form checks, and spectral gap tests."""

import dataclasses
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from netalloc import (
    DisconnectedGraph,
    GraphTopology,
    ParseError,
    WeightMatrix,
    bus_derived_graph,
    complete_graph,
    cycle_graph,
    metropolis_weights,
    parse_edge_list,
    path_graph,
    second_largest_singular_value,
    synth_bus_lines,
    synth_ieee118_style,
)
from netalloc.graphs import _closed_form_sigma2, component_labels
from conftest import SUITE_SEED, csr_fields, random_connected_graph

EPS = np.finfo(float).eps


# pi to 60 digits, for the 50-digit references below
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def decimal_cos(x):
    """``cos(x)`` for a Decimal ``0 <= x <= pi`` by its Taylor series, in the caller's context."""
    term = total = Decimal(1)
    k = 0
    while abs(term) > Decimal("1e-65"):
        k += 2
        term = -term * x * x / (k * (k - 1))
        total += term
    return total


def cycle_reference(a):
    """The second-largest ``|lambda|`` of a cycle's stored matrix ``a``, to 50
    digits: its diagonal ``d`` and neighbour weight ``w`` give every
    eigenvalue, ``d + 2w cos(2 pi k / n)``."""
    n = len(a)
    d, w = float(a[0, 0]), float(a[0, 1])
    i = np.arange(n)
    assert np.count_nonzero(a) == 3 * n and (a[i, i] == d).all()
    assert (a[i, i - 1] == w).all() and (a[i - 1, i] == w).all()  # (0, n - 1) and (n - 1, 0) too
    with localcontext() as ctx:
        ctx.prec = 60
        d, w = Decimal(d), Decimal(w)
        mags = sorted(abs(d + 2 * w * decimal_cos(2 * PI * min(k, n - k) / n)) for k in range(n))
    return mags[-2]


def tridiagonal_reference(a):
    """The second-largest ``|lambda|`` of the stored tridiagonal matrix ``a``,
    to within 1e-40, from Sturm counts in 60-digit arithmetic: bisection on
    the number of eigenvalues with ``|lambda| >= t``."""
    n = len(a)
    diag, off = np.diagonal(a).tolist(), np.diagonal(a, 1)
    assert np.count_nonzero(a) == np.count_nonzero(diag) + 2 * np.count_nonzero(off)
    assert np.array_equal(off, np.diagonal(a, -1))
    with localcontext() as ctx:
        ctx.prec = 60
        diag = [Decimal(x) for x in diag]
        off2 = [Decimal(x) ** 2 for x in off.tolist()]

        def below(x):  # how many eigenvalues lie below x
            count, q = 0, Decimal(1)
            for i, di in enumerate(diag):
                q = di - x - (off2[i - 1] / q if i else 0)
                if q == 0:
                    q = Decimal("1e-70")
                count += q < 0
            return count

        lo, hi = Decimal(0), Decimal(2)  # |lambda| <= max row sum <= 2
        while hi - lo > Decimal("1e-40"):
            t = (lo + hi) / 2
            if (n - below(t)) + below(-t) >= 2:  # at least two |lambda| >= t, up to a tie at t
                lo = t
            else:
                hi = t
    return lo, hi


def eigvalsh_sigma2(a):
    """sigma2 of a symmetric matrix from its eigenvalues: max(|lambda_2|, |lambda_n|)."""
    eig = np.linalg.eigvalsh(a)
    return float(max(abs(eig[-2]), abs(eig[0])))


class TestGraphTopology:
    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="at least 2"):
            GraphTopology(1, [])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphTopology(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            GraphTopology(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            GraphTopology(3, [(0, 3)])

    def test_degrees_and_neighbors(self):
        g = path_graph(3)
        assert g.degrees().tolist() == [1, 2, 1]
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 1), (2, 2), (0, 5)], r"^self-loop at node 2$"),
            ([(0, 1), (3, 1), (2, 2)], r"^edge \(3,1\) outside node range \[0,3\)$"),
            ([(0, 1), (1, 2), (1, 0), (0, 0)], r"^duplicate edge \(0, 1\)$"),
        ],
    )
    @pytest.mark.parametrize(
        "form",
        [
            list,
            lambda pairs: np.array(pairs, dtype=np.int32),
            lambda pairs: np.array(pairs, dtype=np.int64),
            lambda pairs: (pair for pair in pairs),
        ],
        ids=["list", "int32", "int64", "generator"],
    )
    def test_first_bad_pair_in_any_form_names_plain_ints(self, pairs, message, form):
        with pytest.raises(ValueError, match=message) as err:
            GraphTopology(3, form(pairs))
        assert "np." not in str(err.value)


class TestConnectivity:
    def test_path_connected(self):
        assert path_graph(3).connected

    def test_isolated_node(self):
        assert not GraphTopology(3, [(0, 1)]).connected

    def test_five_node_cycle(self):
        assert cycle_graph(5).connected

    def test_two_node_cycle_is_single_edge(self):
        assert cycle_graph(2).edges.tolist() == [[0, 1]]

    @pytest.mark.parametrize("n", [*range(2, 41), 1000])
    def test_families_match_their_lists(self, n):
        lists = {
            cycle_graph: [(0, 1)] if n == 2 else [(i, (i + 1) % n) for i in range(n)],
            path_graph: [(i, i + 1) for i in range(n - 1)],
            complete_graph: [(i, j) for i in range(n) for j in range(i + 1, n)],
        }
        for build, pairs in lists.items():
            g, expected = build(n), GraphTopology(n, pairs)
            assert g.edges.dtype == expected.edges.dtype and np.array_equal(g.edges, expected.edges)
            assert g.connected == expected.connected


class TestMetropolisWeights:
    def test_path3_values(self):
        w = metropolis_weights(path_graph(3))
        third = 1.0 / 3.0
        expected = np.array(
            [[2 * third, third, 0.0], [third, third, third], [0.0, third, 2 * third]]
        )
        np.testing.assert_allclose(w.entries, expected, atol=1e-15)

    def test_complete3_uniform(self):
        w = metropolis_weights(complete_graph(3))
        np.testing.assert_allclose(w.entries, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_single_edge(self):
        w = metropolis_weights(GraphTopology(2, [(0, 1)]))
        np.testing.assert_allclose(w.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            metropolis_weights(GraphTopology(3, [(0, 1)]))

    def test_symmetry_exact(self, suite_rng):
        for _ in range(20):
            n = int(suite_rng.integers(2, 15))
            g = random_connected_graph(suite_rng, n)
            w = metropolis_weights(g)
            assert (w.entries == w.entries.T).all()

    def test_validates_at_tight_tolerance(self, suite_rng):
        # doubly stochastic to within accumulation error only
        for _ in range(20):
            n = int(suite_rng.integers(2, 15))
            w = metropolis_weights(random_connected_graph(suite_rng, n))
            assert np.abs(w.entries.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.abs(w.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_disconnected_graph_raises_disconnected_graph(self):
        g = GraphTopology(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraph, match="^metropolis weights require a connected graph$"):
            metropolis_weights(g)

    def test_holds_no_dense_matrix(self):
        w = metropolis_weights(cycle_graph(300))
        arrays = [value for value in vars(w).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 3 and all(array.ndim == 1 for array in arrays)

    def test_entries_are_a_read_only_view_of_the_metropolis_matrix(self):
        rng = np.random.default_rng(SUITE_SEED + 19)  # private stream: the suite stream is unchanged
        for g in (cycle_graph(7), path_graph(2), random_connected_graph(rng, 30)):
            entries = metropolis_weights(g).entries
            assert entries.tobytes() == reference_metropolis(g.n, g.edges.tolist()).tobytes()
            assert not entries.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                entries[0, 0] = 1.0

    def test_keeps_csr_arrays_of_entries(self, suite_rng):
        w = metropolis_weights(random_connected_graph(suite_rng, 9))
        rows, cols = np.nonzero(w.entries)
        assert w.indptr.tolist() == [0, *np.cumsum(np.bincount(rows, minlength=9)).tolist()]
        assert w.indices.tolist() == cols.tolist()
        assert w.data.tobytes() == w.entries[rows, cols].tobytes()
        assert not any(x.flags.writeable for x in (w.entries, w.indptr, w.indices, w.data))


class TestWeightMatrixForm:
    """A ``WeightMatrix`` refuses malformed CSR arrays however it is built."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("indptr", np.array([0, 3, 6, 9]), "do not fit n = 4"),
            ("data", np.ones(11), "do not fit n = 4"),
            ("indices", np.arange(12.0), "integer arrays"),
            ("indptr", np.array([1, 3, 6, 9, 12]), "rise from 0 to nnz = 12"),
            ("indptr", np.array([0, 3, 3, 9, 12]), "rise from 0 to nnz = 12"),
            ("indptr", np.array([0, 3, 6, 9, 11]), "rise from 0 to nnz = 12"),
            ("indices", np.array([0, 1, 4, 0, 1, 2, 1, 2, 3, 0, 2, 3]), r"lie in \[0, 4\)"),
            ("indices", np.array([-1, 1, 3, 0, 1, 2, 1, 2, 3, 0, 2, 3]), r"lie in \[0, 4\)"),
            ("indices", np.array([1, 0, 3, 0, 1, 2, 1, 2, 3, 0, 2, 3]), "increase within each row"),
            ("indices", np.array([0, 1, 3, 0, 1, 1, 1, 2, 3, 0, 2, 3]), "increase within each row"),
            ("indices", np.array([0, 1, 3, 0, 1, 2, 1, 2, 3, 0, 1, 2]), "store its diagonal"),
            ("data", np.r_[np.nan, np.ones(11)], r"^CSR data must lie in \[0, 1\]$"),
            ("data", np.r_[np.ones(11), -np.inf], r"^CSR data must lie in \[0, 1\]$"),
            ("data", np.r_[1 / 3 + 1e-6, np.full(11, 1 / 3)], r"^row 0 sums to 1\.000001, expected 1$"),
            (
                "indices",
                np.array([0, 1, 2, 0, 1, 2, 1, 2, 3, 0, 2, 3]),
                r"^weights must be symmetric: entry \(0,2\) is 0\.3333333333333333 but \(2,0\) is not stored$",
            ),
            (
                "indices",
                np.array([0, 2, 3, 0, 1, 2, 1, 2, 3, 0, 2, 3]),
                r"^weights must be symmetric: entry \(0,1\) is not stored but \(1,0\) is 0\.3333333333333333$",
            ),
            (
                "data",
                np.r_[1 / 3, np.nextafter(1 / 3, 1.0), np.full(10, 1 / 3)],
                r"^weights must be symmetric: entry \(0,1\) is 0\.33333333333333337 but \(1,0\) is 0\.3333333333333333$",
            ),
            ("data", np.r_[1e308, 1e308, np.ones(10)], r"^CSR data must lie in \[0, 1\]$"),
            # a whole matrix: [[1.5, -0.5], [-0.5, 1.5]] is symmetric and its rows
            # sum to one, but its eigenvalues are 1 and 2
            (
                None,
                dict(
                    n=2,
                    indptr=np.array([0, 2, 4]),
                    indices=np.array([0, 1, 0, 1]),
                    data=np.array([1.5, -0.5, -0.5, 1.5]),
                ),
                r"^CSR data must lie in \[0, 1\]$",
            ),
        ],
    )
    def test_refuses_malformed_csr(self, field, value, message):
        w = metropolis_weights(cycle_graph(4))  # rows [0 1 3] [0 1 2] [1 2 3] [0 2 3]
        fields = value if field is None else {field: value}
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(w, **fields)
        csr = {name: value for name, value in vars(w).items() if name != "sigma2"}
        with pytest.raises(ValueError, match=message):
            WeightMatrix(**{**csr, **fields})

    def test_takes_no_sigma2(self):
        w = metropolis_weights(cycle_graph(4))
        with pytest.raises(TypeError):
            WeightMatrix(4, w.sigma2, w.indptr, w.indices, w.data)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(w, sigma2=0.5)

    # Each matrix below is well-formed, symmetric and doubly stochastic, with
    # sigma2 = 1 (the computed value a few ulps above), and is refused with
    # that value, built directly and through dataclasses.replace.
    @staticmethod
    def refuses_its_computed_sigma2(a):
        sigma2 = second_largest_singular_value(a)
        assert sigma2 >= 1.0
        message = f"^sigma2 must lie below 1, got {re.escape(repr(sigma2))}$"
        with pytest.raises(ValueError, match=message):
            WeightMatrix(**csr_fields(a))
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(metropolis_weights(cycle_graph(4)), **csr_fields(a))

    def test_refuses_sigma2_out_of_range(self):
        # the 2 x 2 swap, connected but with the eigenvalue -1
        self.refuses_its_computed_sigma2(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_refuses_the_sigma2_of_a_disconnected_graph(self):
        # two components; metropolis_weights rejects such a graph before it
        # gets here
        self.refuses_its_computed_sigma2(np.kron(np.eye(2), np.full((2, 2), 0.5)))

    def test_refuses_the_identity(self):
        # five components, each a node alone
        self.refuses_its_computed_sigma2(np.eye(5))

    @pytest.mark.parametrize(
        "graph, sizes",
        [
            pytest.param(cycle_graph, (2, 3, 4, 5, 7, 54, 301), id="cycle"),
            pytest.param(path_graph, (2, 3, 4, 5, 7, 54, 301), id="path"),
            pytest.param(complete_graph, (2, 3, 4, 5, 7, 54, 301), id="complete"),
            pytest.param(
                lambda n: bus_derived_graph(synth_ieee118_style(7), synth_bus_lines(7)), (54,), id="synth:7-bus-derived"
            ),
            pytest.param("random", (2, 3, 4, 5, 7, 20, 54), id="random"),
        ],
    )
    def test_sigma2_is_that_of_its_entries(self, graph, sizes, suite_rng):
        # bit for bit, as the benchmark's traced run checks it, whether it
        # comes from a closed form or from the eigensolve
        for n in sizes:
            g = random_connected_graph(suite_rng, n, 0.1) if graph == "random" else graph(n)
            w = metropolis_weights(g)
            assert w.sigma2 == second_largest_singular_value(w.entries) < 1.0


class TestSigma2:
    def test_averaging_matrix(self):
        assert second_largest_singular_value([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(0.0, abs=1e-12)

    def test_lazy_matrix_sigma2(self):
        # eigenvalues 1 and 0.5 of the symmetric matrix
        assert second_largest_singular_value([[0.75, 0.25], [0.25, 0.75]]) == pytest.approx(0.5, abs=1e-12)

    def test_complete3_is_zero(self):
        w = metropolis_weights(complete_graph(3))
        assert w.sigma2 == pytest.approx(0.0, abs=1e-12)

    def test_path3_two_thirds(self):
        # eigenvalues {1, 2/3, 0} via the characteristic polynomial
        w = metropolis_weights(path_graph(3))
        assert w.sigma2 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_matches_eigvalsh_reference(self, suite_rng):
        for _ in range(50):
            n = int(suite_rng.integers(2, 21))
            a = metropolis_weights(random_connected_graph(suite_rng, n)).entries
            assert second_largest_singular_value(a) == pytest.approx(eigvalsh_sigma2(a), abs=1e-12)

    def test_below_one_on_connected(self, suite_rng):
        for _ in range(30):
            n = int(suite_rng.integers(2, 21))
            w = metropolis_weights(random_connected_graph(suite_rng, n))
            assert w.sigma2 < 1.0

    def test_order_70_matches_eigvalsh_reference(self, suite_rng):
        w = metropolis_weights(random_connected_graph(suite_rng, 70))
        assert w.sigma2 == pytest.approx(eigvalsh_sigma2(w.entries), abs=1e-12)

    def test_complete_graphs_stay_near_zero(self):
        # an exact 0, plus the solver's error and the n * eps margin
        for n in (54, 300):
            assert metropolis_weights(complete_graph(n)).sigma2 == pytest.approx(0.0, abs=1e-12)

    # The closed forms against 50-digit references of the stored matrices'
    # spectra: never below, and at most 8 ulps above. Metropolis weights put
    # w = 1/3, rounded, on every edge; a cycle's diagonal is 1 - 2w, exactly,
    # and a path's ends are 1 - w, rounded, half an ulp off d + w.
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 54, 100, 300, 1000, 2000])
    def test_cycle_closed_form(self, n):
        w = metropolis_weights(cycle_graph(n))
        reference = cycle_reference(w.entries)
        ulp = Decimal(math.ulp(float(reference)))
        assert reference - Decimal("1e-45") <= Decimal(w.sigma2) <= reference + 8 * ulp
        assert abs(w.sigma2 - (1.0 / 3.0 + 2.0 / 3.0 * math.cos(2.0 * math.pi / n))) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 54, 100, 300, 1000, 2000])
    def test_path_closed_form(self, n):
        w = metropolis_weights(path_graph(n))
        a = w.entries
        assert a[0, 0] == a[1, 1] + a[0, 1] == a[n - 1, n - 1]
        lo, hi = tridiagonal_reference(a)
        ulp = Decimal(math.ulp(float(hi)))
        assert lo <= Decimal(w.sigma2) <= hi + 8 * ulp
        assert abs(w.sigma2 - (1.0 / 3.0 + 2.0 / 3.0 * math.cos(math.pi / n))) <= 1e-12

    @pytest.mark.parametrize(
        "family, d, w, n",
        [
            ("cycle", 0.125, 0.4375, 4),  # lambda_(n/2) = -0.75 leads lambda_1
            ("cycle", 0.125, 0.4375, 6),
            ("cycle", 0.125, 0.4375, 7),
            ("cycle", 0.5, -0.25, 5),  # spectrum in [0, 1], lambda_0 = 0
            ("cycle", 0.5, -0.25, 8),
            ("path", -0.25, 0.5, 3),  # lambda_(n-1) leads, lambda_0 = 0.75 comes second
            ("path", -0.25, 0.5, 4),
            ("path", -0.25, 0.5, 9),
            ("path", 0.125, 0.4375, 5),
        ],
    )
    def test_closed_forms_of_other_weights(self, family, d, w, n, monkeypatch):
        # any weights of the three shapes, not only Metropolis ones, where the
        # two largest |lambda_k| sit at either end of the spectrum
        a = d * np.eye(n) + w * (np.eye(n, k=1) + np.eye(n, k=-1))
        if family == "cycle":
            a[0, n - 1] = a[n - 1, 0] = w
        else:
            a[0, 0] = a[n - 1, n - 1] = d + w
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        sigma2 = second_largest_singular_value(a)
        if family == "cycle":
            lo = hi = cycle_reference(a)
        else:
            lo, hi = tridiagonal_reference(a)
        assert lo - Decimal("1e-45") <= Decimal(sigma2) <= hi + 8 * Decimal(math.ulp(float(hi)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 54, 300])
    def test_complete_graph_is_exact(self, n):
        w = metropolis_weights(complete_graph(n))
        d, off = w.entries[0, 0], w.entries[0, 1]
        assert Fraction(w.sigma2) == abs(Fraction(d) - Fraction(off))

    @pytest.mark.parametrize("graph", [cycle_graph, path_graph, complete_graph], ids=["cycle", "path", "complete"])
    def test_the_three_families_take_no_eigensolve(self, graph, monkeypatch):
        def refuse(a):
            raise AssertionError("eigvalsh reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for n in (2, 3, 4, 5, 6, 54, 300):
            w = metropolis_weights(graph(n))
            assert second_largest_singular_value(w.entries) == w.sigma2 < 1.0

    def test_a_cycle_one_ulp_off_takes_the_eigensolve(self, monkeypatch):
        n = 12
        a = metropolis_weights(cycle_graph(n)).entries.copy()
        a[0, 1] = a[1, 0] = np.nextafter(a[0, 1], 1.0)  # still symmetric and stochastic to 1e-9
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
        sigma2 = WeightMatrix(**csr_fields(a)).sigma2
        assert calls == [n]
        mags = np.sort(np.abs(eigvalsh(a)))
        assert sigma2 == second_largest_singular_value(a) == float(mags[-2] + n * EPS * mags[-1])
        assert calls == [n, n]

    def test_other_entry_counts_are_refused_unread(self):
        # the count alone turns a matrix away: neither positions nor values are read
        g = bus_derived_graph(synth_ieee118_style(7), synth_bus_lines(7))
        nnz = len(metropolis_weights(g).data)
        assert nnz not in (g.n**2, 3 * g.n, 3 * g.n - 2)
        assert _closed_form_sigma2(g.n, None, None, np.empty(nnz)) is None

    def test_math_sin_is_within_one_ulp(self, suite_rng):
        # SIN_ERROR_ULPS assumes two ulps of the result; check one ulp of pi p / q,
        # 0 < p / q < 1/2, against the 50-digit cosine of pi/2 - pi p / q
        pairs = [(p, q) for q in (8, 10, 12, 16, 20, 24, 108, 200) for p in range(1, (q + 1) // 2)]
        qs = suite_rng.integers(3, 8001, 300)
        pairs += [(int(suite_rng.integers(1, (q + 1) // 2)), int(q)) for q in qs]
        with localcontext() as ctx:
            ctx.prec = 60
            for p, q in pairs:
                theta = math.pi * p / q
                s = math.sin(theta)
                exact = decimal_cos(PI / 2 - Decimal(theta))
                assert abs(Decimal(s) - exact) <= Decimal(math.ulp(s)), (p, q)

    def test_negative_eigenvalue_counts_by_its_magnitude(self):
        # eigenvalues 1 and -0.5 exactly, so the singular values are 1 and 0.5
        a = np.array([[0.25, 0.75], [0.75, 0.25]])
        assert 0.5 <= second_largest_singular_value(a) <= 0.5 + (2 + 4) * EPS

    @pytest.mark.parametrize("shape", ["circulant", "one-ulp asymmetry"])
    def test_refuses_a_non_symmetric_matrix(self, shape):
        n = 12
        if shape == "circulant":
            # 0.5 on the diagonal, 0.3 to the next node and 0.2 to the previous one
            a = 0.5 * np.eye(n) + 0.3 * np.roll(np.eye(n), 1, axis=1) + 0.2 * np.roll(np.eye(n), -1, axis=1)
        else:
            a = metropolis_weights(cycle_graph(n)).entries.copy()
            a[0, 1] = np.nextafter(a[0, 1], 1.0)
        with pytest.raises(ValueError, match="^sigma2 needs a symmetric matrix$"):
            second_largest_singular_value(a)

    @pytest.mark.parametrize("workload", ["dispatch54", "cycle300"])
    def test_repeatable_on_benchmark_graphs(self, workload):
        # the benchmark's traced mode fails a run whose probe differs from W.sigma2
        if workload == "dispatch54":  # synth:7, 54 nodes, on its bus-derived graph
            g = bus_derived_graph(synth_ieee118_style(7), synth_bus_lines(7))
        else:  # synth:7:300 on a cycle
            g = cycle_graph(300)
        w = metropolis_weights(g)
        assert second_largest_singular_value(w.entries) == w.sigma2


class TestFileFormats:
    def test_edge_list_round_trip(self):
        text = "# a comment\n0 1\n\n1 2\n"
        g = parse_edge_list(text, 3)
        assert g.n == 3 and g.edges.tolist() == path_graph(3).edges.tolist()
        written = "".join(f"{j} {i}\n" for i, j in g.edges.tolist())
        assert parse_edge_list(written, 3).edges.tolist() == g.edges.tolist()

    def test_edge_list_bad_token(self):
        with pytest.raises(ParseError, match=r"^line 1: non-integer node index in '0 x'$"):
            parse_edge_list("0 x\n", 2)

    def test_edge_list_wrong_field_count(self):
        with pytest.raises(ParseError, match=r"^line 2: expected 'i j', got '1 2 3'$"):
            parse_edge_list("0 1\n1 2 3\n", 3)

    def test_edge_list_huge_index_is_out_of_range(self):
        # n bounds the indices, so a huge one is refused before any array is sized by it
        with pytest.raises(ValueError, match=r"^edge \(2,3000000000\) outside node range \[0,3\)$"):
            parse_edge_list("0 1\n1 2\n2 3000000000\n", 3)


def reference_edges(n, edges):
    """The per-pair loop ``GraphTopology`` ran before its edge arrays: sorted pairs."""
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
    return sorted(normalized)


def reference_reached(n, edges, start=0):
    """The nodes reached from ``start`` by the traversal ``check_connected`` ran from node 0."""
    neigh = [[] for _ in range(n)]
    for a, b in edges:
        neigh[a].append(b)
        neigh[b].append(a)
    seen = {start}
    stack = [start]
    while stack:
        for v in neigh[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reference_connected(n, edges):
    return len(reference_reached(n, edges)) == n


def reference_degrees(n, edges):
    """The per-edge loop ``GraphTopology.degrees`` ran before its edge arrays."""
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def reference_metropolis(n, edges):
    """The per-edge loop ``metropolis_weights`` ran before its edge arrays."""
    deg = reference_degrees(n, edges)
    a = np.zeros((n, n))
    for i, j in edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        a[i, j] = w
        a[j, i] = w
    for i in range(n):
        a[i, i] = 1.0 - math.fsum(a[i].tolist())  # a[i, i] is still 0 here
    return a


def reference_max_degree(n, edges):
    """Lazy max-degree weights, ``1 / (2 * max_degree)`` on every edge, edge by edge."""
    deg = reference_degrees(n, edges)
    w = 1.0 / (2.0 * max(deg))
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = w
        a[j, i] = w
    a[np.diag_indices(n)] = 1.0 - np.asarray(deg) * w
    return a


def random_edge_list(rng):
    """``(n, pairs)``: random pairs in both orientations, some with a fault.

    Faults are self-loops, out-of-range ends (including ends beyond int64) and
    repeats of an earlier pair in either orientation.
    """
    n = int(rng.integers(2, 13))
    density = rng.uniform(0.05, 0.9)
    pairs = [
        (j, i) if rng.random() < 0.5 else (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    for _ in range(int(rng.integers(0, 4)) if rng.random() < 0.5 else 0):
        at = int(rng.integers(0, len(pairs) + 1))
        kind = int(rng.integers(0, 3))
        i = int(rng.integers(0, n))
        if kind == 0:
            v = [i, i, n, 2**70][int(rng.integers(0, 4))]
            fault = (v, v)
        elif kind == 1:
            end = [-1, n, n + 7, -n, 2**64, -(2**63) - 1][int(rng.integers(0, 6))]
            fault = (i, end) if rng.random() < 0.5 else (end, i)
        elif at > 0:
            a, b = pairs[int(rng.integers(0, at))]
            fault = (b, a) if rng.random() < 0.5 else (a, b)
        else:
            continue
        pairs.insert(at, fault)
    return n, pairs


class TestEdgeArraysMatchReferences:
    """``GraphTopology`` and the weights against their old loops."""

    def test_random_edge_lists(self):
        rng = np.random.default_rng(SUITE_SEED + 7)  # private stream
        outcomes = {"error": 0, "connected": 0, "disconnected": 0}
        for _ in range(1500):
            n, pairs = random_edge_list(rng)
            try:
                expected = reference_edges(n, pairs)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    GraphTopology(n, pairs)
                assert str(err.value) == str(exc)
                outcomes["error"] += 1
                continue
            g = GraphTopology(n, pairs)
            assert g.edges.tolist() == [list(e) for e in expected]
            assert g.edges.shape == (len(expected), 2) and not g.edges.flags.writeable
            assert g.degrees().tolist() == reference_degrees(n, expected)
            assert g.connected == reference_connected(n, expected)
            if g.connected:
                outcomes["connected"] += 1
                entries = metropolis_weights(g).entries
                assert entries.tobytes() == reference_metropolis(n, expected).tobytes()
                # a valid weight matrix that is not a Metropolis one
                lazy = reference_max_degree(n, expected)
                w = WeightMatrix(**csr_fields(lazy))
                assert w.entries.tobytes() == lazy.tobytes()
                assert w.sigma2 == second_largest_singular_value(lazy)
            else:
                outcomes["disconnected"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    @pytest.mark.parametrize("n", [2, 3, 64, 257])
    def test_relabelled_paths_and_cycles(self, n):
        rng = np.random.default_rng([SUITE_SEED, n])  # private stream
        label = rng.permutation(n).tolist()
        path = [(label[k], label[k + 1]) for k in range(n - 1)]
        assert GraphTopology(n, path).connected
        for cut in {0, (n - 1) // 2, n - 2}:
            assert not GraphTopology(n, path[:cut] + path[cut + 1 :]).connected
        if n > 2:
            cycle = path + [(label[-1], label[0])]
            g = GraphTopology(n, cycle)
            assert g.connected and reference_connected(n, g.edges.tolist())
            entries = metropolis_weights(g).entries
            assert entries.tobytes() == reference_metropolis(n, g.edges.tolist()).tobytes()


class TestComponentLabels:
    """Each node's label is the smallest node it can reach."""

    def test_random_edge_lists(self):
        rng = np.random.default_rng(SUITE_SEED + 13)  # private stream
        components = {1: 0, 2: 0, 3: 0}  # lists with one, two, or three or more components
        for _ in range(500):
            n = int(rng.integers(1, 25))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))  # self-loops and repeats
            expected = [min(reference_reached(n, edges.tolist(), v)) for v in range(n)]
            assert component_labels(n, edges).tolist() == expected
            components[min(len(set(expected)), 3)] += 1
        assert component_labels(0, np.zeros((0, 2), dtype=np.int64)).tolist() == []
        assert min(components.values()) >= 50, components

    def test_relabelled_path_settles_on_smallest_node(self):
        rng = np.random.default_rng([SUITE_SEED, 13])  # private stream
        label = rng.permutation(1000)
        path = np.stack([label[:-1], label[1:]], axis=1)
        assert not component_labels(1000, path).any()
        halves = label[:500], label[500:]
        expected = np.empty(1000, dtype=np.int64)
        for half in halves:
            expected[half] = half.min()
        assert component_labels(1000, np.delete(path, 499, axis=0)).tolist() == expected.tolist()

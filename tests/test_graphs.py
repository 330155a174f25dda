"""Graph topology, weight construction/validation, and spectral gap tests."""

import math

import numpy as np
import pytest

from netalloc import (
    ColSumViolation,
    DisconnectedGraph,
    GraphTopology,
    RowSumViolation,
    SparsityMismatch,
    ZeroDiagonal,
    check_connected,
    complete_graph,
    cycle_graph,
    max_degree_weights,
    metropolis_weights,
    parse_edge_list,
    parse_weight_matrix,
    path_graph,
    second_largest_singular_value,
    serialize_edge_list,
    validate_weight_matrix,
)
from conftest import random_connected_graph


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
        assert g.degrees() == [1, 2, 1]
        assert g.neighbors(1) == [0, 2]


class TestConnectivity:
    def test_path_connected(self):
        assert check_connected(path_graph(3))

    def test_isolated_node(self):
        assert not check_connected(GraphTopology(3, [(0, 1)]))

    def test_five_node_cycle(self):
        assert check_connected(cycle_graph(5))

    def test_two_node_cycle_is_single_edge(self):
        assert cycle_graph(2).edges == frozenset({(0, 1)})


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


class TestMaxDegreeWeights:
    def test_lazy_diagonal(self):
        w = max_degree_weights(path_graph(4))
        assert (np.diag(w.entries) >= 0.5).all()

    def test_doubly_stochastic(self, suite_rng):
        g = random_connected_graph(suite_rng, 8)
        w = max_degree_weights(g)
        assert np.abs(w.entries.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(w.entries.sum(axis=1) - 1.0).max() <= 1e-12


class TestValidateWeightMatrix:
    def setup_method(self):
        self.edge = GraphTopology(2, [(0, 1)])

    def test_averaging_matrix(self):
        w = validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]], self.edge)
        assert w.sigma2 == pytest.approx(0.0, abs=1e-12)

    def test_lazy_matrix_sigma2(self):
        # eigenvalues 1 and 0.5 of the symmetric matrix
        w = validate_weight_matrix([[0.75, 0.25], [0.25, 0.75]], self.edge)
        assert w.sigma2 == pytest.approx(0.5, abs=1e-12)

    def test_identity_is_sparsity_mismatch(self):
        with pytest.raises(SparsityMismatch) as err:
            validate_weight_matrix([[1.0, 0.0], [0.0, 1.0]], self.edge)
        assert err.value.is_edge

    def test_row_sum_violation_names_index(self):
        g = path_graph(3)
        a = metropolis_weights(g).entries.copy()
        a[1, 1] += 1e-6
        with pytest.raises(RowSumViolation) as err:
            validate_weight_matrix(a, g)
        assert err.value.index == 1

    def test_col_sum_violation(self):
        # rows sum to one, column 0 does not
        a = np.array([[0.6, 0.4], [0.5, 0.5]])
        with pytest.raises(ColSumViolation) as err:
            validate_weight_matrix(a, self.edge)
        assert err.value.index == 0

    def test_zero_diagonal(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ZeroDiagonal):
            validate_weight_matrix(a, self.edge)

    def test_nonzero_off_edge(self):
        g = path_graph(3)
        a = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        with pytest.raises(SparsityMismatch) as err:
            validate_weight_matrix(a, g)
        assert not err.value.is_edge

    def test_reports_first_violation_in_row_major_order(self):
        # doubly stochastic with a positive diagonal; (0,1) is an edge left at
        # zero and (0,2) a non-edge set positive, so (0,1) comes first
        g = path_graph(3)
        a = np.array([[0.6, 0.0, 0.4], [0.0, 0.5, 0.5], [0.4, 0.5, 0.1]])
        with pytest.raises(SparsityMismatch) as err:
            validate_weight_matrix(a, g)
        assert err.value.args == SparsityMismatch(0, 1, a[0, 1], True).args
        assert (err.value.i, err.value.j, err.value.is_edge) == (0, 1, True)

    def test_accepts_user_supplied(self):
        g = path_graph(3)
        a = np.array([[0.8, 0.2, 0.0], [0.2, 0.6, 0.2], [0.0, 0.2, 0.8]])
        w = validate_weight_matrix(a, g)
        assert 0.0 < w.sigma2 < 1.0


class TestSigma2:
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

    # Metropolis weights put 1/3 on every edge of a cycle or path (n >= 3), so
    # their spectra are 1/3 + 2/3*cos(2*pi*k/n) and 1/3 + 2/3*cos(pi*k/n)
    @pytest.mark.parametrize("n", [100, 1000])
    def test_cycle_closed_form(self, n):
        w = metropolis_weights(cycle_graph(n))
        assert abs(w.sigma2 - (1.0 / 3.0 + 2.0 / 3.0 * math.cos(2.0 * math.pi / n))) <= 1e-12

    @pytest.mark.parametrize("n", [100, 1000])
    def test_path_closed_form(self, n):
        w = metropolis_weights(path_graph(n))
        assert abs(w.sigma2 - (1.0 / 3.0 + 2.0 / 3.0 * math.cos(math.pi / n))) <= 1e-12


class TestFileFormats:
    def test_edge_list_round_trip(self):
        text = "# a comment\n0 1\n\n1 2\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.edges == path_graph(3).edges
        assert parse_edge_list(serialize_edge_list(g)).edges == g.edges

    def test_edge_list_bad_token(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_edge_list("0 x\n")

    def test_weight_matrix_file(self):
        a = parse_weight_matrix("0.5 0.5\n0.5 0.5\n")
        w = validate_weight_matrix(a, GraphTopology(2, [(0, 1)]))
        assert w.sigma2 == pytest.approx(0.0, abs=1e-12)

    def test_weight_matrix_not_square(self):
        with pytest.raises(ValueError, match="square"):
            parse_weight_matrix("0.5 0.5\n")

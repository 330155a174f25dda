"""Cost functions, the local primal step, and dual quantities."""

import math

import numpy as np
import pytest

from netalloc import (
    FeasibleInterval,
    LocalProblem,
    Quadratic,
    dual_value,
    primal_argmin,
    subgradient_bound,
)
from netalloc.objectives import NodeCosts


def grid_argmin(fn, lo, hi, points=200_001):
    """Independent brute-force minimizer on a dense grid."""
    xs = np.linspace(lo, hi, points)
    return float(xs[np.argmin([fn(x) for x in xs])])


def gen1_problem(share=60.0):
    # 0.04 x^2 + 2 x on [0, 80]
    return LocalProblem(Quadratic(0.04, 2.0), FeasibleInterval(0.0, 80.0), share)


class TestFeasibleInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match="empty"):
            FeasibleInterval(1.0, 0.0)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError, match="finite"):
            FeasibleInterval(0.0, math.inf)

    def test_singleton_allowed(self):
        assert FeasibleInterval(2.0, 2.0).width == 0.0


class TestPrimalArgmin:
    def test_interior_minimizer(self):
        p = gen1_problem()
        x = primal_argmin(p, -4.0)
        assert x == pytest.approx(25.0, abs=1e-12)
        # grid oracle over [0, 80]
        oracle = grid_argmin(lambda t: 0.04 * t * t + 2.0 * t + (-4.0) * t, 0.0, 80.0)
        assert x == pytest.approx(oracle, abs=1e-3)

    def test_lower_endpoint(self):
        assert primal_argmin(gen1_problem(), -2.0) == 0.0

    def test_clamps_to_upper(self):
        p = gen1_problem()
        x = primal_argmin(p, -10.0)
        assert x == 80.0
        oracle = grid_argmin(lambda t: 0.04 * t * t + 2.0 * t - 10.0 * t, 0.0, 80.0)
        assert oracle == pytest.approx(80.0, abs=1e-3)

    def test_independent_of_share(self):
        a = primal_argmin(gen1_problem(share=60.0), -4.0)
        b = primal_argmin(gen1_problem(share=-7.5), -4.0)
        assert a == b

    def test_linear_cost_tie_break_returns_lo(self):
        p = LocalProblem(Quadratic(0.0, 2.0), FeasibleInterval(-1.0, 3.0), 0.0)
        assert primal_argmin(p, -2.0) == -1.0  # every point optimal

    def test_linear_cost_endpoints(self):
        p = LocalProblem(Quadratic(0.0, 2.0), FeasibleInterval(-1.0, 3.0), 0.0)
        assert primal_argmin(p, 1.0) == -1.0
        assert primal_argmin(p, -5.0) == 3.0

    # -(2 - 2) / 2 is -0.0 and -(-0.0 + -0.0) / 2 is 0.0; each meets an interval end of the other sign
    @pytest.mark.parametrize(
        "beta, v, lo, hi",
        [(2.0, -2.0, 0.0, 5.0), (-0.0, -0.0, -0.0, 5.0), (2.0, -2.0, -5.0, 0.0), (-0.0, -0.0, -5.0, -0.0)],
    )
    def test_zero_tie_matches_node_costs_bit_for_bit(self, beta, v, lo, hi):
        p = LocalProblem(Quadratic(1.0, beta), FeasibleInterval(lo, hi), 0.0)
        node = NodeCosts([p]).argmin(v)[0]
        assert np.float64(primal_argmin(p, v)).tobytes() == node.tobytes()

    def test_node_costs_match_per_node_bit_for_bit(self, suite_rng):
        # slopes of +0.0 and -0.0 inside the interval, where only the sign of
        # the quotient tells the results apart; flat nodes on either side of
        # and at their tie; clamped nodes at both ends; and random nodes
        nodes = [
            (1.0, 2.0, -2.0, -5.0, 5.0),
            (1.0, -0.0, -0.0, -5.0, 5.0),
            (3.0, 0.0, -0.0, -5.0, 5.0),
            (1e-300, 1.0, -0.5, -5.0, 5.0),
            (0.0, 2.0, -2.0, -1.0, 3.0),
            (0.0, 2.0, 1.0, -1.0, 3.0),
            (0.0, 2.0, -5.0, -1.0, 3.0),
            (0.0, -0.0, -0.0, -0.0, 0.0),
            (0.5, 2.0, -100.0, -1.0, 3.0),
            (0.5, 2.0, 100.0, -1.0, 3.0),
        ]
        for _ in range(40):
            gamma = float(suite_rng.choice([0.0, suite_rng.uniform(1e-3, 2.0)]))
            lo, hi = sorted(suite_rng.uniform(-10.0, 10.0, 2).tolist())
            nodes.append((gamma, *suite_rng.uniform(-10.0, 10.0, 2).tolist(), lo, hi))
        problems = [LocalProblem(Quadratic(g, b), FeasibleInterval(lo, hi), 0.0) for g, b, _, lo, hi in nodes]
        v = np.array([node[2] for node in nodes])
        costs = NodeCosts(problems)

        def per_node(vs):
            return np.array([primal_argmin(p, x) for p, x in zip(problems, vs.tolist())]).tobytes()

        assert costs.argmin(v).tobytes() == per_node(v)
        for shared in (0.0, -0.0, -2.0, 7.5):  # one multiplier for every node, alone and as a column
            assert costs.argmin(shared).tobytes() == per_node(np.full(len(nodes), shared))
            column = costs.argmin(np.array([[shared], [-shared]]))
            assert column.tobytes() == per_node(np.full(len(nodes), shared)) + per_node(np.full(len(nodes), -shared))

    def test_feasibility_property(self, suite_rng):
        # optimality certificate against random feasible points
        for _ in range(1000):
            lo = float(suite_rng.uniform(-10, 0))
            hi = float(suite_rng.uniform(0, 10))
            p = LocalProblem(
                Quadratic(float(suite_rng.uniform(0, 1)), float(suite_rng.uniform(-5, 5))),
                FeasibleInterval(lo, hi),
                float(suite_rng.uniform(-5, 5)),
            )
            v = float(suite_rng.uniform(-10, 10))
            x_hat = primal_argmin(p, v)
            assert lo <= x_hat <= hi
            best = p.cost.value(x_hat) + v * x_hat
            others = lo + (hi - lo) * suite_rng.random(100)
            vals = p.cost.value(others) + v * others
            assert (best <= vals + 1e-9).all()


class TestQuadraticValidation:
    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Quadratic(-0.1, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma", "beta", "mu"])
    def test_rejects_non_finite_coefficient(self, field, bad):
        coefficients = {"gamma": 0.1, "beta": 1.0, "mu": 0.0, field: bad}
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {bad}$"):
            Quadratic(**coefficients)


class TestLocalProblemValidation:
    @pytest.mark.parametrize("cost", [lambda x: x * x, 0.5, None])
    def test_refuses_a_cost_that_is_not_a_quadratic(self, cost):
        name = type(cost).__name__
        with pytest.raises(TypeError, match=rf"^cost must be a Quadratic, got {name}$"):
            LocalProblem(cost, FeasibleInterval(-1.0, 1.0), 0.0)


class TestDualValue:
    def test_boundary_minimizer(self):
        p = LocalProblem(Quadratic(0.5, 0.0, 0.0), FeasibleInterval(-1.0, 1.0), 0.0)
        assert dual_value(p, 1.0) == pytest.approx(0.5, abs=1e-12)
        oracle_x = grid_argmin(lambda t: 0.5 * t * t + 1.0 * t, -1.0, 1.0)
        assert -(0.5 * oracle_x**2 + 1.0 * oracle_x) == pytest.approx(0.5, abs=1e-4)

    def test_vanishes_at_share(self):
        # x_hat = b and f(x_hat) = 0 makes both terms vanish
        p = LocalProblem(Quadratic(0.5, 0.0, 0.0), FeasibleInterval(-1.0, 1.0), 0.0)
        assert dual_value(p, 0.0) == 0.0

    def test_zero_multiplier_gen1(self):
        p = gen1_problem()
        assert dual_value(p, 0.0) == 0.0  # x_hat = 0, f(0) = 0

    def test_mu_carried_through(self):
        p = LocalProblem(Quadratic(0.5, 0.0, 3.0), FeasibleInterval(-1.0, 1.0), 0.0)
        assert dual_value(p, 0.0) == pytest.approx(-3.0, abs=1e-12)

    def test_convexity_probe(self, suite_rng):
        p = LocalProblem(Quadratic(0.2, 1.0, -0.5), FeasibleInterval(-3.0, 5.0), 1.0)
        for _ in range(200):
            l1, l2 = suite_rng.uniform(-8, 8, size=2)
            t = float(suite_rng.uniform(0.01, 0.99))
            mid = dual_value(p, t * l1 + (1 - t) * l2)
            assert mid <= t * dual_value(p, l1) + (1 - t) * dual_value(p, l2) + 1e-9

    def test_subgradient_inequality(self, suite_rng):
        p = LocalProblem(Quadratic(0.3, -2.0), FeasibleInterval(-4.0, 4.0), 0.5)
        for _ in range(200):
            u, v = suite_rng.uniform(-6, 6, size=2)
            lhs = dual_value(p, u)
            rhs = dual_value(p, v) + (p.share - primal_argmin(p, v)) * (u - v)
            assert lhs >= rhs - 1e-9


class TestDualSubgradient:
    """The dual subgradient ``b_i - x_hat`` that the simulator's dual step uses."""

    def test_bounded_by_subgradient_bound(self, suite_rng):
        for _ in range(300):
            lo = float(suite_rng.uniform(-10, 0))
            hi = float(suite_rng.uniform(0, 10))
            p = LocalProblem(
                Quadratic(float(suite_rng.uniform(0, 1)), float(suite_rng.uniform(-5, 5))),
                FeasibleInterval(lo, hi),
                float(suite_rng.uniform(-15, 15)),
            )
            v = float(suite_rng.uniform(-20, 20))
            assert abs(p.share - primal_argmin(p, v)) <= subgradient_bound(p) + 1e-15


class TestSubgradientBound:
    def test_asymmetric(self):
        assert subgradient_bound(gen1_problem(share=60.0)) == 60.0

    def test_symmetric(self):
        assert subgradient_bound(gen1_problem(share=40.0)) == 40.0

    def test_degenerate_singleton(self):
        p = LocalProblem(Quadratic(1.0, 0.0), FeasibleInterval(2.0, 2.0), 2.0)
        assert subgradient_bound(p) == 0.0


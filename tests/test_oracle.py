"""Centralized reference solver tests, including brute-force cross-checks."""

import math

import numpy as np
import pytest

from netalloc import (
    FeasibleInterval,
    InfeasibleTotal,
    LocalProblem,
    OracleSolution,
    Quadratic,
    builtin_ieee14,
    dual_value,
    solve_centralized,
    to_problems,
    verify_kkt,
)
from conftest import random_quadratic_instance

# Frozen regression values for the builtin five-generator case, computed
# independently from the interior stationarity conditions: all optimal outputs
# are strictly inside their boxes, so the common multiplier solves
# sum_i (-lam - beta_i) / (2 gamma_i) = 300 in closed form.
IEEE14_LAM_STAR = -7.299180327868853
IEEE14_F_STAR = 1547.8184767759565
IEEE14_X_STAR = (
    66.23975409836066,
    71.65300546448088,
    47.131147540983605,
    54.98633879781421,
    59.989754098360656,
)


def brute_force_best(problems, b, points=200):
    """Exhaustive grid enumeration: first n-1 coordinates on their grids, the
    last one absorbs the balance when feasible."""
    grids = [np.linspace(p.interval.lo, p.interval.hi, points) for p in problems[:-1]]
    last = problems[-1]
    best = math.inf
    combos = np.meshgrid(*grids, indexing="ij") if grids else []
    if grids:
        stacked = np.stack([c.ravel() for c in combos], axis=0)
        residual = b - stacked.sum(axis=0)
        ok = (residual >= last.interval.lo) & (residual <= last.interval.hi)
        if not ok.any():
            return math.inf
        stacked = stacked[:, ok]
        residual = residual[ok]
        total = np.zeros(stacked.shape[1])
        for i, p in enumerate(problems[:-1]):
            xi = stacked[i]
            total += p.cost.gamma * xi * xi + p.cost.beta * xi + p.cost.mu
        total += last.cost.gamma * residual * residual + last.cost.beta * residual + last.cost.mu
        best = float(total.min())
    else:
        if last.interval.lo <= b <= last.interval.hi:
            best = last.cost.value(b)
    return best


class TestTwoNodeToy:
    def setup_method(self):
        p = LocalProblem(Quadratic(0.5, 0.0), FeasibleInterval(-10.0, 10.0), 2.0)
        self.problems = [p, p]

    def test_symmetric_solution(self):
        sol = solve_centralized(self.problems, 4.0)
        np.testing.assert_allclose(sol.x_star, [2.0, 2.0], atol=1e-8)
        assert sol.lam_star == pytest.approx(-2.0, abs=1e-8)
        assert sol.f_star == pytest.approx(4.0, abs=1e-8)
        assert sol.residual <= 1e-9

    def test_grid_cross_check(self):
        sol = solve_centralized(self.problems, 4.0)
        assert sol.f_star <= brute_force_best(self.problems, 4.0, points=400) + 1e-3

    def test_kkt_certificate(self):
        sol = solve_centralized(self.problems, 4.0)
        assert verify_kkt(self.problems, sol, b=4.0)


class TestBoundaryCases:
    def test_total_at_upper_limits(self):
        problems = [
            LocalProblem(Quadratic(0.1, 1.0), FeasibleInterval(0.0, 3.0), 2.0),
            LocalProblem(Quadratic(0.2, -1.0), FeasibleInterval(-1.0, 4.0), 5.0),
        ]
        sol = solve_centralized(problems, 7.0)  # only feasible point: all at hi
        np.testing.assert_allclose(sol.x_star, [3.0, 4.0], atol=1e-6)

    def test_infeasible_total(self):
        problems = [LocalProblem(Quadratic(0.1, 1.0), FeasibleInterval(0.0, 3.0), 2.0)]
        with pytest.raises(InfeasibleTotal):
            solve_centralized(problems, 100.0)

    def test_default_total_is_share_sum(self):
        p = LocalProblem(Quadratic(0.5, 0.0), FeasibleInterval(-10.0, 10.0), 2.0)
        sol = solve_centralized([p, p])
        assert sol.lam_star == pytest.approx(-2.0, abs=1e-8)

    def test_single_node(self):
        p = LocalProblem(Quadratic(0.3, 1.0), FeasibleInterval(0.0, 10.0), 4.0)
        sol = solve_centralized([p], 4.0)
        assert sol.x_star[0] == pytest.approx(4.0, abs=1e-8)


class TestBuiltinCaseRegression:
    def test_frozen_fixture(self):
        problems = to_problems(builtin_ieee14())
        sol = solve_centralized(problems, 300.0)
        assert sol.lam_star == pytest.approx(IEEE14_LAM_STAR, abs=1e-6)
        assert sol.f_star == pytest.approx(IEEE14_F_STAR, abs=1e-5)
        np.testing.assert_allclose(sol.x_star, IEEE14_X_STAR, atol=1e-5)
        assert sol.residual <= 1e-9

    def test_pairwise_exchange_optimality(self):
        # moving 0.01 MW between any two generators cannot lower the cost
        problems = to_problems(builtin_ieee14())
        sol = solve_centralized(problems, 300.0)
        base = sol.f_star
        n = len(problems)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                x = sol.x_star.copy()
                x[i] += 0.01
                x[j] -= 0.01
                if not all(problems[k].interval.lo <= x[k] <= problems[k].interval.hi for k in (i, j)):
                    continue
                cost = math.fsum(p.cost.value(x[k]) for k, p in enumerate(problems))
                assert cost >= base - 1e-9


class TestVerifyKkt:
    def setup_method(self):
        self.problems = to_problems(builtin_ieee14())
        self.sol = solve_centralized(self.problems, 300.0)

    def test_accepts_oracle_output(self):
        assert verify_kkt(self.problems, self.sol, b=300.0)

    def test_rejects_perturbed_coordinate(self):
        x = self.sol.x_star.copy()
        x[0] += 0.1
        bad = OracleSolution(x, self.sol.f_star, self.sol.lam_star, self.sol.residual)
        assert not verify_kkt(self.problems, bad, b=300.0)

    def test_rejects_perturbed_multiplier(self):
        bad = OracleSolution(
            self.sol.x_star.copy(), self.sol.f_star, self.sol.lam_star + 1.0, self.sol.residual
        )
        assert not verify_kkt(self.problems, bad, b=300.0)


class TestRandomInstances:
    def test_brute_force_and_strong_duality(self, suite_rng):
        # a quick slice; the acceptance suite runs the full 50-instance check
        for _ in range(8):
            n = int(suite_rng.integers(1, 5))
            problems, total = random_quadratic_instance(suite_rng, n=n)
            sol = solve_centralized(problems, total)
            assert sol.f_star <= brute_force_best(problems, total) + 1e-3
            dual_total = math.fsum(dual_value(p, sol.lam_star) for p in problems)
            assert abs(sol.f_star + dual_total) <= 1e-6
            assert verify_kkt(problems, sol, b=total)

    def test_flat_cost_plateau(self):
        # linear costs: the aggregate response jumps; the reported residual
        # stays within the plateau width and the allocation stays feasible
        problems = [
            LocalProblem(Quadratic(0.0, 1.0), FeasibleInterval(0.0, 4.0), 2.0),
            LocalProblem(Quadratic(0.0, 2.0), FeasibleInterval(0.0, 4.0), 2.0),
        ]
        sol = solve_centralized(problems, 4.0)
        assert all(p.interval.lo <= x <= p.interval.hi for p, x in zip(problems, sol.x_star))
        assert sol.residual <= 4.0
        assert sol.f_star <= brute_force_best(problems, 4.0, points=401) + 1e-6


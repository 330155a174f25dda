"""Centralized reference solver tests, including brute-force cross-checks."""

import dataclasses
import math
from fractions import Fraction

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
    synth_ieee118_style,
    to_problems,
    verify_kkt,
)
from netalloc.objectives import NodeCosts
from conftest import SUITE_SEED, random_quadratic_instance
import reference
from reference import value

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
            best = value(last.cost, b)
    return best


def exact_response(problems, lam):
    """The exact aggregate response at a rational ``lam``: each strictly convex
    node's clamped stationary point, each flat node at ``hi`` where
    ``beta + lam < 0`` and at ``lo`` otherwise, as ``NodeCosts`` puts it."""
    total = Fraction(0)
    for p in problems:
        gamma, beta = Fraction(p.cost.gamma), Fraction(p.cost.beta)
        lo, hi = Fraction(p.interval.lo), Fraction(p.interval.hi)
        if gamma == 0:
            total += hi if beta + lam < 0 else lo
        else:
            total += min(hi, max(lo, -(beta + lam) / (2 * gamma)))
    return total


def exact_root(problems, b):
    """The smallest real ``lam`` with ``exact_response(lam) <= b``, and whether
    it is the only optimal multiplier; ``(None, False)`` when every ``lam``
    below the breakpoints qualifies (``b == sum hi``).

    The response is piecewise linear between the sorted breakpoints and
    right-continuous, so the root is the first breakpoint where it is at most
    ``b``, or the solution of the linear piece just before that breakpoint.
    """
    b = Fraction(b)
    points = set()
    for p in problems:
        gamma, beta = Fraction(p.cost.gamma), Fraction(p.cost.beta)
        ends = (Fraction(p.interval.lo), Fraction(p.interval.hi))
        points.update([-beta] if gamma == 0 else [-beta - 2 * gamma * end for end in ends])
    points = sorted(points)
    lo, hi = 0, len(points) - 1  # the response at the last breakpoint is sum lo, at most b but for rounding
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_response(problems, points[mid]) <= b:
            hi = mid
        else:
            lo = mid + 1
    root = points[lo]
    if lo == 0:
        if exact_response(problems, root - 1) <= b:
            return None, False
    else:
        # on the open piece before the breakpoint the response is value - slope * (lam - m)
        m = (points[lo - 1] + root) / 2
        twice_gammas = [2 * Fraction(p.cost.gamma) for p in problems]
        slope = sum(
            1 / t
            for p, t in zip(problems, twice_gammas)
            if t and p.interval.lo < -(Fraction(p.cost.beta) + m) / t < p.interval.hi
        )
        if slope:
            root = min(root, m + (exact_response(problems, m) - b) / slope)
    after = [q for q in points if q > root]
    unique = exact_response(problems, (root + after[0]) / 2 if after else root + 1) < b
    return root, unique


def response(problems, lam):
    return math.fsum(NodeCosts(problems).argmin(lam).tolist())


def assert_certified(problems, b, sol):
    """``g`` at the neighbouring doubles of ``lam_star`` brackets ``b``."""
    below, above = (math.nextafter(sol.lam_star, end) for end in (-math.inf, math.inf))
    assert response(problems, below) >= b >= response(problems, above)


def reach(problems):
    """``max_i |beta_i| + 2 gamma_i max(|lo_i|, |hi_i|)``, the scale of the breakpoints."""
    return max(abs(p.cost.beta) + 2.0 * p.cost.gamma * max(abs(p.interval.lo), abs(p.interval.hi)) for p in problems)


def fixed_case(name):
    """``(problems, demand)`` of a fixed case: the golden ieee14 cases and three synthetic sizes."""
    if name == "ieee14-flat3":  # generator 3's gamma set to 0.0, as in test_golden.py
        case = builtin_ieee14()
        gens = list(case.generators)
        gens[2] = dataclasses.replace(gens[2], gamma=0.0)
        case = dataclasses.replace(case, generators=tuple(gens), name=name)
    elif name == "builtin:ieee14":
        case = builtin_ieee14()
    else:
        case = synth_ieee118_style(*map(int, name.split(":")[1:]))
    return to_problems(case), case.demand


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
        assert sol.lam_star == IEEE14_LAM_STAR
        assert sol.f_star == IEEE14_F_STAR
        assert sol.x_star.tolist() == list(IEEE14_X_STAR)
        assert sol.residual == 0.0

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
                cost = math.fsum(value(p.cost, x[k]) for k, p in enumerate(problems))
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_multiplier(self, bad):
        # a NaN gap fails "gap <= tol" and an infinite multiplier is refused
        # before it makes one
        assert not verify_kkt(self.problems, dataclasses.replace(self.sol, lam_star=bad), b=300.0)

    def test_verdicts_match_the_per_node_loop(self):
        # this file's instances, the oracle's solutions and perturbed ones:
        # a coordinate moved by 0.1 and by a fraction or a multiple of tol,
        # off its interval by as much, the multiplier moved by 1.0 and by one
        # double, and an allocation of the wrong length
        toy = TestTwoNodeToy()
        toy.setup_method()
        instances = [(toy.problems, 4.0), (to_problems(builtin_ieee14()), 300.0), fixed_case("ieee14-flat3")]
        rng = np.random.default_rng(SUITE_SEED + 6)  # private stream: the suite stream is unchanged
        instances += [random_instance(rng) for _ in range(30)]
        verdicts = []
        for problems, b in instances:
            sol = solve_centralized(problems, b)
            i = int(rng.integers(len(problems)))
            candidates = [sol, dataclasses.replace(sol, x_star=sol.x_star[:-1])]
            for step in (0.1, 5e-9, 2e-8, -5e-9, -2e-8):
                x = sol.x_star.copy()
                x[i] += step
                candidates.append(dataclasses.replace(sol, x_star=x))
            for end, step in ((problems[i].interval.hi, 5e-9), (problems[i].interval.lo, -2e-8)):
                x = sol.x_star.copy()
                x[i] = end + step
                candidates.append(dataclasses.replace(sol, x_star=x))
            for lam in (sol.lam_star + 1.0, math.nextafter(sol.lam_star, math.inf)):
                candidates.append(dataclasses.replace(sol, lam_star=lam))
            for candidate in candidates:
                verdict = verify_kkt(problems, candidate, b=b)
                assert verdict == reference.verify_kkt(problems, candidate, b=b)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts


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
        # linear costs: the aggregate response jumps from 8 to 4 at lam = -2,
        # where the second node's jump meets the total
        problems = [
            LocalProblem(Quadratic(0.0, 1.0), FeasibleInterval(0.0, 4.0), 2.0),
            LocalProblem(Quadratic(0.0, 2.0), FeasibleInterval(0.0, 4.0), 2.0),
        ]
        sol = solve_centralized(problems, 4.0)
        assert all(p.interval.lo <= x <= p.interval.hi for p, x in zip(problems, sol.x_star))
        assert sol.lam_star == -2.0
        assert sol.residual == 0.0
        assert sol.f_star <= brute_force_best(problems, 4.0, points=401) + 1e-6


def random_instance(rng):
    """A random instance with flat nodes (some sharing one ``beta``), zero-width
    boxes, and a total at ``sum lo``, at ``sum hi`` or between them."""
    problems, _ = random_quadratic_instance(rng)
    for i, kind in enumerate(rng.integers(0, 4, len(problems)).tolist()):
        p = problems[i]
        if kind == 1:
            problems[i] = dataclasses.replace(p, cost=Quadratic(0.0, p.cost.beta))
        elif kind == 2:
            problems[i] = dataclasses.replace(p, cost=Quadratic(0.0, 0.5))
        elif kind == 3 and rng.random() < 0.5:
            problems[i] = dataclasses.replace(p, interval=FeasibleInterval(p.interval.lo, p.interval.lo))
    total_lo = math.fsum(p.interval.lo for p in problems)
    total_hi = math.fsum(p.interval.hi for p in problems)
    where = rng.random()
    if where < 0.1:
        return problems, total_lo
    if where < 0.2:
        return problems, total_hi
    return problems, min(total_hi, total_lo + rng.random() * (total_hi - total_lo))


class TestExactRoot:
    """``lam_star`` against the exact rational root of the aggregate response."""

    @pytest.mark.parametrize("name", ["builtin:ieee14", "ieee14-flat3", "synth:7", "synth:7:300", "synth:7:1000"])
    def test_fixed_cases(self, name):
        problems, b = fixed_case(name)
        sol = solve_centralized(problems, b)
        root, unique = exact_root(problems, b)
        assert unique
        assert abs(Fraction(sol.lam_star) - root) <= 2 * math.ulp(float(root))
        assert_certified(problems, b, sol)

    @pytest.mark.parametrize("b, lam_star, inward", [(0.0, -2.0, -math.inf), (390.0, -8.9, math.inf)])
    def test_total_at_an_end_takes_the_extreme_breakpoint(self, b, lam_star, inward):
        # builtin:ieee14's boxes hold 0 to 390 MW in all: every multiplier from
        # the last breakpoint, -2.0, on is optimal for a total of sum lo, and
        # every one up to the first, -8.9, for sum hi; lam_star is that
        # breakpoint, and one double inward the total is missed
        problems = to_problems(builtin_ieee14())
        sol = solve_centralized(problems, b)
        assert sol.lam_star == lam_star
        assert response(problems, lam_star) == b != response(problems, math.nextafter(lam_star, inward))
        assert sol.residual == 0.0 and verify_kkt(problems, sol, b=b)

    def test_random_instances(self, suite_rng, monkeypatch):
        probes = []
        argmin = NodeCosts.argmin
        monkeypatch.setattr(NodeCosts, "argmin", lambda self, v, out=None: probes.append(v) or argmin(self, v, out))
        for _ in range(300):
            problems, b = random_instance(suite_rng)
            probes.clear()
            sol = solve_centralized(problems, b)
            assert len(probes) <= 65
            assert_certified(problems, b, sol)
            assert verify_kkt(problems, sol, b=b)
            root, unique = exact_root(problems, b)
            # at sum lo or sum hi, rounded sums, the float response may be flat where the exact one falls
            ends = [math.fsum(p.interval.lo for p in problems), math.fsum(p.interval.hi for p in problems)]
            if b == ends[1] != ends[0]:  # the largest double with g(lam) >= b
                assert response(problems, sol.lam_star) >= b > response(problems, math.nextafter(sol.lam_star, math.inf))
            if unique and b not in ends:
                assert abs(Fraction(sol.lam_star) - root) <= 4 * np.finfo(float).eps * reach(problems)


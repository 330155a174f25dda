"""Bound formulas and their evaluation against traces."""

import dataclasses
import math

import numpy as np
import pytest

from netalloc import (
    FeasibleInterval,
    GenericConvex,
    HypothesisViolation,
    LocalProblem,
    PowerLaw,
    Quadratic,
    Recip,
    RecipSqrt,
    check_bounds,
    consensus_error_bound,
    default_checkpoints,
    global_subgradient_bound,
    lagrangian_value,
    metropolis_weights,
    rate_bound,
    run_dlm,
    solve_centralized,
    weighted_consensus_bound,
)
from netalloc import oracle
from netalloc.objectives import quadratic_arrays
from conftest import SUITE_SEED, random_connected_graph, random_quadratic_instance


def make_problem(lo, hi, share, gamma=0.1, beta=0.0):
    return LocalProblem(Quadratic(gamma, beta), FeasibleInterval(lo, hi), share)


class TestGlobalSubgradientBound:
    def test_max_over_nodes(self):
        problems = [make_problem(0, 80, 60), make_problem(0, 90, 60)]
        assert global_subgradient_bound(problems) == 60.0

    def test_single_node(self):
        assert global_subgradient_bound([make_problem(0, 10, 3)]) == 7.0

    def test_builtin_intervals(self):
        caps = [80, 90, 70, 70, 80]
        problems = [make_problem(0, c, 60) for c in caps]
        assert global_subgradient_bound(problems) == 60.0
        # endpoint enumeration oracle
        expected = max(max(abs(60 - 0), abs(60 - c)) for c in caps)
        assert expected == 60.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            global_subgradient_bound([])


class TestConsensusErrorBound:
    def test_k_zero_is_initial_l1(self):
        assert consensus_error_bound(0, RecipSqrt(), 0.5, 3.5, 2.0, 4) == 3.5

    def test_k_one_zero_start(self):
        val = consensus_error_bound(1, RecipSqrt(), 0.5, 0.0, 2.0, 4)
        assert val == pytest.approx(math.sqrt(4) * 2.0, abs=1e-12)

    def test_hand_summation(self):
        # n=3, C=1, sigma2=2/3, zero start, k=3:
        # sqrt(3) * (1*(2/3)^2 + 1*(2/3) + (1/sqrt(2))*1)
        val = consensus_error_bound(3, RecipSqrt(), 2.0 / 3.0, 0.0, 1.0, 3)
        expected = math.sqrt(3) * (4.0 / 9.0 + 2.0 / 3.0 + 1.0 / math.sqrt(2.0))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(3.1492, abs=1e-3)

    def test_rejects_non_normalized(self):
        with pytest.raises(HypothesisViolation, match="alpha"):
            consensus_error_bound(3, PowerLaw(0.08, 0.85), 0.5, 0.0, 1.0, 3)

    def test_sigma2_zero(self):
        # only the t = k-1 term survives
        val = consensus_error_bound(2, RecipSqrt(), 0.0, 5.0, 2.0, 1)
        assert val == pytest.approx(2.0 * RecipSqrt().alpha(1), abs=1e-12)


class TestWeightedConsensusBound:
    def test_log_one_vanishes(self):
        assert weighted_consensus_bound(1, 0.5, 0.0, 1.0, 1) == pytest.approx(4.0, abs=1e-12)

    def test_hand_value(self):
        val = weighted_consensus_bound(3, 0.5, 0.0, 2.0, 4)
        assert val == pytest.approx(8.0 * (2.0 + math.log(3.0)), abs=1e-10)
        assert val == pytest.approx(24.789, abs=1e-3)

    def test_linear_in_mixing_factor(self):
        slow = weighted_consensus_bound(10, 0.5, 0.0, 1.0, 4)
        fast = weighted_consensus_bound(10, 0.75, 0.0, 1.0, 4)
        assert fast == pytest.approx(2.0 * slow, rel=1e-12)

    def test_rejects_wrong_schedule(self):
        with pytest.raises(HypothesisViolation, match="1/sqrt"):
            weighted_consensus_bound(10, 0.5, 0.0, 1.0, 4, sched=Recip())


class TestRateBound:
    def test_hand_value(self):
        # n=3, sigma2=2/3, C=1, lam0=0, lam*=1, K=1:
        # 3/4 + (0 + 15*2) / (4*(1/3)*1) = 23.25
        val = rate_bound(1, 3, 2.0 / 3.0, 1.0, np.zeros(3), 1.0)
        assert val == pytest.approx(23.25, abs=1e-12)

    def test_vanishes_at_optimum_with_zero_bound(self):
        assert rate_bound(17, 3, 0.5, 0.0, np.full(3, 2.5), 2.5) == 0.0

    def test_nonincreasing_beyond_eight(self):
        vals = [rate_bound(K, 4, 0.5, 2.0, np.zeros(4), 1.0) for K in range(8, 1001)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_quadratic_scaling_in_c(self):
        base = rate_bound(10, 4, 0.5, 1.0, np.zeros(4), 0.0)
        scaled = rate_bound(10, 4, 0.5, 3.0, np.zeros(4), 0.0)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)


class TestDefaultCheckpoints:
    def test_powers_of_ten(self):
        assert default_checkpoints(5000) == [1, 10, 100, 1000, 5000]
        assert default_checkpoints(100) == [1, 10, 100]


class TestCheckBounds:
    def make_run(self, rng, n=4, iters=300, sched=None):
        problems, total = random_quadratic_instance(rng, n=n)
        w = metropolis_weights(random_connected_graph(rng, n))
        trace = run_dlm(problems, w, sched or RecipSqrt(), iters)
        sol = solve_centralized(problems, total)
        return problems, w, trace, sol

    def test_consensus_seed_observed_zero(self, suite_rng):
        p = make_problem(-5, 5, 1.0)
        w = metropolis_weights(random_connected_graph(suite_rng, 4))
        trace = run_dlm([p, p, p, p], w, RecipSqrt(), 50)
        report = check_bounds(trace, [p, p, p, p], w, lamstar=-0.2)
        assert all(r[1] <= 1e-12 for r in report.consensus_rows)
        assert all(r[4] for r in report.consensus_rows)

    def test_satisfied_with_positive_slack(self, suite_rng):
        problems, w, trace, sol = self.make_run(suite_rng, n=2, iters=100)
        report = check_bounds(trace, problems, w, sol.lam_star, checkpoints=[1, 10, 100])
        assert report.all_satisfied
        # the k=0 row has zero slack exactly when lam(0) = 0; later rows are strict
        assert report.worst_slack >= 0.0
        assert all(r[3] > 0.0 for r in report.consensus_rows[1:])
        assert len(report.gap_rows) == 3 and len(report.weighted_rows) == 3

    def test_gap_nonnegative_against_oracle(self, suite_rng):
        problems, w, trace, sol = self.make_run(suite_rng, n=5, iters=200)
        report = check_bounds(trace, problems, w, sol.lam_star)
        assert report.min_gap >= -1e-9

    def test_rejects_non_normalized_schedule(self, suite_rng):
        problems, w, trace, sol = self.make_run(
            suite_rng, n=3, iters=50, sched=PowerLaw(0.08, 0.85)
        )
        with pytest.raises(HypothesisViolation, match="alpha"):
            check_bounds(trace, problems, w, sol.lam_star)

    def test_recip_gets_consensus_rows_only(self, suite_rng):
        problems, w, trace, sol = self.make_run(suite_rng, n=3, iters=50, sched=Recip())
        report = check_bounds(trace, problems, w, sol.lam_star)
        assert report.consensus_rows and not report.gap_rows and not report.weighted_rows

    def test_consensus_upto_caps_rows(self, suite_rng):
        problems, w, trace, sol = self.make_run(suite_rng, n=3, iters=200)
        report = check_bounds(trace, problems, w, sol.lam_star, consensus_upto=20)
        assert len(report.consensus_rows) == 21

    def test_csv_sections(self, tmp_path, suite_rng):
        problems, w, trace, sol = self.make_run(suite_rng, n=2, iters=100)
        report = check_bounds(trace, problems, w, sol.lam_star, checkpoints=[1, 100])
        path = tmp_path / "bounds.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,observed,bound,slack,satisfied"
        assert "# consensus-error" in lines
        assert "# weighted-consensus" in lines
        assert "# dual-gap" in lines
        assert lines[-1].startswith("# summary {")

    def test_property_eq11_random_family(self, suite_rng):
        # spot family here; the acceptance suite runs the full 20x500 sweep
        for _ in range(6):
            n = int(suite_rng.integers(2, 11))
            problems, total = random_quadratic_instance(suite_rng, n=n)
            w = metropolis_weights(random_connected_graph(suite_rng, n))
            trace = run_dlm(problems, w, RecipSqrt(), 500)
            sol = solve_centralized(problems, total)
            report = check_bounds(trace, problems, w, sol.lam_star)
            assert all(r[4] for r in report.consensus_rows)
            assert all(r[4] for r in report.gap_rows)


def as_generic(problems):
    """The same quadratics as generic costs, which take the per-node paths."""
    return tuple(
        LocalProblem(
            GenericConvex(
                value_fn=p.cost.value,
                argmin_fn=lambda c, lo, hi, q=p.cost: -(q.beta + c) / (2.0 * q.gamma),
            ),
            p.interval,
            p.share,
        )
        for p in problems
    )


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestVectorisedPaths:
    # a private stream, so these tests leave the shared suite stream unchanged
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(SUITE_SEED + 3)

    def test_quadratic_path_matches_per_node_path(self, rng):
        problems, total = random_quadratic_instance(rng, n=7)
        w = metropolis_weights(random_connected_graph(rng, 7))
        trace = run_dlm(problems, w, RecipSqrt(), 400)
        lamstar = solve_centralized(problems, total).lam_star
        generic = as_generic(problems)
        assert quadratic_arrays(problems) is not None and quadratic_arrays(generic) is None
        slow = dataclasses.replace(trace, problems=generic)
        assert bits(trace.lagrangians()) == bits(slow.lagrangians())
        fast_report = check_bounds(trace, problems, w, lamstar, checkpoints=[1, 7, 100, 400])
        slow_report = check_bounds(slow, generic, w, lamstar, checkpoints=[1, 7, 100, 400])
        assert len(fast_report.gap_rows) == 4
        assert bits(fast_report.gap_rows) == bits(slow_report.gap_rows)
        assert bits(fast_report.min_gap) == bits(slow_report.min_gap)

    def test_oracle_quadratic_aggregate_matches_per_node_path(self, rng):
        problems, _ = random_quadratic_instance(rng, n=9)
        q = quadratic_arrays(problems)
        # interior multipliers, box-saturating ones and the bracket's powers of two
        lams = [*rng.uniform(-10, 10, 50), *(s * 2.0**e for s in (-1, 1) for e in range(0, 60, 7))]
        for lam in map(float, lams):
            assert bits(oracle._aggregate(problems, q, lam)) == bits(oracle._aggregate(problems, None, lam))

    def test_zero_gamma_mix_takes_per_node_path(self, rng):
        problems, _ = random_quadratic_instance(rng, n=5)
        problems[2] = make_problem(-2.0, 6.0, problems[2].share, gamma=0.0, beta=0.3)
        assert quadratic_arrays(problems) is None
        w = metropolis_weights(random_connected_graph(rng, 5))
        trace = run_dlm(problems, w, RecipSqrt(), 150)
        expected = [
            lagrangian_value(problems, trace.x[k], trace.lam[max(k - 1, 0)])
            for k in range(trace.x.shape[0])
        ]
        assert bits(trace.lagrangians()) == bits(expected)

    def test_consensus_rows_match_direct_bound(self, rng):
        problems, total = random_quadratic_instance(rng, n=6)
        w = metropolis_weights(random_connected_graph(rng, 6))
        sched = RecipSqrt()
        trace = run_dlm(problems, w, sched, 300, init_lams=rng.uniform(-3, 3, 6))
        report = check_bounds(trace, problems, w, solve_centralized(problems, total).lam_star)
        assert [r[0] for r in report.consensus_rows] == list(range(301))
        direct = [
            consensus_error_bound(k, sched, report.sigma2, report.lam0_l1, report.C, trace.n)
            for k in range(301)
        ]
        assert bits([r[2] for r in report.consensus_rows]) == bits(direct)

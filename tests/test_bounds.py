"""Bound formulas and their evaluation against traces."""

import math
import re

import numpy as np
import pytest

from netalloc import (
    FeasibleInterval,
    HypothesisViolation,
    LocalProblem,
    PowerLaw,
    Quadratic,
    Recip,
    RecipSqrt,
    WeightMatrix,
    builtin_ieee14,
    check_bounds,
    consensus_error_bound,
    default_checkpoints,
    global_subgradient_bound,
    metropolis_weights,
    rate_bound,
    run_dlm,
    solve_centralized,
    synth_ieee118_style,
    to_problems,
    weighted_consensus_bound,
)
from netalloc.bounds import _dual_sums, resolve_checks
from netalloc.graphs import cycle_graph
from netalloc.objectives import NodeCosts
from conftest import SUITE_SEED, csr_fields, random_connected_graph, random_quadratic_instance
from reference import dual_value, lagrangian_value, primal_argmin, value


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

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match=r"^iteration index must be nonnegative, got -1$"):
            consensus_error_bound(-1, RecipSqrt(), 0.5, 0.0, 1.0, 3)


class TestWeightedConsensusBound:
    def test_rejects_checkpoint_zero(self):
        with pytest.raises(ValueError, match=r"^checkpoint must be at least 1, got 0$"):
            weighted_consensus_bound(0, 0.5, 0.0, 1.0, 4)

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


class TestRateBound:
    def test_rejects_checkpoint_zero(self):
        with pytest.raises(ValueError, match=r"^checkpoint must be at least 1, got 0$"):
            rate_bound(0, 2, 0.5, 1.0, [0.0, 0.0], 0.0)

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


class TestResolveChecks:
    def test_defaults(self):
        assert resolve_checks(5000) == ([1, 10, 100, 1000, 5000], 5000)

    def test_sorts_and_deduplicates(self):
        assert resolve_checks(100, [100, 1, 10, 1]) == ([1, 10, 100], 100)

    @pytest.mark.parametrize("ks, shown", [([0, 5], "[0, 5]"), ([51, 1, 51], "[1, 51]")])
    def test_rejects_checkpoints_outside_trace(self, ks, shown):
        with pytest.raises(ValueError, match=rf"^checkpoints {re.escape(shown)} must lie in \[1, 50\]$"):
            resolve_checks(50, ks)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError, match=r"^consensus_upto must be nonnegative, got -5$"):
            resolve_checks(10, None, -5)

    def test_horizon_capped_at_trace_length(self):
        assert resolve_checks(10, None, 1000) == ([1, 10], 10)
        assert resolve_checks(10, [10], 3) == ([10], 3)
        assert resolve_checks(10, None, 0) == ([1, 10], 0)


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

    def test_recip_rejects_checkpoints_outside_trace(self):
        problems = [make_problem(-1.0, 1.0, 0.0) for _ in range(3)]
        w = metropolis_weights(cycle_graph(3))
        trace = run_dlm(problems, w, Recip(), 10)
        with pytest.raises(ValueError, match=r"^checkpoints \[1, 99\] must lie in \[1, 10\]$"):
            check_bounds(trace, problems, w, 0.0, checkpoints=[1, 99])

    def test_rejects_bare_sigma2(self):
        problems = [make_problem(-1.0, 1.0, 0.0) for _ in range(3)]
        w = metropolis_weights(cycle_graph(3))
        trace = run_dlm(problems, w, RecipSqrt(), 10)
        with pytest.raises(TypeError, match=r"^A must be a WeightMatrix, got float$"):
            check_bounds(trace, problems, w.sigma2, 0.0)

    def test_rejects_weights_of_another_size(self):
        # a 7-cycle's sigma2 says nothing about a 5-node run
        problems = to_problems(builtin_ieee14())
        trace = run_dlm(problems, metropolis_weights(cycle_graph(5)), RecipSqrt(), 20)
        with pytest.raises(ValueError, match=r"^weight matrix has n=7, trace has n=5$"):
            check_bounds(trace, problems, metropolis_weights(cycle_graph(7)), 0.0)

    def test_rejects_problems_of_another_size(self):
        # the C of 54 problems says nothing about a 5-node run
        problems = to_problems(builtin_ieee14())
        w = metropolis_weights(cycle_graph(5))
        trace = run_dlm(problems, w, RecipSqrt(), 20)
        with pytest.raises(ValueError, match=r"^54 problems for a trace with n=5$"):
            check_bounds(trace, to_problems(synth_ieee118_style(7)), w, 0.0)

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

    @pytest.mark.parametrize("lamstar", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lamstar(self, lamstar):
        problems = [make_problem(-1.0, 1.0, 0.0) for _ in range(3)]
        w = metropolis_weights(cycle_graph(3))
        trace = run_dlm(problems, w, RecipSqrt(), 10)
        with pytest.raises(ValueError, match=rf"^lamstar must be finite, got {lamstar!r}$"):
            check_bounds(trace, problems, w, lamstar)

    def test_rejects_negative_horizon(self):
        problems = [make_problem(-1.0, 1.0, 0.0) for _ in range(3)]
        w = metropolis_weights(cycle_graph(3))
        trace = run_dlm(problems, w, RecipSqrt(), 10)
        with pytest.raises(ValueError, match=r"^consensus_upto must be nonnegative, got -5$"):
            check_bounds(trace, problems, w, 0.0, consensus_upto=-5)

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


def with_flat_nodes(problems, nodes):
    """The problems with ``gamma`` set to 0.0 at ``nodes``: linear costs."""
    problems = list(problems)
    for i in nodes:
        p = problems[i]
        problems[i] = LocalProblem(Quadratic(0.0, p.cost.beta, p.cost.mu), p.interval, p.share)
    return problems


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestVectorisedPaths:
    # a private stream, so these tests leave the shared suite stream unchanged
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(SUITE_SEED + 3)

    def lagrangians_match_per_node(self, problems, trace):
        expected = [
            lagrangian_value(problems, trace.x[k], trace.lam[max(k - 1, 0)])
            for k in range(trace.x.shape[0])
        ]
        assert bits(trace.lagrangians()) == bits(expected)
        total = math.fsum(value(p.cost, x) for p, x in zip(problems, trace.x[-1].tolist()))
        assert bits(trace.total_cost()) == bits(total)

    def test_quadratic_path_matches_per_node_path(self, rng):
        problems, _ = random_quadratic_instance(rng, n=7)
        w = metropolis_weights(random_connected_graph(rng, 7))
        self.lagrangians_match_per_node(problems, run_dlm(problems, w, RecipSqrt(), 400))

    @pytest.mark.parametrize("family", ["quadratic", "zero-gamma mix"])
    def test_dual_gap_blocks_match_per_average_dual_sum(self, rng, family):
        # n = 70 makes two blocks of averages; each block's dual sums have the
        # bits of one fsum of dual_value per average, as node by node
        problems, total = random_quadratic_instance(rng, n=70)
        if family == "zero-gamma mix":
            problems = with_flat_nodes(problems, range(0, 70, 9))
        lamstar = solve_centralized(problems, total).lam_star
        w = metropolis_weights(random_connected_graph(rng, 70, extra_edge_prob=0.05))
        trace = run_dlm(problems, w, RecipSqrt(), 60, init_lams=rng.uniform(-5, 5, 70))
        report = check_bounds(trace, problems, w, lamstar, checkpoints=[1, 60])

        def dual_sum(lam):
            return math.fsum(dual_value(p, lam) for p in problems)

        q_star = dual_sum(lamstar)
        gaps = {K: [dual_sum(avg) - q_star for avg in trace.time_weighted_averages(K)] for K in (1, 60)}
        assert bits([r[1] for r in report.gap_rows]) == bits([max(gaps[1]), max(gaps[60])])
        assert bits(report.min_gap) == bits(min(gaps[1] + gaps[60]))
        avgs = trace.time_weighted_averages(60)
        assert bits(_dual_sums(problems)(avgs[:, None])) == bits([dual_sum(avg) for avg in avgs])

    def test_oracle_quadratic_aggregate_matches_per_node_path(self, rng):
        problems, _ = random_quadratic_instance(rng, n=9)
        problems = with_flat_nodes(problems, [3, 7])
        costs = NodeCosts(problems)
        # interior multipliers, box-saturating ones and powers of two up to 2**56
        lams = [*rng.uniform(-10, 10, 50), *(s * 2.0**e for s in (-1, 1) for e in range(0, 60, 7))]
        for lam in map(float, lams):
            per_node = math.fsum(primal_argmin(p, lam) for p in problems)
            assert bits(math.fsum(costs.argmin(lam).tolist())) == bits(per_node)

    def test_zero_gamma_mix_matches_per_node_lagrangians(self, rng):
        problems, _ = random_quadratic_instance(rng, n=5)
        problems[2] = make_problem(-2.0, 6.0, problems[2].share, gamma=0.0, beta=0.3)
        w = metropolis_weights(random_connected_graph(rng, 5))
        self.lagrangians_match_per_node(problems, run_dlm(problems, w, RecipSqrt(), 150))

    @pytest.mark.parametrize("family", ["quadratic", "zero-gamma mix", "all flat"])
    def test_node_costs_match_per_node_functions(self, rng, family):
        problems, _ = random_quadratic_instance(rng, n=6)
        if family == "zero-gamma mix":
            problems[4] = make_problem(-2.0, 6.0, problems[4].share, gamma=0.0, beta=0.3)
        elif family == "all flat":
            problems = with_flat_nodes(problems, range(6))
        costs = NodeCosts(problems)
        x = rng.uniform(-6.0, 13.0, (5, 6))
        expected = [[value(p.cost, xi) for p, xi in zip(problems, row)] for row in x.tolist()]
        assert bits(costs.value(x)) == bits(expected)

        def per_node(v):
            return [primal_argmin(p, vi) for p, vi in zip(problems, v)]

        # one multiplier per node: random, and the ties v = -beta
        ties = [-p.cost.beta for p in problems]
        for v in (rng.uniform(-8.0, 8.0, 6).tolist(), ties):
            assert bits(costs.argmin(np.array(v))) == bits(per_node(v))
        # one shared multiplier, as a scalar and as a (B, 1) column of them
        lams = [float(rng.uniform(-8.0, 8.0)), 0.0, -0.0, -0.3, 1e6, -1e6, *ties]
        for lam in lams:
            assert bits(costs.argmin(lam)) == bits(per_node([lam] * 6))
        assert bits(costs.argmin(np.array(lams)[:, None])) == bits([per_node([lam] * 6) for lam in lams])

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


def reference_consensus_bound(k, alphas, sigma2, lam0_l1, C, n):
    """The consensus bound by direct summation: fresh powers of ``sigma2`` and
    one correctly rounded ``fsum`` of the geometric term for every ``k``."""
    head = (sigma2**k if k > 0 else 1.0) * lam0_l1
    if k == 0:
        return float(head)
    powers = sigma2 ** np.arange(k - 1, -1, -1, dtype=float)
    terms = np.sort(alphas[:k] * powers)
    return float(head + math.sqrt(n) * C * math.fsum(terms.tolist()))


SCHEDULES = {"recip-sqrt": RecipSqrt(), "recip": Recip(), "powerlaw:1:0.7": PowerLaw(1.0, 0.7)}


class TestConsensusBoundMatchesReference:
    K = 400
    # the recurrence S(k) = sigma2 * S(k-1) + alpha(k-1) rounds twice per k,
    # so it may drift about 2 * K * eps = 1.8e-13 relative from fsum by K = 400
    RTOL = 1e-12

    # a private stream, so these tests leave the shared suite stream unchanged
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(20161117)

    def sigma2s(self, rng):
        return [0.0, 0.5, 1.0 - 1e-4, float(rng.uniform(0.0, 1.0))]

    @pytest.mark.parametrize("name", SCHEDULES)
    def test_direct_bound(self, rng, name):
        sched = SCHEDULES[name]
        alphas = sched.alphas(self.K)
        for sigma2 in self.sigma2s(rng):
            lam0_l1, C, n = float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.1, 100.0)), int(rng.integers(2, 60))
            direct = [consensus_error_bound(k, sched, sigma2, lam0_l1, C, n) for k in range(self.K + 1)]
            expected = [reference_consensus_bound(k, alphas, sigma2, lam0_l1, C, n) for k in range(self.K + 1)]
            np.testing.assert_allclose(direct, expected, rtol=self.RTOL, atol=0.0, err_msg=str(sigma2))

    @pytest.mark.parametrize("name", SCHEDULES)
    def test_check_bounds_rows(self, rng, name):
        sched = SCHEDULES[name]
        n = int(rng.integers(2, 9))
        problems, total = random_quadratic_instance(rng, n=n)
        w = metropolis_weights(random_connected_graph(rng, n))
        trace = run_dlm(problems, w, sched, self.K, init_lams=rng.uniform(-5.0, 5.0, n))
        lamstar = solve_centralized(problems, total).lam_star
        alphas = sched.alphas(self.K)
        # check_bounds reads only the size and sigma2 of the matrix: the run's
        # own, the averaging matrix's (about 0) and those of the lazy matrices
        # (1 - t) I + t W, within about t of 1
        eye, entries = np.eye(n), w.entries
        for a in (entries, np.full((n, n), 1.0 / n), 0.5 * (eye + entries), (1 - 1e-4) * eye + 1e-4 * entries):
            A = WeightMatrix(**csr_fields(a))
            sigma2 = A.sigma2
            report = check_bounds(trace, problems, A, lamstar)
            assert report.sigma2 == sigma2 and len(report.consensus_rows) == self.K + 1
            expected = [
                reference_consensus_bound(k, alphas, sigma2, report.lam0_l1, report.C, n) for k in range(self.K + 1)
            ]
            rows = report.consensus_rows
            np.testing.assert_allclose([r[2] for r in rows], expected, rtol=self.RTOL, atol=0.0, err_msg=str(sigma2))
            assert [r[4] for r in rows] == [r[1] <= bound for r, bound in zip(rows, expected)], sigma2

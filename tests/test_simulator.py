"""Simulator rounds, traces, and their invariants."""

import math

import numpy as np
import pytest

from netalloc import (
    Custom,
    FeasibleInterval,
    GenericConvex,
    LocalProblem,
    Quadratic,
    Recip,
    RecipSqrt,
    RunTrace,
    consensus_step,
    cycle_graph,
    lagrangian_value,
    metropolis_weights,
    path_graph,
    run_dlm,
    solve_centralized,
)
from conftest import random_connected_graph, random_quadratic_instance


def two_node_instance(gamma=0.5, lo=-10.0, hi=10.0, share=2.0):
    p = LocalProblem(Quadratic(gamma, 0.0), FeasibleInterval(lo, hi), share)
    return [p, p]


AVG = np.full((2, 2), 0.5)


class TestConsensusStep:
    def test_simple_average(self):
        out = consensus_step(AVG, np.array([2.0, 4.0]))
        np.testing.assert_allclose(out, [3.0, 3.0], atol=1e-15)

    def test_preserves_consensus(self, suite_rng):
        w = metropolis_weights(random_connected_graph(suite_rng, 6))
        out = consensus_step(w, np.full(6, 3.7))
        np.testing.assert_allclose(out, np.full(6, 3.7), atol=1e-12)

    def test_path3_metropolis(self):
        w = metropolis_weights(path_graph(3))
        out = consensus_step(w, np.array([3.0, 0.0, -3.0]))
        np.testing.assert_allclose(out, [2.0, 0.0, -2.0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            consensus_step(AVG, np.zeros(3))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_rounds_match_product_row_sums(self, layout):
        # run_dlm reuses one product buffer; its row sums must give the bits of
        # (a * lam).sum(axis=1) whatever the matrix's memory layout
        rng = np.random.default_rng(11)  # private stream: the suite stream is unchanged
        a = layout(metropolis_weights(random_connected_graph(rng, 40)).entries)
        problems, _ = random_quadratic_instance(rng, 40)
        trace = run_dlm(problems, a, RecipSqrt(), 30, init_lams=rng.uniform(-5, 5, 40))
        for k in range(30):
            expected = (a * trace.lam[k]).sum(axis=1)
            assert trace.v[k + 1].tobytes() == expected.tobytes()
            assert consensus_step(a, trace.lam[k]).tobytes() == expected.tobytes()


def one_round(lam0, alpha, x1, share):
    """``lam(1)`` of one ``run_dlm`` round on two equal nodes whose argmin is ``x1``.

    Averaging equal multipliers gives ``v(1) = lam0``; with ``gamma = 1/2`` the
    argmin is ``-v - beta``, so ``beta = -lam0 - x1`` puts it at ``x1``.
    """
    p = LocalProblem(Quadratic(0.5, -lam0 - x1), FeasibleInterval(-100.0, 100.0), share)
    trace = run_dlm([p, p], AVG, Custom(lambda k: alpha), 1, init_lams=[lam0, lam0])
    assert (trace.v[1] == lam0).all() and (trace.x[1] == x1).all()
    return trace.lam[1]


class TestDualStep:
    # the update lam = v - alpha * (b - x) moves opposite the dual subgradient b - x
    def test_arithmetic(self):
        np.testing.assert_allclose(one_round(1.0, 0.5, 30.0, 20.0), 6.0, rtol=0, atol=1e-15)

    def test_zero_subgradient(self):
        assert (one_round(1.0, 0.5, 20.0, 20.0) == 1.0).all()

    def test_underproduction_lowers_multiplier(self):
        np.testing.assert_allclose(one_round(0.0, 1.0, 0.0, 4.0), -4.0, rtol=0, atol=1e-15)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="positive"):
            one_round(0.0, 0.0, 1.0, 2.0)


class TestRunDlm:
    def test_one_iteration_hits_symmetric_optimum(self):
        # v = (0,0); x = (0,0); lam = 0 - 1*(2-0) = -2 on both nodes,
        # which is the dual optimum of this instance (x_hat(-2) = 2 = b)
        trace = run_dlm(two_node_instance(), AVG, RecipSqrt(), 1)
        np.testing.assert_allclose(trace.v[1], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(trace.x[1], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(trace.lam[1], [-2.0, -2.0], atol=1e-15)

    def test_fixed_point_at_optimum_seed(self):
        # f = x^2, share 2: argmin x^2 - 4(x - 2) is x = 2, so lam* = -4 is stationary
        p = LocalProblem(Quadratic(1.0, 0.0), FeasibleInterval(-10.0, 10.0), 2.0)
        trace = run_dlm([p, p], AVG, RecipSqrt(), 3, init_lams=[-4.0, -4.0])
        np.testing.assert_allclose(trace.v[1:], -4.0, atol=1e-15)
        np.testing.assert_allclose(trace.x[1:], 2.0, atol=1e-15)
        np.testing.assert_allclose(trace.lam[1:], -4.0, atol=1e-15)

    def test_consensus_seed_stays_consensus(self):
        trace = run_dlm(two_node_instance(), AVG, RecipSqrt(), 50, init_lams=[1.5, 1.5])
        assert (trace.lam[:, 0] == trace.lam[:, 1]).all()

    def test_rejects_zero_iters(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_dlm(two_node_instance(), AVG, RecipSqrt(), 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_step(self, bad):
        sched = Custom(lambda k: 1.0 if k < 2 else bad)
        with pytest.raises(ValueError, match=r"finite and positive, got alpha\(2\)"):
            run_dlm(two_node_instance(), AVG, sched, 5)

    def test_nan_argmin_fails_at_its_round(self):
        # two nodes, two argmin calls per round: call 7 is node 1 of round 4
        calls = []

        def argmin(c, lo, hi):
            calls.append(c)
            return math.nan if len(calls) == 8 else 0.5 * (lo + hi)

        p = LocalProblem(GenericConvex(lambda x: x * x, argmin), FeasibleInterval(-1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match=r"non-finite iterate at round k=4, node 1: x=nan"):
            run_dlm([p, p], AVG, RecipSqrt(), 10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_init_lams_fail_at_round_zero(self, bad):
        # the path's zero weights multiply an infinite multiplier into NaN
        problems = two_node_instance() + two_node_instance()[:1]
        w = metropolis_weights(path_graph(3))
        with pytest.raises(ValueError, match=r"non-finite iterate at round k=0, node 1"):
            run_dlm(problems, w, RecipSqrt(), 5, init_lams=[0.0, bad, 0.0])

    def test_rejects_single_node(self):
        p = two_node_instance()[0]
        with pytest.raises(ValueError, match="at least 2"):
            run_dlm([p], np.ones((1, 1)), RecipSqrt(), 5)

    def test_local_feasibility_every_iteration(self, suite_rng):
        for _ in range(5):
            problems, _ = random_quadratic_instance(suite_rng)
            w = metropolis_weights(random_connected_graph(suite_rng, len(problems)))
            trace = run_dlm(problems, w, RecipSqrt(), 200)
            lo = np.array([p.interval.lo for p in problems])
            hi = np.array([p.interval.hi for p in problems])
            assert (trace.x[1:] >= lo).all() and (trace.x[1:] <= hi).all()

    def test_mean_multiplier_recursion(self, suite_rng):
        # mean(k+1) = mean(k) + alpha(k) * sum(x(k+1) - b) / n, from column sums of A
        problems, _ = random_quadratic_instance(suite_rng, n=6)
        w = metropolis_weights(random_connected_graph(suite_rng, 6))
        sched = RecipSqrt()
        trace = run_dlm(problems, w, sched, 100)
        means = trace.mean_multipliers()
        residuals = trace.residuals()
        for k in range(100):
            predicted = means[k] + sched.alpha(k) * residuals[k + 1] / trace.n
            assert means[k + 1] == pytest.approx(predicted, abs=1e-12)

    def test_bitwise_determinism(self, suite_rng):
        problems, _ = random_quadratic_instance(suite_rng, n=5)
        w = metropolis_weights(random_connected_graph(suite_rng, 5))
        t1 = run_dlm(problems, w, RecipSqrt(), 300)
        t2 = run_dlm(problems, w, RecipSqrt(), 300)
        assert (t1.x == t2.x).all() and (t1.lam == t2.lam).all() and (t1.v == t2.v).all()

    def test_vectorized_path_matches_per_node_path(self, suite_rng):
        # wrap the same quadratics as generic costs to force the scalar path
        problems, _ = random_quadratic_instance(suite_rng, n=4)
        generic = [
            LocalProblem(
                GenericConvex(
                    value_fn=p.cost.value,
                    argmin_fn=lambda c, lo, hi, q=p.cost: min(
                        max((-c - q.beta) / (2.0 * q.gamma), lo), hi
                    ),
                ),
                p.interval,
                p.share,
            )
            for p in problems
        ]
        w = metropolis_weights(cycle_graph(4))
        fast = run_dlm(problems, w, RecipSqrt(), 200)
        slow = run_dlm(generic, w, RecipSqrt(), 200)
        assert (fast.x == slow.x).all() and (fast.lam == slow.lam).all()

    def test_converges_to_oracle(self, suite_rng):
        problems, total = random_quadratic_instance(suite_rng, n=5)
        w = metropolis_weights(random_connected_graph(suite_rng, 5))
        sol = solve_centralized(problems, total)
        trace = run_dlm(problems, w, Recip(), 10_000)
        assert trace.mean_multipliers()[-1] == pytest.approx(sol.lam_star, abs=1e-2)
        assert trace.spreads()[-1] <= 1e-2
        L = lagrangian_value(problems, trace.x[-1], trace.lam[-2])
        assert abs(L - sol.f_star) <= 1e-2 * (1 + abs(sol.f_star))


class TestLagrangianValue:
    def test_penalty_vanishes_at_share(self):
        p = LocalProblem(Quadratic(1.0, 0.0), FeasibleInterval(-5.0, 5.0), 2.0)
        assert lagrangian_value([p], [2.0], [3.0]) == pytest.approx(4.0, abs=1e-15)

    def test_at_shares_equals_total_cost(self, suite_rng):
        problems, _ = random_quadratic_instance(suite_rng, n=4)
        x = [p.share for p in problems]
        expected = math.fsum(p.cost.value(p.share) for p in problems)
        assert lagrangian_value(problems, x, [7.0] * 4) == pytest.approx(expected, abs=1e-12)

    def test_hand_example(self):
        p = LocalProblem(Quadratic(1.0, 0.0), FeasibleInterval(-5.0, 5.0), 2.0)
        val = lagrangian_value([p, p], [1.0, 3.0], [1.0, 1.0])
        assert val == pytest.approx(10.0, abs=1e-15)  # (1 - 1) + (9 + 1)


def hand_trace(lam_rows, schedule):
    """A RunTrace with the given multiplier rows and zero allocations."""
    lam = np.array(lam_rows, dtype=float)
    zeros = np.zeros_like(lam)
    return RunTrace(problems=(), b=np.zeros(lam.shape[1]), schedule=schedule, x=zeros, lam=lam, v=zeros)


class TestWeightedDualAverage:
    def test_equal_weights(self):
        trace = hand_trace([[0.0], [4.0]], Custom(lambda k: 1.0))
        assert trace.time_weighted_averages()[0] == 2.0

    def test_constant_multiplier(self):
        c = -3.25
        trace = hand_trace([[c], [c], [c]], RecipSqrt())
        assert trace.time_weighted_averages()[0] == pytest.approx(c, abs=1e-15)

    def test_hand_history(self):
        # alpha (1, 1, 1/sqrt(2)), lam (0, 4, 10)
        trace = hand_trace([[0.0], [4.0], [10.0]], RecipSqrt())
        assert trace.time_weighted_averages()[0] == pytest.approx(4.0896, abs=1e-4)

    def test_rejects_empty(self):
        # checkpoint -1 would average no rows at all
        trace = hand_trace([[0.0], [4.0]], RecipSqrt())
        with pytest.raises(ValueError, match="outside recorded range"):
            trace.time_weighted_averages(-1)

    def test_accumulators_match_trace(self):
        trace = run_dlm(two_node_instance(), AVG, RecipSqrt(), 3)
        alphas = [1.0, 1.0, 1.0 / math.sqrt(2.0)]
        expected = math.fsum(a * l for a, l in zip(alphas, trace.lam[:3, 0])) / math.fsum(alphas)
        assert trace.time_weighted_averages(2)[0] == pytest.approx(expected, abs=1e-12)


class TestRunTrace:
    def test_row_count(self):
        trace = run_dlm(two_node_instance(), AVG, RecipSqrt(), 7)
        assert trace.iterations == 7 and trace.x.shape == (8, 2)

    def test_residual_recomputable(self):
        trace = run_dlm(two_node_instance(), AVG, RecipSqrt(), 5)
        np.testing.assert_array_equal(
            trace.residuals(), (trace.x - trace.b).sum(axis=1)
        )

    def test_csv_round_trip(self, tmp_path):
        problems = two_node_instance()
        sched = RecipSqrt()
        trace = run_dlm(problems, AVG, sched, 20)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = RunTrace.from_csv(path, problems, sched)
        assert (back.x == trace.x).all()
        assert (back.lam == trace.lam).all()
        assert (back.v == trace.v).all()

    # a 2-node, 2-round trace: line 1 is the header, lines 2..7 hold (k, node)
    # = (0,0) (0,1) (1,0) (1,1) (2,0) (2,1)
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: rows[:4] + [rows[3]] + rows[5:], "line 5: repeated row for k=1, node=0"),
            (lambda rows: rows[:4] + rows[5:], "no row for k=1, node=1"),
            (lambda rows: rows[:-1], "no row for k=2, node=1"),
            (lambda rows: rows[:3] + ["-1" + rows[3][1:]] + rows[4:], "line 4: negative iteration k=-1"),
            (lambda rows: rows[:3] + ["1,2" + rows[3][3:]] + rows[4:], r"line 4: node index 2 outside \[0,2\)"),
            (
                lambda rows: rows[:3] + ["1,x,1,2,3"] + rows[4:],
                r"line 4: malformed trace row '1,x,1,2,3': invalid literal for int\(\)",
            ),
            (lambda rows: rows[:3] + ["1,0,1,2"] + rows[4:], "line 4: .*expected 5 fields, got 4"),
            (lambda rows: rows[:3] + ["1,0,1,2,3,4"] + rows[4:], "line 4: .*expected 5 fields, got 6"),
            (lambda rows: rows[:4] + ["1,1,nan,2,3"] + rows[5:], "line 5: non-finite value"),
        ],
        ids=[
            "repeated",
            "missing",
            "missing-last",
            "negative-k",
            "node-range",
            "bad-number",
            "short-row",
            "long-row",
            "non-finite",
        ],
    )
    def test_csv_rejects_bad_rows(self, tmp_path, edit, message):
        problems = two_node_instance()
        path = tmp_path / "trace.csv"
        run_dlm(problems, AVG, RecipSqrt(), 2).to_csv(path)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(edit(rows)) + "\n")
        with pytest.raises(ValueError, match=message):
            RunTrace.from_csv(path, problems, RecipSqrt())

    def test_csv_headers(self, tmp_path):
        trace = run_dlm(two_node_instance(), AVG, RecipSqrt(), 2)
        tpath = tmp_path / "t.csv"
        spath = tmp_path / "s.csv"
        trace.to_csv(tpath)
        trace.summary_to_csv(spath)
        assert tpath.read_text().splitlines()[0] == "k,node,x,lambda,v"
        assert spath.read_text().splitlines()[0] == "k,residual,lagrangian,spread"

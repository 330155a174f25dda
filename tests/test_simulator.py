"""Simulator rounds, traces, and their invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from netalloc import (
    FeasibleInterval,
    LocalProblem,
    Quadratic,
    Recip,
    RecipSqrt,
    RunTrace,
    builtin_ieee14,
    check_bounds,
    complete_graph,
    consensus_step,
    cycle_graph,
    lagrangian_value,
    metropolis_weights,
    path_graph,
    run_dlm,
    solve_centralized,
    to_problems,
)
from netalloc import simulator
from netalloc.objectives import NodeCosts
from conftest import Custom, random_connected_graph, random_quadratic_instance
from reference import primal_argmin, value


def two_node_instance(gamma=0.5, lo=-10.0, hi=10.0, share=2.0):
    p = LocalProblem(Quadratic(gamma, 0.0), FeasibleInterval(lo, hi), share)
    return [p, p]


AVG = metropolis_weights(cycle_graph(2))  # every entry 0.5


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

    def test_rounds_match_consensus_step_near_dense_product(self):
        # run_dlm and consensus_step share one CSR round; its sums group terms
        # differently from the dense product's, within n * eps * sum_j |a_ij lam_j|
        rng = np.random.default_rng(11)  # private stream: the suite stream is unchanged
        w = metropolis_weights(random_connected_graph(rng, 40))
        a = w.entries
        problems, _ = random_quadratic_instance(rng, 40)
        trace = run_dlm(problems, w, RecipSqrt(), 30, init_lams=rng.uniform(-5, 5, 40))
        for k in range(30):
            v = consensus_step(w, trace.lam[k])
            assert trace.v[k + 1].tobytes() == v.tobytes()
            scale = 40 * np.finfo(float).eps * (np.abs(a) * np.abs(trace.lam[k])).sum(axis=1)
            assert (np.abs(v - (a * trace.lam[k]).sum(axis=1)) <= scale).all()

    @pytest.mark.parametrize("family", ["quadratic", "zero-gamma mix"])
    def test_in_place_round_matches_allocating_expression(self, family):
        # run_dlm writes v, x and lam into its history rows; each has the bits
        # of the round's allocating expression
        rng = np.random.default_rng(12)  # private stream: the suite stream is unchanged
        problems, _ = random_quadratic_instance(rng, 9)
        if family == "quadratic":
            gamma, beta = (np.array([getattr(p.cost, name) for p in problems]) for name in ("gamma", "beta"))
            lo, hi = (np.array([getattr(p.interval, name) for p in problems]) for name in ("lo", "hi"))

            def argmin(v):
                return np.minimum(np.maximum(-(beta + v) / (2.0 * gamma), lo), hi)

        else:
            for i in (2, 6):
                p = problems[i]
                problems[i] = LocalProblem(Quadratic(0.0, p.cost.beta, p.cost.mu), p.interval, p.share)

            def argmin(v):
                return np.array([primal_argmin(p, vi) for p, vi in zip(problems, v.tolist())])

        w = metropolis_weights(random_connected_graph(rng, 9))
        sched = RecipSqrt()
        trace = run_dlm(problems, w, sched, 25, init_lams=rng.uniform(-5, 5, 9))
        alphas = sched.alphas(25)
        for k in range(25):
            v = consensus_step(w, trace.lam[k])
            x = argmin(v)
            lam = v - alphas[k] * (trace.b - x)
            got = (trace.v[k + 1], trace.x[k + 1], trace.lam[k + 1])
            assert [g.tobytes() for g in got] == [v.tobytes(), x.tobytes(), lam.tobytes()]


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

    def test_overflowing_dual_step_fails_at_its_round(self):
        # alpha(0) * (b - x) = 1e308 * 3 overflows the first dual step to -inf
        box = FeasibleInterval(-1.0, 1.0)
        problems = [LocalProblem(Quadratic(1.0, 0.0), box, share) for share in (3.0, -3.0)]
        message = r"^non-finite iterate at round k=1, node 0: x=-0\.0, lambda=-inf, v=0\.0$"
        with pytest.raises(ValueError, match=message):
            run_dlm(problems, metropolis_weights(cycle_graph(2)), Custom(lambda k: 1e308), 10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_init_lams_fail_at_round_zero(self, bad):
        # the path's zero weights multiply an infinite multiplier into NaN
        problems = two_node_instance() + two_node_instance()[:1]
        w = metropolis_weights(path_graph(3))
        with pytest.raises(ValueError, match=r"non-finite iterate at round k=0, node 1"):
            run_dlm(problems, w, RecipSqrt(), 5, init_lams=[0.0, bad, 0.0])

    def test_rejects_init_lams_of_another_shape(self):
        with pytest.raises(ValueError, match=r"^init_lams shape \(3,\) does not match 2 nodes$"):
            run_dlm(two_node_instance(), AVG, RecipSqrt(), 5, init_lams=[0.0, 0.0, 0.0])

    def test_rejects_single_node(self):
        p = two_node_instance()[0]
        with pytest.raises(ValueError, match="at least 2"):
            run_dlm([p], AVG, RecipSqrt(), 5)

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
        means = trace.lam.mean(axis=1)
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
        # every round's x has the bits of primal_argmin at that round's v, a
        # flat (gamma == 0) node included
        problems, _ = random_quadratic_instance(suite_rng, n=4)
        flat = problems[1]
        problems[1] = LocalProblem(Quadratic(0.0, flat.cost.beta), flat.interval, flat.share)
        w = metropolis_weights(cycle_graph(4))
        trace = run_dlm(problems, w, RecipSqrt(), 200)
        for x, v in zip(trace.x[1:], trace.v[1:]):
            expected = [primal_argmin(p, vi) for p, vi in zip(problems, v.tolist())]
            assert x.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("flat_every", [None, 3], ids=["quadratic", "every-third-flat"])
    def test_rounds_allocate_nothing(self, suite_rng, monkeypatch, flat_every):
        # Under tracemalloc, from the first round's primal step to the check
        # after the last round, with every history row already allocated. A
        # read-only index array would cost a copy of its 819,200 bytes in
        # every round's gather; the run takes one writeable copy up front.
        # Flat nodes take their interval ends through a few temporaries of
        # one float per flat node (about 5.7 kB for 107 of them).
        A = metropolis_weights(complete_graph(320))  # 102,400 stored entries
        problems, _ = random_quadratic_instance(suite_rng, n=320)
        if flat_every:
            problems = [
                LocalProblem(Quadratic(0.0, p.cost.beta, p.cost.mu), p.interval, p.share) if i % flat_every == 0 else p
                for i, p in enumerate(problems)
            ]
        flat = sum(p.cost.gamma == 0.0 for p in problems)
        window = {}
        argmin, require_finite = NodeCosts.argmin, simulator._require_finite

        def first_argmin(self, v, out=None):
            if not window:
                window["start"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            return argmin(self, v, out=out)

        def end(*hists):
            window["peak"] = tracemalloc.get_traced_memory()[1]
            return require_finite(*hists)

        monkeypatch.setattr(NodeCosts, "argmin", first_argmin)
        monkeypatch.setattr(simulator, "_require_finite", end)
        tracemalloc.start()
        try:
            run_dlm(problems, A, RecipSqrt(), 50)
        finally:
            tracemalloc.stop()
        assert window["peak"] - window["start"] <= 4096 + 40 * flat

    def test_converges_to_oracle(self, suite_rng):
        problems, total = random_quadratic_instance(suite_rng, n=5)
        w = metropolis_weights(random_connected_graph(suite_rng, 5))
        sol = solve_centralized(problems, total)
        trace = run_dlm(problems, w, Recip(), 10_000)
        assert trace.lam.mean(axis=1)[-1] == pytest.approx(sol.lam_star, abs=1e-2)
        assert trace.spreads()[-1] <= 1e-2
        L = lagrangian_value(problems, trace.x[-1], trace.lam[-2])
        assert abs(L - sol.f_star) <= 1e-2 * (1 + abs(sol.f_star))


def test_rounds_and_bounds_take_only_a_weight_matrix():
    # a matrix of ones is not doubly stochastic: run unchecked, it drives the
    # multipliers toward -1e15
    problems = to_problems(builtin_ieee14())
    trace = run_dlm(problems, metropolis_weights(cycle_graph(5)), RecipSqrt(), 20)
    raw = np.ones((5, 5))
    calls = [
        lambda: run_dlm(problems, raw, RecipSqrt(), 20),
        lambda: consensus_step(raw, np.zeros(5)),
        lambda: check_bounds(trace, problems, raw, 0.0),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=r"^A must be a WeightMatrix, got ndarray$"):
            call()


class TestLagrangianValue:
    def test_penalty_vanishes_at_share(self):
        p = LocalProblem(Quadratic(1.0, 0.0), FeasibleInterval(-5.0, 5.0), 2.0)
        assert lagrangian_value([p], [2.0], [3.0]) == pytest.approx(4.0, abs=1e-15)

    def test_at_shares_equals_total_cost(self, suite_rng):
        problems, _ = random_quadratic_instance(suite_rng, n=4)
        x = [p.share for p in problems]
        expected = math.fsum(value(p.cost, p.share) for p in problems)
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
            (lambda rows: rows[:4] + [rows[3]] + rows[5:], "^line 5: expected the row for k=1, node=1, got k=1, node=0$"),
            (lambda rows: rows[:4] + rows[5:], "^line 5: expected the row for k=1, node=1, got k=2, node=0$"),
            (lambda rows: rows[:-1], "^trace has no row for k=2, node=1$"),
            (
                lambda rows: rows[:3] + ["-1" + rows[3][1:]] + rows[4:],
                "^line 4: expected the row for k=1, node=0, got k=-1, node=0$",
            ),
            (
                lambda rows: rows[:3] + ["1,2" + rows[3][3:]] + rows[4:],
                "^line 4: expected the row for k=1, node=0, got k=1, node=2$",
            ),
            (
                lambda rows: rows[:3] + ["1,x,1,2,3"] + rows[4:],
                "^line 4: malformed trace row '1,x,1,2,3': could not convert 'x' to int64$",
            ),
            (lambda rows: rows[:3] + ["1,0,1,2"] + rows[4:], "line 4: .*expected 5 fields, got 4"),
            (lambda rows: rows[:3] + ["1,0,1,2,3,4"] + rows[4:], "line 4: .*expected 5 fields, got 6"),
            (lambda rows: rows[:4] + ["1,1,nan,2,3"] + rows[5:], "^line 5: non-finite value in trace row$"),
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

